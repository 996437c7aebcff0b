// Copyright 2026 The QPGC Authors.
//
// The paper's running example (Fig. 2): a multi-agent recommendation
// network with book server agents (BSA), music shop agents (MSA),
// facilitator agents (FA) and customers (C). A bookstore owner asks for
// BSAs that reach customers within 2 hops, where those customers interact
// with facilitators — a bounded-simulation pattern query. The example walks
// through both compressions of the paper on this network.
//
//   $ ./recommendation_network

#include <cstdio>

#include "core/pattern_scheme.h"
#include "core/reach_scheme.h"
#include "pattern/match.h"
#include "reach/equivalence.h"

using namespace qpgc;

namespace {
constexpr Label BSA = 0, MSA = 1, FA = 2, C = 3;
const char* kLabelNames[] = {"BSA", "MSA", "FA", "C"};
const char* kNodeNames[] = {"BSA1", "BSA2", "MSA1", "MSA2", "FA1", "FA2",
                            "FA3",  "FA4",  "C1",   "C2",   "C3",  "C4",
                            "C5"};
}  // namespace

int main() {
  Graph g(std::vector<Label>{BSA, BSA, MSA, MSA, FA, FA, FA, FA, C, C, C, C,
                             C});
  const NodeId bsa1 = 0, bsa2 = 1, msa1 = 2, msa2 = 3;
  const NodeId fa1 = 4, fa2 = 5, fa3 = 6, fa4 = 7;
  const NodeId c1 = 8, c2 = 9, c3 = 10, c4 = 11;
  for (NodeId b : {bsa1, bsa2}) {
    g.AddEdge(b, msa1);
    g.AddEdge(b, msa2);
    g.AddEdge(b, c1);
    g.AddEdge(b, c2);
  }
  g.AddEdge(c1, fa1);
  g.AddEdge(fa1, c1);
  g.AddEdge(c2, fa2);
  g.AddEdge(fa2, c2);
  g.AddEdge(fa3, c3);
  g.AddEdge(fa4, c4);

  std::printf("recommendation network: %s\n\n", g.DebugString().c_str());

  // --- Example 1: the bookstore owner's pattern query --------------------
  PatternQuery qp;
  const uint32_t q_bsa = qp.AddNode(BSA);
  const uint32_t q_c = qp.AddNode(C);
  const uint32_t q_fa = qp.AddNode(FA);
  qp.AddEdge(q_bsa, q_c, 2);  // customers within 2 hops of the BSA
  qp.AddEdge(q_c, q_fa, 1);   // customers interact with FAs...
  qp.AddEdge(q_fa, q_c, 1);   // ...in both directions

  const MatchResult direct = Match(g, qp);
  std::printf("pattern query on G: matched=%s\n",
              direct.matched ? "yes" : "no");
  for (uint32_t u = 0; u < qp.num_nodes(); ++u) {
    std::printf("  %s matches:", kLabelNames[qp.label(u)]);
    for (NodeId v : direct.match_sets[u]) std::printf(" %s", kNodeNames[v]);
    std::printf("\n");
  }

  // --- Example 5: the same query through the compressed graph ------------
  const PatternCompression pc = CompressB(g);
  std::printf("\npattern-preserving compression: %zu nodes -> %zu hypernodes"
              " (Fig. 2's {BSA, MSA, FA, FA', C, C'})\n",
              g.num_nodes(), pc.gr->num_nodes());
  const MatchResult via_gr = MatchOnCompressed(pc, qp);
  std::printf("Match(Gr) + P gives the identical answer: %s\n",
              via_gr.match_sets == direct.match_sets ? "yes" : "NO (bug!)");

  // --- Examples 2-3: reachability equivalence and QR through Gr ----------
  const ReachPartition re = ComputeReachEquivalence(g);
  std::printf("\nreachability equivalence (Example 2):\n");
  std::printf("  BSA1 ~ BSA2: %s\n",
              re.class_of[bsa1] == re.class_of[bsa2] ? "yes" : "no");
  std::printf("  MSA1 ~ MSA2: %s\n",
              re.class_of[msa1] == re.class_of[msa2] ? "yes" : "no");
  std::printf("  FA3  ~ FA4 : %s (FA3 reaches C3, FA4 does not)\n",
              re.class_of[fa3] == re.class_of[fa4] ? "yes" : "no");

  const ReachabilityPreservingCompression reach(g);
  std::printf("\nreachability compression: |G| = %zu -> |Gr| = %zu\n",
              g.size(), reach.artifact().size());
  std::printf("QR(BSA1, FA2) via Gr: %s (Example: BSA1 -> C2 -> FA2)\n",
              reach.Answer({bsa1, fa2}) ? "true" : "false");
  std::printf("QR(FA4, C3) via Gr: %s\n",
              reach.Answer({fa4, c3}) ? "true" : "false");
  return 0;
}
