// Copyright 2026 The QPGC Authors.
//
// The paper's running example (Fig. 2, Examples 1-5): a multi-agent
// recommendation network with book server agents (BSA), music shop agents
// (MSA), facilitator agents (FA) and customers (C). Reconstructed so that
// every relationship the paper states holds:
//   * Example 1: the pattern query ("BSAs reaching customers within 2 hops,
//     customers interacting with FAs") matches exactly
//     {(BSA, BSA1/2), (C, C1/2), (FA, FA1/2)}.
//   * Example 2: (BSA1, BSA2) and (MSA1, MSA2) are reachability equivalent;
//     (FA3, FA4) are not (FA3 reaches C3, FA4 does not).
//   * Example 4: FA3 and FA4 are bisimilar; FA2 and FA3 are not.
//   * Example 5 / Fig. 2's Gr: the pattern compression has exactly the six
//     hypernodes {BSA, MSA, FA, FA', C, C'}.

#include <gtest/gtest.h>

#include "bisim/signature_bisim.h"
#include "core/pattern_scheme.h"
#include "core/reach_scheme.h"
#include "inc/inc_pcm.h"
#include "inc/inc_rcm.h"
#include "pattern/match.h"
#include "reach/equivalence.h"
#include "test_util.h"

namespace qpgc {
namespace {

constexpr Label BSA = 0, MSA = 1, FA = 2, C = 3;

struct RecommendationNetwork {
  Graph g{std::vector<Label>{BSA, BSA, MSA, MSA, FA, FA, FA, FA,
                             C,   C,   C,   C,   C}};
  NodeId bsa1 = 0, bsa2 = 1;
  NodeId msa1 = 2, msa2 = 3;
  NodeId fa1 = 4, fa2 = 5, fa3 = 6, fa4 = 7;
  NodeId c1 = 8, c2 = 9, c3 = 10, c4 = 11, c5 = 12;

  RecommendationNetwork() {
    // BSAs recommend to both MSAs and to customers C1, C2.
    for (NodeId b : {bsa1, bsa2}) {
      g.AddEdge(b, msa1);
      g.AddEdge(b, msa2);
      g.AddEdge(b, c1);
      g.AddEdge(b, c2);
    }
    // Customers C1, C2 interact with facilitators FA1, FA2 (both ways).
    g.AddEdge(c1, fa1);
    g.AddEdge(fa1, c1);
    g.AddEdge(c2, fa2);
    g.AddEdge(fa2, c2);
    // FA3, FA4 recommend to leaf customers (no interaction back).
    g.AddEdge(fa3, c3);
    g.AddEdge(fa4, c4);
    // C5 is an isolated customer.
  }
};

// The pattern Qp of Fig. 2: BSA reaches C within 2 hops; C and FA interact.
PatternQuery Fig2Pattern() {
  PatternQuery q;
  const uint32_t qbsa = q.AddNode(BSA);
  const uint32_t qc = q.AddNode(C);
  const uint32_t qfa = q.AddNode(FA);
  q.AddEdge(qbsa, qc, 2);
  q.AddEdge(qc, qfa, 1);
  q.AddEdge(qfa, qc, 1);
  return q;
}

TEST(PaperExample1, MatchIsExactlyTheStatedRelation) {
  const RecommendationNetwork net;
  const MatchResult m = Match(net.g, Fig2Pattern());
  ASSERT_TRUE(m.matched);
  EXPECT_EQ(m.match_sets[0], (std::vector<NodeId>{net.bsa1, net.bsa2}));
  EXPECT_EQ(m.match_sets[1], (std::vector<NodeId>{net.c1, net.c2}));
  EXPECT_EQ(m.match_sets[2], (std::vector<NodeId>{net.fa1, net.fa2}));
}

TEST(PaperExample1, SameAnswerThroughCompressedGraph) {
  const RecommendationNetwork net;
  const PatternCompression pc = CompressB(net.g);
  const MatchResult direct = Match(net.g, Fig2Pattern());
  const MatchResult via_gr = MatchOnCompressed(pc, Fig2Pattern());
  EXPECT_EQ(direct.match_sets, via_gr.match_sets);
  // And the compressed evaluation needs to consider fewer C candidates —
  // the efficiency point of Example 1.
  EXPECT_LT(pc.gr->num_nodes(), net.g.num_nodes());
}

TEST(PaperExample2, ReachabilityEquivalences) {
  const RecommendationNetwork net;
  const ReachPartition re = ComputeReachEquivalence(net.g);
  EXPECT_EQ(re.class_of[net.bsa1], re.class_of[net.bsa2]);
  EXPECT_EQ(re.class_of[net.msa1], re.class_of[net.msa2]);
  // FA3 reaches C3, FA4 does not: not equivalent.
  EXPECT_NE(re.class_of[net.fa3], re.class_of[net.fa4]);
}

TEST(PaperExample3, ReachabilityQueriesThroughGr) {
  const RecommendationNetwork net;
  const ReachabilityPreservingCompression scheme(net.g);
  // QR(BSA1, FA2) = true (Example: BSA1 -> C2 -> FA2).
  EXPECT_TRUE(scheme.Answer({net.bsa1, net.fa2}));
  EXPECT_FALSE(scheme.Answer({net.fa4, net.c3}));
  EXPECT_TRUE(scheme.Answer({net.fa3, net.c3}));
  // Compression shrinks the graph.
  EXPECT_LT(scheme.artifact().size(), net.g.size());
}

TEST(PaperExample4, BisimilarityRelations) {
  const RecommendationNetwork net;
  const Partition rb = SignatureBisimulation(net.g);
  EXPECT_EQ(rb.block_of[net.fa3], rb.block_of[net.fa4]);   // bisimilar
  EXPECT_NE(rb.block_of[net.fa2], rb.block_of[net.fa3]);   // not bisimilar
  EXPECT_EQ(rb.block_of[net.bsa1], rb.block_of[net.bsa2]);
  EXPECT_EQ(rb.block_of[net.c1], rb.block_of[net.c2]);
  EXPECT_EQ(rb.block_of[net.c3], rb.block_of[net.c4]);
  EXPECT_EQ(rb.block_of[net.c4], rb.block_of[net.c5]);
  EXPECT_NE(rb.block_of[net.c1], rb.block_of[net.c3]);
}

TEST(PaperExample5, SixHypernodesInPatternGr) {
  const RecommendationNetwork net;
  const PatternCompression pc = CompressB(net.g);
  // {BSA, MSA, FA, FA', C, C'} — six hypernodes, as drawn in Fig. 2.
  EXPECT_EQ(pc.gr->num_nodes(), 6u);
  EXPECT_EQ(pc.node_map[net.fa1], pc.node_map[net.fa2]);
  EXPECT_NE(pc.node_map[net.fa1], pc.node_map[net.fa3]);
}

TEST(PaperFig3, BooleanPatternNeedsNoPostProcessing) {
  const RecommendationNetwork net;
  const PatternCompression pc = CompressB(net.g);
  EXPECT_TRUE(BooleanMatchOnCompressed(pc, Fig2Pattern()));
  EXPECT_EQ(BooleanMatch(net.g, Fig2Pattern()), true);
}

// Example 6 / Fig. 9 in spirit: incremental reachability maintenance on the
// recommendation network — a redundant insertion is discharged without
// touching Gr; a cycle-forming insertion merges classes; a cycle-breaking
// deletion splits them again.
TEST(PaperExample6, IncrementalReachabilityScenario) {
  RecommendationNetwork net;
  ReachCompression rc = CompressR(net.g);

  // (1) e1-style redundant insertion: BSA1 already reaches FA1 via C1.
  {
    const CsrGraph before_gr = *rc.gr;
    UpdateBatch batch;
    batch.Insert(net.bsa1, net.fa1);
    const UpdateBatch effective = ApplyBatch(net.g, batch);
    const IncRcmStats stats = IncRCM(net.g, effective, rc);
    EXPECT_EQ(stats.reduced_updates, 1u);
    EXPECT_EQ(stats.kept_updates, 0u);
    EXPECT_TRUE(*rc.gr == before_gr);
    ExpectEquivalentReachCompression(rc, CompressR(net.g));
  }

  // (2) e2-style SCC formation: FA2 -> BSA1 closes a cycle
  // BSA1 -> C2 -> FA2 -> BSA1; the classes on it merge into one cyclic
  // class.
  {
    UpdateBatch batch;
    batch.Insert(net.fa2, net.bsa1);
    const UpdateBatch effective = ApplyBatch(net.g, batch);
    IncRCM(net.g, effective, rc);
    ExpectEquivalentReachCompression(rc, CompressR(net.g));
    const NodeId c = rc.node_map[net.bsa1];
    EXPECT_EQ(rc.node_map[net.c2], c);
    EXPECT_EQ(rc.node_map[net.fa2], c);
    EXPECT_TRUE(rc.cyclic[c]);
  }

  // (3) e4-style cycle break: deleting C2 -> FA2 splits the SCC class.
  {
    UpdateBatch batch;
    batch.Delete(net.c2, net.fa2);
    const UpdateBatch effective = ApplyBatch(net.g, batch);
    IncRCM(net.g, effective, rc);
    ExpectEquivalentReachCompression(rc, CompressR(net.g));
    EXPECT_NE(rc.node_map[net.c2], rc.node_map[net.fa2]);
  }
}

// Example 7 / Fig. 11 in spirit: deleting C1's interaction edge demotes C1
// to a plain leaf customer — incPCM merges it with (C3, ..., Ck), and FA1,
// now a facilitator of leaf customers only, merges with (FA3, FA4). The
// mirror-image deletion then becomes redundant under minDelta.
TEST(PaperExample7, IncrementalPatternScenario) {
  RecommendationNetwork net;
  PatternCompression pc = CompressB(net.g);
  ASSERT_NE(pc.node_map[net.c1], pc.node_map[net.c3]);
  ASSERT_NE(pc.node_map[net.fa1], pc.node_map[net.fa3]);

  UpdateBatch batch;
  batch.Delete(net.c1, net.fa1);  // the paper's -e1
  const UpdateBatch effective = ApplyBatch(net.g, batch);
  IncPCM(net.g, effective, pc);
  ExpectEquivalentPatternCompression(pc, CompressB(net.g));

  // C1 merged with the leaf customers (C3, C4, C5).
  EXPECT_EQ(pc.node_map[net.c1], pc.node_map[net.c3]);
  EXPECT_EQ(pc.node_map[net.c3], pc.node_map[net.c5]);
  // FA1 merged with (FA3, FA4).
  EXPECT_EQ(pc.node_map[net.fa1], pc.node_map[net.fa3]);
  EXPECT_EQ(pc.node_map[net.fa3], pc.node_map[net.fa4]);
  // C2 and FA2 keep their own blocks.
  EXPECT_NE(pc.node_map[net.c2], pc.node_map[net.c1]);
  EXPECT_NE(pc.node_map[net.fa2], pc.node_map[net.fa1]);

  // The paper's redundant -e3: with FA1 now pointing only at leaf
  // customers, deleting one of two same-block children is discharged by
  // minDelta. Give FA1 a second leaf child first, then delete it.
  {
    UpdateBatch setup;
    setup.Insert(net.fa1, net.c4);
    const UpdateBatch eff_setup = ApplyBatch(net.g, setup);
    IncPCM(net.g, eff_setup, pc);
    ExpectEquivalentPatternCompression(pc, CompressB(net.g));

    UpdateBatch redundant;
    redundant.Delete(net.fa1, net.c4);  // FA1 still has leaf child C1
    const UpdateBatch eff_red = ApplyBatch(net.g, redundant);
    const IncPcmStats stats = IncPCM(net.g, eff_red, pc);
    EXPECT_EQ(stats.reduced_updates, 1u);
    ExpectEquivalentPatternCompression(pc, CompressB(net.g));
  }
}

}  // namespace
}  // namespace qpgc
