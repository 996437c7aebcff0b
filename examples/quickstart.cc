// Copyright 2026 The QPGC Authors.
//
// Quickstart: build a small labeled graph, compress it for reachability and
// for pattern queries, and evaluate queries on the compressed graphs with
// the same stock algorithms you would run on the original.
//
//   $ ./quickstart

#include <cstdio>

#include "core/pattern_scheme.h"
#include "core/reach_scheme.h"
#include "pattern/match.h"

using namespace qpgc;

int main() {
  // A toy org chart: two managers (label 0) each overseeing two engineers
  // (label 1) who both file reports into the same two archives (label 2).
  Graph g(std::vector<Label>{0, 0, 1, 1, 2, 2});
  g.AddEdge(0, 2);
  g.AddEdge(0, 3);
  g.AddEdge(1, 2);
  g.AddEdge(1, 3);
  g.AddEdge(2, 4);
  g.AddEdge(2, 5);
  g.AddEdge(3, 4);
  g.AddEdge(3, 5);
  std::printf("original:   %s\n", g.DebugString().c_str());

  // --- Reachability preserving compression (Section 3 of the paper) ------
  const ReachabilityPreservingCompression reach(g);
  const CsrGraph& reach_gr = *reach.artifact().gr;
  std::printf("reach Gr:   |V|=%zu, |E|=%zu  (ratio %.1f%%)\n",
              reach_gr.num_nodes(), reach_gr.num_edges(),
              reach.CompressionRatio() * 100);
  // F rewrites QR(0, 5) in O(1); any BFS answers it on Gr.
  std::printf("QR(0, 5) on Gr -> %s\n",
              reach.Answer({0, 5}) ? "true" : "false");
  std::printf("QR(5, 0) on Gr -> %s\n",
              reach.Answer({5, 0}) ? "true" : "false");

  // --- Pattern preserving compression (Section 4) ------------------------
  const PatternCompression pc = CompressB(g);
  std::printf("pattern Gr: |V|=%zu, |E|=%zu, |L|=%zu  (ratio %.1f%%)\n",
              pc.gr->num_nodes(), pc.gr->num_edges(),
              pc.gr->CountDistinctLabels(), pc.CompressionRatio() * 100);

  // Pattern: a manager within 2 hops of an archive.
  PatternQuery q;
  const uint32_t manager = q.AddNode(0);
  const uint32_t archive = q.AddNode(2);
  q.AddEdge(manager, archive, 2);

  // F is the identity; Match runs on Gr unchanged; P expands hypernodes.
  const MatchResult m = MatchOnCompressed(pc, q);
  std::printf("pattern matched: %s; managers = {", m.matched ? "yes" : "no");
  for (NodeId v : m.match_sets[manager]) std::printf(" %u", v);
  std::printf(" }, archives = {");
  for (NodeId v : m.match_sets[archive]) std::printf(" %u", v);
  std::printf(" }\n");
  return 0;
}
