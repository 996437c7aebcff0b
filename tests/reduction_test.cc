// Copyright 2026 The QPGC Authors.

#include "graph/reduction.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "gen/uniform.h"
#include "graph/closure.h"
#include "graph/condensation.h"

namespace qpgc {
namespace {

TEST(ReductionTest, RemovesTransitiveEdge) {
  Graph dag(3);
  dag.AddEdge(0, 1);
  dag.AddEdge(1, 2);
  dag.AddEdge(0, 2);  // redundant
  const Graph r = TransitiveReductionDag(CsrGraph(dag));
  EXPECT_EQ(r.num_edges(), 2u);
  EXPECT_TRUE(r.HasEdge(0, 1));
  EXPECT_TRUE(r.HasEdge(1, 2));
  EXPECT_FALSE(r.HasEdge(0, 2));
}

TEST(ReductionTest, DiamondKept) {
  Graph dag(4);
  dag.AddEdge(0, 1);
  dag.AddEdge(0, 2);
  dag.AddEdge(1, 3);
  dag.AddEdge(2, 3);
  const Graph r = TransitiveReductionDag(CsrGraph(dag));
  EXPECT_EQ(r.num_edges(), 4u);  // nothing redundant in a diamond
}

TEST(ReductionTest, SelfLoopsPreserved) {
  Graph dag(2);
  dag.AddEdge(0, 0);
  dag.AddEdge(0, 1);
  const Graph r = TransitiveReductionDag(CsrGraph(dag));
  EXPECT_TRUE(r.HasEdge(0, 0));
  EXPECT_TRUE(r.HasEdge(0, 1));
}

TEST(ReductionTest, SelfLoopNotAWitness) {
  // 0 has a self-loop and an edge to 1; the self-loop must not count as an
  // alternate path 0 -> 1.
  Graph dag(2);
  dag.AddEdge(0, 0);
  dag.AddEdge(0, 1);
  const Graph r = TransitiveReductionDag(CsrGraph(dag));
  EXPECT_TRUE(r.HasEdge(0, 1));
}

TEST(ReductionTest, PreservesClosure) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const Graph g = GenerateUniform(60, 220, 1, seed);
    const CsrGraph dag = BuildCondensation(g).dag;
    const Graph r = TransitiveReductionDag(dag, /*block_cols=*/13);
    const BitMatrix before = FullClosure(dag);
    const BitMatrix after = FullClosure(r);
    for (NodeId u = 0; u < dag.num_nodes(); ++u) {
      for (NodeId v = 0; v < dag.num_nodes(); ++v) {
        EXPECT_EQ(before.Test(u, v), after.Test(u, v)) << "seed " << seed;
      }
    }
  }
}

TEST(ReductionTest, ReductionIsMinimal) {
  // Removing any further edge from the reduction must change the closure.
  const Graph g = GenerateUniform(30, 80, 1, 9);
  const CsrGraph dag = BuildCondensation(g).dag;
  Graph r = TransitiveReductionDag(dag);
  for (const auto& [u, v] : r.EdgeList()) {
    if (u == v) continue;
    Graph pruned = r;
    pruned.RemoveEdge(u, v);
    const BitMatrix c2 = FullClosure(pruned);
    EXPECT_FALSE(c2.Test(u, v)) << "edge (" << u << "," << v
                                << ") was redundant in the reduction";
  }
}

TEST(ReductionTest, BlockedSweepEqualsFullWidth) {
  // Every block width, down to one column, yields the full-width reduction,
  // and the frozen reduction's in-direction lists the TR parents.
  const Graph g = GenerateUniform(70, 200, 1, 8);
  const CsrGraph dag = BuildCondensation(g).dag;
  const CsrGraph reference = ReduceDag(dag, dag.num_nodes());
  for (const size_t block : {1, 7, 17, 64}) {
    const CsrGraph tr = ReduceDag(dag, block);
    for (NodeId u = 0; u < dag.num_nodes(); ++u) {
      EXPECT_TRUE(std::ranges::equal(tr.OutNeighbors(u),
                                     reference.OutNeighbors(u)))
          << "block " << block << " node " << u;
      for (const NodeId p : tr.InNeighbors(u)) {
        EXPECT_TRUE(std::ranges::binary_search(tr.OutNeighbors(p), u));
      }
    }
    EXPECT_EQ(tr.num_edges(), reference.num_edges());
  }
}

TEST(ReductionTest, ReduceDagMatchesClosureDefinition) {
  // (u, v) is a TR edge iff it is an edge and no other child of u reaches v.
  for (uint64_t seed = 11; seed <= 14; ++seed) {
    const CsrGraph dag =
        BuildCondensation(GenerateUniform(50, 180, 1, seed)).dag;
    const BitMatrix closure = FullClosure(dag);
    const CsrGraph tr = ReduceDag(dag, /*block_cols=*/9);
    for (NodeId u = 0; u < dag.num_nodes(); ++u) {
      for (const NodeId v : dag.OutNeighbors(u)) {
        bool redundant = false;
        for (const NodeId w : dag.OutNeighbors(u)) {
          redundant = redundant || (w != v && closure.Test(w, v));
        }
        EXPECT_EQ(std::ranges::binary_search(tr.OutNeighbors(u), v),
                  !redundant)
            << "seed " << seed << " edge (" << u << "," << v << ")";
      }
    }
  }
}

TEST(ReductionTest, EmptyGraph) {
  Graph dag(0);
  const Graph r = TransitiveReductionDag(CsrGraph(dag));
  EXPECT_EQ(r.num_nodes(), 0u);
}

}  // namespace
}  // namespace qpgc
