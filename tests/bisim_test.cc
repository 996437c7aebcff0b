// Copyright 2026 The QPGC Authors.

#include <gtest/gtest.h>

#include "bisim/signature_bisim.h"
#include "gen/uniform.h"

namespace qpgc {
namespace {

TEST(BisimTest, LeavesWithSameLabelMerge) {
  Graph g(std::vector<Label>{1, 2, 2, 2});
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(0, 3);
  const Partition p = SignatureBisimulation(g);
  EXPECT_EQ(p.block_of[1], p.block_of[2]);
  EXPECT_EQ(p.block_of[2], p.block_of[3]);
  EXPECT_NE(p.block_of[0], p.block_of[1]);
  EXPECT_EQ(p.num_blocks, 2u);
}

TEST(BisimTest, DifferentLabelsNeverMerge) {
  Graph g(std::vector<Label>{1, 2});
  const Partition p = SignatureBisimulation(g);
  EXPECT_EQ(p.num_blocks, 2u);
}

TEST(BisimTest, StructureSeparates) {
  // Same label everywhere; 0 -> 2, 1 has no child: 0 and 1 not bisimilar.
  Graph g(std::vector<Label>{1, 1, 1});
  g.AddEdge(0, 2);
  const Partition p = SignatureBisimulation(g);
  EXPECT_NE(p.block_of[0], p.block_of[1]);
  EXPECT_EQ(p.block_of[1], p.block_of[2]);  // both leaves, same label
}

TEST(BisimTest, SingleCycleAllBisimilar) {
  // a -> b -> a, same labels: maximum bisimulation merges both.
  Graph g(std::vector<Label>{1, 1});
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);
  const Partition p = SignatureBisimulation(g);
  EXPECT_EQ(p.num_blocks, 1u);
}

TEST(BisimTest, TwoDisjointCyclesMerge) {
  // Two disjoint 2-cycles, same label: all four nodes bisimilar. This is
  // the case naive sig-merge heuristics miss.
  Graph g(std::vector<Label>{1, 1, 1, 1});
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);
  g.AddEdge(2, 3);
  g.AddEdge(3, 2);
  EXPECT_EQ(SignatureBisimulation(g).num_blocks, 1u);
}

TEST(BisimTest, CycleVsLeafNotBisimilar) {
  Graph g(std::vector<Label>{1, 1, 1});
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);
  // node 2: leaf with same label
  const Partition p = SignatureBisimulation(g);
  EXPECT_NE(p.block_of[0], p.block_of[2]);
}

TEST(BisimTest, ResultIsStable) {
  const Graph g = GenerateUniform(150, 450, 4, 31);
  const Partition p = SignatureBisimulation(g);
  EXPECT_TRUE(IsStableBisimulationPartition(g, p));
}

TEST(BisimTest, ResultIsCoarsestAmongTested) {
  // Any stable label-respecting partition refines the maximum bisimulation.
  const Graph g = GenerateUniform(80, 200, 3, 37);
  const Partition max = SignatureBisimulation(g);
  // The identity partition is stable; it must refine the maximum.
  Partition identity;
  identity.block_of.resize(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) identity.block_of[v] = v;
  identity.num_blocks = g.num_nodes();
  EXPECT_TRUE(Refines(identity, max));
}

TEST(BisimTest, EmptyGraph) {
  Graph g(0);
  EXPECT_EQ(SignatureBisimulation(g).num_blocks, 0u);
}

}  // namespace
}  // namespace qpgc
