// Copyright 2026 The QPGC Authors.

#include "reach/equivalence.h"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "gen/random_models.h"
#include "gen/uniform.h"

namespace qpgc {
namespace {

TEST(EquivalenceTest, ParallelSiblingsMerge) {
  // 0 -> {2,3}, 1 -> {2,3}: nodes 0 and 1 share ancestors (none) and
  // descendants {2,3} — equivalent. 2 and 3 share ancestors {0,1} and
  // descendants (none) — equivalent.
  Graph g(4);
  g.AddEdge(0, 2);
  g.AddEdge(0, 3);
  g.AddEdge(1, 2);
  g.AddEdge(1, 3);
  const ReachPartition p = ComputeReachEquivalence(g);
  EXPECT_EQ(p.num_classes, 2u);
  EXPECT_EQ(p.class_of[0], p.class_of[1]);
  EXPECT_EQ(p.class_of[2], p.class_of[3]);
  EXPECT_NE(p.class_of[0], p.class_of[2]);
}

TEST(EquivalenceTest, DifferentDescendantsSeparate) {
  // 0 -> 2, 1 -> 3: desc differ.
  Graph g(4);
  g.AddEdge(0, 2);
  g.AddEdge(1, 3);
  const ReachPartition p = ComputeReachEquivalence(g);
  EXPECT_NE(p.class_of[0], p.class_of[1]);
}

TEST(EquivalenceTest, CyclicClassIsItsScc) {
  // Cycle {0,1} and a sibling trivial node 2 with the same DAG profile:
  // 3 -> {0, 2}, {0,1,2} -> 4. The cyclic pair must NOT merge with node 2
  // (members of a cyclic class reach themselves; 2 does not).
  Graph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);
  g.AddEdge(3, 0);
  g.AddEdge(3, 2);
  g.AddEdge(0, 4);
  g.AddEdge(2, 4);
  const ReachPartition p = ComputeReachEquivalence(g);
  EXPECT_EQ(p.class_of[0], p.class_of[1]);  // same SCC
  EXPECT_NE(p.class_of[0], p.class_of[2]);  // cyclic guard separates
  EXPECT_TRUE(p.cyclic[p.class_of[0]]);
  EXPECT_FALSE(p.cyclic[p.class_of[2]]);
}

TEST(EquivalenceTest, CyclicNodeNeverJoinsAcyclicTwin) {
  // Node 1 (a self-loop) and node 2 have the same TR parent 0 and TR child
  // 3, but only 1 reaches itself.
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 1);
  g.AddEdge(1, 3);
  g.AddEdge(2, 3);
  const ReachPartition p = ComputeReachEquivalence(g);
  EXPECT_NE(p.class_of[1], p.class_of[2]);
  EXPECT_TRUE(p.cyclic[p.class_of[1]]);
  EXPECT_FALSE(p.cyclic[p.class_of[2]]);
  EXPECT_EQ(p.CanonicalClasses(),
            ComputeReachEquivalenceRef(g).CanonicalClasses());
}

TEST(EquivalenceTest, CyclicSccsWithSameTrNeighborsStayApart) {
  // Cycles {1,2} and {3,4} both sit between 0 and 5, and the self-loops 6
  // and 7 both sit between 0 and 5 as well: four SCCs with the same TR
  // parent and child, none of which reaches another.
  Graph g(8);
  for (const auto& [u, v] : std::vector<std::pair<NodeId, NodeId>>{
           {1, 2}, {2, 1}, {3, 4}, {4, 3}, {6, 6}, {7, 7}}) {
    g.AddEdge(u, v);
  }
  for (const NodeId s : {1, 3, 6, 7}) g.AddEdge(0, s);
  for (const NodeId t : {2, 4, 6, 7}) g.AddEdge(t, 5);
  const ReachPartition p = ComputeReachEquivalence(g);
  EXPECT_EQ(p.class_of[1], p.class_of[2]);
  EXPECT_EQ(p.class_of[3], p.class_of[4]);
  EXPECT_NE(p.class_of[1], p.class_of[3]);
  EXPECT_NE(p.class_of[6], p.class_of[7]);
  EXPECT_NE(p.class_of[1], p.class_of[6]);
  EXPECT_EQ(p.num_classes, 6u);
  EXPECT_EQ(p.CanonicalClasses(),
            ComputeReachEquivalenceRef(g).CanonicalClasses());
}

TEST(EquivalenceTest, IsolatedNodesMerge) {
  Graph g(3);
  g.AddEdge(0, 1);
  // Nodes 2 is isolated; node 1 is a sink with ancestor {0} — not equal.
  const ReachPartition p = ComputeReachEquivalence(g);
  EXPECT_NE(p.class_of[1], p.class_of[2]);
  Graph h(3);  // all isolated: one class
  const ReachPartition q = ComputeReachEquivalence(h);
  EXPECT_EQ(q.num_classes, 1u);
}

TEST(EquivalenceTest, MembersConsistentWithClassOf) {
  const Graph g = GenerateUniform(100, 300, 1, 3);
  const ReachPartition p = ComputeReachEquivalence(g);
  size_t total = 0;
  for (NodeId c = 0; c < p.num_classes; ++c) {
    total += p.members[c].size();
    for (NodeId v : p.members[c]) EXPECT_EQ(p.class_of[v], c);
  }
  EXPECT_EQ(total, g.num_nodes());
}

// The TR-twin grouping must agree exactly with the paper's per-node BFS
// reference, across generator families and block widths.
class EquivalenceAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EquivalenceAgreementTest, BlockedMatchesReference) {
  const uint64_t seed = GetParam();
  Graph g;
  switch (seed % 4) {
    case 0:
      g = GenerateUniform(120, 420, 1, seed);
      break;
    case 1:
      g = PreferentialAttachment(120, 3, 0.5, seed);
      break;
    case 2:
      g = CitationDag(120, 4, 0.5, seed);
      break;
    default:
      g = LayeredRandom(120, 5, 3, 0.1, seed);
      break;
  }
  const ReachPartition ref = ComputeReachEquivalenceRef(g);
  for (const size_t block_cols : {1, 7, 19}) {
    const ReachPartition fast = ComputeReachEquivalence(g, block_cols);
    EXPECT_EQ(fast.CanonicalClasses(), ref.CanonicalClasses())
        << "seed=" << seed << " block_cols=" << block_cols;
    // Cyclic flags must agree per class.
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(fast.cyclic[fast.class_of[v]], ref.cyclic[ref.class_of[v]]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivalenceAgreementTest,
                         ::testing::Range<uint64_t>(1, 49));

// Small random graphs of every density, each at a random block width: the
// shapes where twins, cycles and shortcuts collide most often.
TEST(EquivalenceTest, RandomSmallGraphsMatchReference) {
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    const size_t n = 8 + seed % 53;
    const Graph g = GenerateUniform(n, n + (seed * 7) % (3 * n), 1, seed);
    const ReachPartition ref = ComputeReachEquivalenceRef(g);
    const ReachPartition fast =
        ComputeReachEquivalence(g, /*block_cols=*/1 + seed % 17);
    ASSERT_EQ(fast.CanonicalClasses(), ref.CanonicalClasses())
        << "seed=" << seed;
  }
}

TEST(EquivalenceTest, EmptyGraph) {
  Graph g(0);
  const ReachPartition p = ComputeReachEquivalence(g);
  EXPECT_EQ(p.num_classes, 0u);
}

}  // namespace
}  // namespace qpgc
