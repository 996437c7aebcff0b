// Copyright 2026 The QPGC Authors.

#include "graph/topology.h"

#include <gtest/gtest.h>

#include "gen/uniform.h"
#include "reach/equivalence.h"

namespace qpgc {
namespace {

TEST(TopologyTest, TopologicalOrderRespectsEdges) {
  Graph g(5);
  g.AddEdge(0, 2);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 4);
  const auto order = TopologicalOrder(g);
  std::vector<size_t> pos(5);
  for (size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  g.ForEachEdge([&](NodeId u, NodeId v) { EXPECT_LT(pos[u], pos[v]); });
}

TEST(TopologyTest, SelfLoopsTolerated) {
  Graph g(3);
  g.AddEdge(0, 0);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  const auto order = TopologicalOrder(g);
  EXPECT_EQ(order.size(), 3u);
}

TEST(TopologyTest, ReverseTopoIsReversed) {
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  const auto fwd = TopologicalOrder(g);
  auto rev = ReverseTopologicalOrder(g);
  std::reverse(rev.begin(), rev.end());
  EXPECT_EQ(fwd, rev);
}

TEST(TopologyTest, ReachTopoRanksChain) {
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  const auto r = ReachTopoRanks(g);
  EXPECT_EQ(r[3], 0u);
  EXPECT_EQ(r[2], 1u);
  EXPECT_EQ(r[1], 2u);
  EXPECT_EQ(r[0], 3u);
}

TEST(TopologyTest, SccMembersShareRank) {
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  const auto r = ReachTopoRanks(g);
  EXPECT_EQ(r[0], r[1]);
  EXPECT_GT(r[0], r[2]);
}

// Lemma 7: (u, v) in Re implies r(u) = r(v) — on random graphs.
TEST(TopologyTest, Lemma7RankInvariantOnRandomGraphs) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const Graph g = GenerateUniform(120, 400, 1, seed);
    const auto ranks = ReachTopoRanks(g);
    const ReachPartition part = ComputeReachEquivalenceRef(g);
    for (const auto& cls : part.members) {
      for (size_t i = 1; i < cls.size(); ++i) {
        EXPECT_EQ(ranks[cls[i]], ranks[cls[0]])
            << "Lemma 7 violated, seed " << seed;
      }
    }
  }
}

}  // namespace
}  // namespace qpgc
