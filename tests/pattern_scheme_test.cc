// Copyright 2026 The QPGC Authors.

#include "core/pattern_scheme.h"

#include <gtest/gtest.h>

#include "bisim/signature_bisim.h"
#include "gen/uniform.h"
#include "pattern/pattern_gen.h"

namespace qpgc {
namespace {

TEST(CompressBTest, QuotientKeepsLabels) {
  Graph g(std::vector<Label>{1, 2, 2});
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  const PatternCompression pc = CompressB(g);
  EXPECT_EQ(pc.gr->num_nodes(), 2u);
  const NodeId root_block = pc.node_map[0];
  const NodeId leaf_block = pc.node_map[1];
  EXPECT_EQ(pc.gr->label(root_block), 1u);
  EXPECT_EQ(pc.gr->label(leaf_block), 2u);
  EXPECT_TRUE(pc.gr->HasEdge(root_block, leaf_block));
}

TEST(CompressBTest, SizeNeverGrows) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const Graph g = GenerateUniform(100, 350, 4, seed);
    const PatternCompression pc = CompressB(g);
    EXPECT_LE(pc.size(), g.size());
    EXPECT_LE(pc.CompressionRatio(), 1.0);
  }
}

TEST(CompressBTest, MembersAndNodeMapConsistent) {
  const Graph g = GenerateUniform(120, 400, 3, 7);
  const PatternCompression pc = CompressB(g);
  size_t total = 0;
  for (NodeId c = 0; c < pc.gr->num_nodes(); ++c) {
    total += pc.members[c].size();
    for (NodeId v : pc.members[c]) {
      EXPECT_EQ(pc.node_map[v], c);
      EXPECT_EQ(g.label(v), pc.gr->label(c));  // label-uniform blocks
    }
  }
  EXPECT_EQ(total, g.num_nodes());
}

TEST(CompressBTest, QuotientIsStable) {
  // Every member of block B must have a successor in each successor block
  // of B — the stability property everything else relies on.
  const Graph g = GenerateUniform(100, 300, 3, 9);
  const PatternCompression pc = CompressB(g);
  for (NodeId b = 0; b < pc.gr->num_nodes(); ++b) {
    for (NodeId d : pc.gr->OutNeighbors(b)) {
      for (NodeId v : pc.members[b]) {
        bool has_child_in_d = false;
        for (NodeId w : g.OutNeighbors(v)) {
          if (pc.node_map[w] == d) {
            has_child_in_d = true;
            break;
          }
        }
        EXPECT_TRUE(has_child_in_d)
            << "block " << b << " member " << v << " lacks a child in " << d;
      }
    }
  }
}

TEST(CompressBTest, EveryEngineGivesSameCompression) {
  // CompressB (Paige–Tarjan) against the quotient of the signature oracle.
  const Graph g = GenerateUniform(90, 280, 3, 11);
  const PatternCompression a = CompressB(g);
  const PatternCompression c =
      CompressBFromPartition(g, SignatureBisimulation(g));
  // Both partitions are normalized (blocks numbered by first member), so
  // equal partitions give equal node maps.
  EXPECT_EQ(a.node_map, c.node_map);
  EXPECT_EQ(a.gr->num_nodes(), c.gr->num_nodes());
  EXPECT_EQ(a.gr->num_edges(), c.gr->num_edges());
}

TEST(ExpandMatchTest, ReplacesBlocksByMembers) {
  Graph g(std::vector<Label>{1, 2, 2});
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  const PatternCompression pc = CompressB(g);
  PatternQuery q;
  const uint32_t a = q.AddNode(1);
  const uint32_t b = q.AddNode(2);
  q.AddEdge(a, b, 1);
  const MatchResult on_gr = Match(*pc.gr, q);
  const MatchResult expanded = ExpandMatch(pc, on_gr);
  ASSERT_TRUE(expanded.matched);
  EXPECT_EQ(expanded.match_sets[a], (std::vector<NodeId>{0}));
  EXPECT_EQ(expanded.match_sets[b], (std::vector<NodeId>{1, 2}));
}

TEST(ExpandMatchTest, EmptyAnswerStaysEmpty) {
  Graph g(std::vector<Label>{1});
  const PatternCompression pc = CompressB(g);
  PatternQuery q;
  q.AddNode(99);
  const MatchResult m = MatchOnCompressed(pc, q);
  EXPECT_FALSE(m.matched);
  EXPECT_TRUE(m.match_sets[0].empty());
}

TEST(BooleanMatchTest, NoPostProcessingNeeded) {
  const Graph g = GenerateUniform(80, 250, 3, 13);
  const PatternCompression pc = CompressB(g);
  const std::vector<Label> labels = DistinctLabels(g);
  for (uint64_t seed = 0; seed < 10; ++seed) {
    PatternGenOptions options;
    options.num_nodes = 3;
    options.num_edges = 3;
    const PatternQuery q = RandomPattern(labels, options, seed);
    EXPECT_EQ(BooleanMatchOnCompressed(pc, q), BooleanMatch(g, q))
        << "seed=" << seed;
  }
}

}  // namespace
}  // namespace qpgc
