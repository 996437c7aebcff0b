// Copyright 2026 The QPGC Authors.
//
// Property suite for Theorem 4: Qp(G) = P(Qp(Gr)) for random graphs and
// random bounded-simulation patterns, across generator families, label
// alphabet sizes, bounds and '*' edges.

#include <gtest/gtest.h>

#include "core/pattern_scheme.h"
#include "gen/random_models.h"
#include "gen/uniform.h"
#include "graph/traversal.h"
#include "pattern/match.h"
#include "pattern/pattern_gen.h"

namespace qpgc {
namespace {

Graph MakeGraph(int family, uint64_t seed, size_t num_labels) {
  Graph g;
  switch (family) {
    case 0:
      g = GenerateUniform(90, 280, num_labels, seed);
      return g;
    case 1:
      g = PreferentialAttachment(90, 3, 0.5, seed);
      break;
    case 2:
      g = CopyingModel(90, 4, 0.6, seed);
      break;
    default:
      g = CitationDag(90, 4, 0.5, seed);
      break;
  }
  AssignZipfLabels(g, num_labels, 0.8, seed ^ 0x77);
  return g;
}

class PatternPreservationProperty
    : public ::testing::TestWithParam<std::tuple<int, uint64_t, int>> {};

TEST_P(PatternPreservationProperty, MatchPreserved) {
  const auto [family, seed, num_labels] = GetParam();
  const Graph g = MakeGraph(family, seed, static_cast<size_t>(num_labels));
  const PatternCompression pc = CompressB(g);
  EXPECT_LE(pc.size(), g.size());

  const std::vector<Label> labels = DistinctLabels(g);
  for (uint64_t pattern_seed = 0; pattern_seed < 6; ++pattern_seed) {
    PatternGenOptions options;
    options.num_nodes = 2 + pattern_seed % 3;
    options.num_edges = options.num_nodes + pattern_seed % 2;
    options.max_bound = 3;
    options.star_probability = pattern_seed % 3 == 0 ? 0.3 : 0.0;
    const PatternQuery q = RandomPattern(labels, options, pattern_seed + seed);

    const MatchResult direct = Match(g, q);
    const MatchResult via_gr = MatchOnCompressed(pc, q);
    EXPECT_EQ(direct.matched, via_gr.matched)
        << "family=" << family << " seed=" << seed
        << " pattern_seed=" << pattern_seed;
    EXPECT_EQ(direct.match_sets, via_gr.match_sets)
        << "family=" << family << " seed=" << seed
        << " pattern_seed=" << pattern_seed << " " << q.DebugString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesSeedsLabels, PatternPreservationProperty,
    ::testing::Combine(::testing::Range(0, 4),
                       ::testing::Values<uint64_t>(1, 2),
                       ::testing::Values(1, 3, 8)));

// Graph simulation (all bounds 1) is the special case [12]; check it
// explicitly since compressB's claim covers it.
TEST(PatternPreservationProperty, GraphSimulationSpecialCase) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Graph g = PreferentialAttachment(100, 3, 0.4, seed);
    AssignZipfLabels(g, 4, 0.8, seed);
    const PatternCompression pc = CompressB(g);
    PatternGenOptions options;
    options.num_nodes = 3;
    options.num_edges = 4;
    options.max_bound = 1;  // simulation
    const PatternQuery q = RandomPattern(DistinctLabels(g), options, seed);
    ASSERT_TRUE(q.IsSimulationPattern());
    EXPECT_EQ(Match(g, q).match_sets, MatchOnCompressed(pc, q).match_sets)
        << "seed=" << seed;
  }
}

// The post-processing function P is linear in the answer: the expanded
// match has exactly the members of the matched blocks.
TEST(PatternPreservationProperty, ExpansionIsExactUnion) {
  Graph g = GenerateUniform(80, 240, 3, 17);
  const PatternCompression pc = CompressB(g);
  PatternQuery q;
  const uint32_t a = q.AddNode(g.label(0));
  (void)a;
  const MatchResult on_gr = Match(*pc.gr, q);
  const MatchResult expanded = ExpandMatch(pc, on_gr);
  size_t expected = 0;
  for (NodeId blk : on_gr.match_sets[0]) expected += pc.members[blk].size();
  EXPECT_EQ(expanded.match_sets[0].size(), expected);
}

// The distance fact behind Theorem 4's bounded-path preservation (the
// paper's correctness argument: "for each node w in [v] there is a node
// w' in [v'] ... such that len(rho) = len(rho')"): the shortest non-empty
// path from a node u to the nearest member of a block B depends only on
// u's block, and equals the shortest path between the blocks in Gr.
TEST(PatternPreservationProperty, BlockDistancesPreserved) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Graph g = PreferentialAttachment(70, 3, 0.4, seed);
    AssignZipfLabels(g, 3, 0.8, seed);
    const PatternCompression pc = CompressB(g);
    const size_t nb = pc.gr->num_nodes();

    // Node-level: shortest non-empty path from v to any member of block b.
    const auto node_dist_to_block = [&](NodeId v, NodeId b) -> uint32_t {
      std::vector<uint32_t> dist(g.num_nodes(), kUnreachedDist);
      std::vector<NodeId> queue;
      for (NodeId w : g.OutNeighbors(v)) {
        if (dist[w] == kUnreachedDist) {
          dist[w] = 1;
          queue.push_back(w);
        }
      }
      uint32_t best = kUnreachedDist;
      for (size_t i = 0; i < queue.size(); ++i) {
        const NodeId x = queue[i];
        if (pc.node_map[x] == b) {
          best = std::min(best, dist[x]);
          continue;  // no shorter path extends beyond a hit
        }
        for (NodeId w : g.OutNeighbors(x)) {
          if (dist[w] == kUnreachedDist) {
            dist[w] = dist[x] + 1;
            queue.push_back(w);
          }
        }
      }
      return best;
    };

    for (NodeId a = 0; a < nb; a += 3) {
      // Block-level distances from a on Gr.
      const auto gr_dist = [&](NodeId b) -> uint32_t {
        std::vector<uint32_t> dist(nb, kUnreachedDist);
        std::vector<NodeId> queue;
        for (NodeId w : pc.gr->OutNeighbors(a)) {
          if (dist[w] == kUnreachedDist) {
            dist[w] = 1;
            queue.push_back(w);
          }
        }
        for (size_t i = 0; i < queue.size(); ++i) {
          for (NodeId w : pc.gr->OutNeighbors(queue[i])) {
            if (dist[w] == kUnreachedDist) {
              dist[w] = dist[queue[i]] + 1;
              queue.push_back(w);
            }
          }
        }
        return dist[b];
      };
      for (NodeId b = 0; b < nb; b += 4) {
        const uint32_t expected = gr_dist(b);
        for (NodeId member : pc.members[a]) {
          EXPECT_EQ(node_dist_to_block(member, b), expected)
              << "seed=" << seed << " member " << member << " of block " << a
              << " to block " << b;
        }
      }
    }
  }
}

// Single-label graphs (the paper's P2P case, |L| = 1) still work: bisim
// reduces to pure structure.
TEST(PatternPreservationProperty, SingleLabelGraphs) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const Graph g = LayeredRandom(100, 6, 3, 0.1, seed);  // all kNoLabel
    const PatternCompression pc = CompressB(g);
    PatternQuery q;
    const uint32_t x = q.AddNode(kNoLabel);
    const uint32_t y = q.AddNode(kNoLabel);
    q.AddEdge(x, y, 2);
    EXPECT_EQ(Match(g, q).match_sets, MatchOnCompressed(pc, q).match_sets);
  }
}

}  // namespace
}  // namespace qpgc
