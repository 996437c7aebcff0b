// Copyright 2026 The QPGC Authors.

#include "index/two_hop.h"

#include <gtest/gtest.h>

#include "gen/random_models.h"
#include "gen/uniform.h"
#include "reach/compress_r.h"
#include "reach/queries.h"

namespace qpgc {
namespace {

TEST(TwoHopTest, ChainQueries) {
  Graph g(5);
  for (NodeId v = 0; v + 1 < 5; ++v) g.AddEdge(v, v + 1);
  const TwoHopIndex idx = TwoHopIndex::Build(g);
  EXPECT_TRUE(idx.Reaches(0, 4));
  EXPECT_TRUE(idx.Reaches(2, 3));
  EXPECT_FALSE(idx.Reaches(4, 0));
  EXPECT_TRUE(idx.Reaches(3, 3, PathMode::kReflexive));
  EXPECT_FALSE(idx.Reaches(3, 3, PathMode::kNonEmpty));
}

TEST(TwoHopTest, CycleQueries) {
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 0);
  g.AddEdge(2, 3);
  const TwoHopIndex idx = TwoHopIndex::Build(g);
  EXPECT_TRUE(idx.Reaches(0, 0, PathMode::kNonEmpty));  // on cycle
  EXPECT_TRUE(idx.Reaches(1, 0));
  EXPECT_TRUE(idx.Reaches(0, 3));
  EXPECT_FALSE(idx.Reaches(3, 0));
}

class TwoHopAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TwoHopAgreementTest, MatchesBfsOnAllPairs) {
  const uint64_t seed = GetParam();
  Graph g;
  switch (seed % 3) {
    case 0:
      g = GenerateUniform(70, 200, 1, seed);
      break;
    case 1:
      g = PreferentialAttachment(70, 3, 0.5, seed);
      break;
    default:
      g = CitationDag(70, 4, 0.5, seed);
      break;
  }
  const TwoHopIndex idx = TwoHopIndex::Build(g);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(idx.Reaches(u, v), BfsReaches(g, u, v, PathMode::kReflexive))
          << "seed=" << seed << " (" << u << "," << v << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TwoHopAgreementTest,
                         ::testing::Range<uint64_t>(1, 10));

// The paper's claim: existing index techniques apply to Gr unchanged. Build
// the 2-hop index ON the compressed graph and answer original queries
// through the node map.
TEST(TwoHopTest, BuildsOnCompressedGraphUnchanged) {
  const Graph g = PreferentialAttachment(150, 3, 0.5, 77);
  const ReachCompression rc = CompressR(g);
  const TwoHopIndex on_g = TwoHopIndex::Build(g);
  const TwoHopIndex on_gr = TwoHopIndex::Build(*rc.gr);
  const auto queries = RandomReachQueries(g.num_nodes(), 400, 78);
  for (const auto& q : queries) {
    const bool truth = on_g.Reaches(q.u, q.v);
    const bool via_gr =
        q.u == q.v ||
        on_gr.Reaches(rc.node_map[q.u], rc.node_map[q.v], PathMode::kNonEmpty);
    EXPECT_EQ(via_gr, truth) << "(" << q.u << "," << q.v << ")";
  }
  // And the index on Gr is smaller — the Fig. 12(d) effect.
  EXPECT_LE(on_gr.MemoryBytes(), on_g.MemoryBytes());
}

TEST(TwoHopTest, LabelEntriesPositive) {
  const Graph g = GenerateUniform(50, 150, 1, 5);
  const TwoHopIndex idx = TwoHopIndex::Build(g);
  EXPECT_GT(idx.LabelEntries(), 0u);
  EXPECT_GT(idx.MemoryBytes(), 0u);
}

}  // namespace
}  // namespace qpgc
