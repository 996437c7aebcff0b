// Copyright 2026 The QPGC Authors.

#include "graph/csr.h"

#include <gtest/gtest.h>

#include "gen/random_models.h"
#include "gen/uniform.h"
#include "reach/compress_r.h"

namespace qpgc {
namespace {

TEST(CsrTest, MirrorsAdjacency) {
  Graph g(4);
  g.set_label(2, 9);
  g.AddEdge(0, 1);
  g.AddEdge(0, 3);
  g.AddEdge(2, 0);
  const CsrGraph csr(g);
  EXPECT_EQ(csr.num_nodes(), 4u);
  EXPECT_EQ(csr.num_edges(), 3u);
  EXPECT_EQ(csr.label(2), 9u);
  ASSERT_EQ(csr.OutDegree(0), 2u);
  EXPECT_EQ(csr.OutNeighbors(0)[0], 1u);
  EXPECT_EQ(csr.OutNeighbors(0)[1], 3u);
  ASSERT_EQ(csr.InDegree(0), 1u);
  EXPECT_EQ(csr.InNeighbors(0)[0], 2u);
  EXPECT_EQ(csr.OutDegree(3), 0u);
}

TEST(CsrTest, EmptyGraph) {
  const CsrGraph csr{Graph(0)};
  EXPECT_EQ(csr.num_nodes(), 0u);
  EXPECT_EQ(csr.num_edges(), 0u);
}

TEST(CsrTest, SmallerThanDynamicGraph) {
  const Graph g = GenerateUniform(2000, 10000, 1, 3);
  const CsrGraph csr(g);
  EXPECT_LT(csr.MemoryBytes(), g.MemoryBytes());
}

class CsrBfsAgreement : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsrBfsAgreement, MatchesDynamicBfs) {
  const uint64_t seed = GetParam();
  const Graph g = seed % 2 == 0 ? GenerateUniform(80, 240, 1, seed)
                                : PreferentialAttachment(80, 3, 0.4, seed);
  const CsrGraph csr(g);
  for (NodeId u = 0; u < g.num_nodes(); u += 7) {
    for (NodeId v = 0; v < g.num_nodes(); v += 5) {
      for (PathMode mode : {PathMode::kReflexive, PathMode::kNonEmpty}) {
        EXPECT_EQ(CsrBfsReaches(csr, u, v, mode), BfsReaches(g, u, v, mode))
            << "seed=" << seed << " (" << u << "," << v << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsrBfsAgreement,
                         ::testing::Range<uint64_t>(1, 9));

// "Any algorithm runs on Gr unchanged" includes frozen-view algorithms:
// freeze the compressed graph and serve the rewritten queries from CSR.
TEST(CsrTest, ServesCompressedQueries) {
  const Graph g = PreferentialAttachment(150, 3, 0.5, 11);
  const ReachCompression rc = CompressR(g);
  const CsrGraph& frozen = *rc.gr;
  for (NodeId u = 0; u < g.num_nodes(); u += 11) {
    for (NodeId v = 0; v < g.num_nodes(); v += 13) {
      const bool truth = BfsReaches(g, u, v, PathMode::kReflexive);
      const bool via_csr =
          u == v || CsrBfsReaches(frozen, rc.node_map[u], rc.node_map[v],
                                  PathMode::kNonEmpty);
      EXPECT_EQ(via_csr, truth) << "(" << u << "," << v << ")";
    }
  }
}

}  // namespace
}  // namespace qpgc
