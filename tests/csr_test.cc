// Copyright 2026 The QPGC Authors.

#include "graph/csr.h"

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "gen/random_models.h"
#include "gen/uniform.h"
#include "graph/traversal.h"
#include "pattern/match.h"
#include "pattern/pattern_gen.h"
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
        EXPECT_EQ(BfsReaches(csr, u, v, mode), BfsReaches(g, u, v, mode))
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
          u == v || BfsReaches(frozen, rc.node_map[u], rc.node_map[v],
                               PathMode::kNonEmpty);
      EXPECT_EQ(via_csr, truth) << "(" << u << "," << v << ")";
    }
  }
}

// ---------------------------------------------------------------------------
// The label index: built on the first Match, dropped by every mutator that
// gives the graph new labels.
// ---------------------------------------------------------------------------

TEST(CsrTest, LabelIndexGroupsNodesByLabel) {
  // Dense labels take the counting pass; a range wider than |V| (kNoLabel
  // beside small labels) takes the sorting fallback. Both group ascending.
  for (const std::vector<Label>& labels :
       {std::vector<Label>{2, 0, 2, 1, 0, 2}, std::vector<Label>{},
        std::vector<Label>{7, kNoLabel, 7, 1000000, kNoLabel, 7}}) {
    const CsrGraph csr{Graph(labels)};
    const LabelIndex& index = csr.label_index();
    EXPECT_EQ(&index, &csr.label_index());  // built once
    std::vector<Label> distinct = labels;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    EXPECT_TRUE(std::ranges::equal(index.labels(), distinct));
    for (const Label l : distinct) {
      std::vector<NodeId> want;
      for (NodeId v = 0; v < labels.size(); ++v) {
        if (labels[v] == l) want.push_back(v);
      }
      EXPECT_TRUE(std::ranges::equal(index.Nodes(l), want)) << "label " << l;
    }
    EXPECT_TRUE(index.Nodes(3).empty());
  }
}

TEST(CsrTest, MemoryBytesCountsTheLabelIndexOnceBuilt) {
  const Graph g = GenerateUniform(200, 600, 5, 21);
  const CsrGraph csr(g);
  const size_t unindexed = csr.MemoryBytes();
  const LabelIndex& index = csr.label_index();
  // 4 bytes per node plus 8 per distinct label (and the offsets' end).
  ASSERT_EQ(index.labels().size(), 5u);
  EXPECT_EQ(index.MemoryBytes(), 4 * g.num_nodes() + 8 * 5 + 4);
  EXPECT_EQ(csr.MemoryBytes(), unindexed + index.MemoryBytes());
  const CsrGraph copy(csr);  // a copy starts without an index
  EXPECT_EQ(copy.MemoryBytes(), unindexed);
}

// g's topology with every label moved to the next of `num_labels`, so the
// same node ids answer a pattern differently: an index kept across the
// relabel shows up as a wrong Match.
Graph Relabeled(const Graph& g, Label num_labels) {
  Graph out = g;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    out.set_label(v, (g.label(v) + 1) % num_labels);
  }
  return out;
}

// Every test pattern matches on `csr` as on a fresh freeze of `truth`.
void ExpectMatchesFreshFreeze(const CsrGraph& csr, const Graph& truth) {
  const CsrGraph fresh(truth);
  PatternGenOptions options;
  options.num_nodes = 3;
  options.num_edges = 3;
  options.max_bound = 2;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    const PatternQuery q = RandomPattern(DistinctLabels(truth), options, seed);
    const MatchResult want = Match(fresh, q);
    EXPECT_EQ(Match(csr, q), want) << "pattern seed " << seed;
    EXPECT_EQ(match_detail::LabelCandidates(csr, q),
              match_detail::LabelCandidates(fresh, q));
  }
}

constexpr Label kTestLabels = 4;

Graph LabeledTestGraph() { return GenerateUniform(80, 240, kTestLabels, 31); }

// Builds `csr`'s index by matching on it.
void WarmIndex(const CsrGraph& csr) {
  PatternQuery q;
  q.AddNode(0);
  (void)Match(csr, q);
}

TEST(CsrTest, AdoptCsrDropsTheLabelIndex) {
  const Graph g = LabeledTestGraph();
  const Graph relabeled = Relabeled(g, kTestLabels);
  CsrGraph csr(g);
  WarmIndex(csr);
  const CsrGraph source(relabeled);
  csr.AdoptCsr({source.out_offsets().begin(), source.out_offsets().end()},
               {source.out_targets().begin(), source.out_targets().end()},
               source.labels());
  ExpectMatchesFreshFreeze(csr, relabeled);
}

TEST(CsrTest, RefreezeMappedDropsTheLabelIndex) {
  const Graph g = LabeledTestGraph();
  const Graph relabeled = Relabeled(g, kTestLabels);
  CsrGraph csr(g);
  WarmIndex(csr);
  std::vector<NodeId> identity(relabeled.num_nodes());
  std::iota(identity.begin(), identity.end(), NodeId{0});
  csr.RefreezeMapped(relabeled, identity, relabeled.num_nodes());
  ExpectMatchesFreshFreeze(csr, relabeled);
}

TEST(CsrTest, CopyAssignmentDropsTheLabelIndex) {
  const Graph g = LabeledTestGraph();
  const Graph relabeled = Relabeled(g, kTestLabels);
  CsrGraph csr(g);
  WarmIndex(csr);
  const CsrGraph source(relabeled);
  csr = source;
  ExpectMatchesFreshFreeze(csr, relabeled);
}

TEST(CsrTest, MoveCarriesTheLabelIndexWithItsArrays) {
  const Graph g = LabeledTestGraph();
  const Graph relabeled = Relabeled(g, kTestLabels);
  CsrGraph source(relabeled);
  WarmIndex(source);
  const LabelIndex* index = &source.label_index();
  CsrGraph moved(std::move(source));
  EXPECT_EQ(&moved.label_index(), index);
  CsrGraph assigned(g);
  WarmIndex(assigned);
  assigned = std::move(moved);
  EXPECT_EQ(&assigned.label_index(), index);
  ExpectMatchesFreshFreeze(assigned, relabeled);
}

}  // namespace
}  // namespace qpgc
