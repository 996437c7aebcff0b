// Copyright 2026 The QPGC Authors.
//
// Differential tests for the GraphView abstraction: every templated batch
// algorithm must produce identical results on the dynamic Graph and on the
// frozen CsrGraph snapshot, across all generator families (including the
// adversarial deep topologies). Also pins the representation contract
// itself (CsrGraph API parity with Graph, ReversedView duality) and the
// memory claim (CSR strictly smaller than vector-of-vectors on the
// generator corpus).

#include "graph/graph_view.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "bisim/kbisim.h"
#include "bisim/paige_tarjan.h"
#include "bisim/partition.h"
#include "bisim/signature_bisim.h"
#include "core/pattern_scheme.h"
#include "gen/adversarial.h"
#include "gen/random_models.h"
#include "gen/uniform.h"
#include "graph/csr.h"
#include "graph/scc.h"
#include "graph/topology.h"
#include "graph/traversal.h"
#include "pattern/match.h"
#include "pattern/pattern_gen.h"
#include "reach/compress_r.h"
#include "reach/equivalence.h"

namespace qpgc {
namespace {

static_assert(GraphView<Graph>);
static_assert(GraphView<CsrGraph>);
static_assert(GraphView<ReversedView<Graph>>);
static_assert(GraphView<ReversedView<CsrGraph>>);
static_assert(GraphView<ReversedView<ReversedView<CsrGraph>>>);

// The historical backward k-bisimulation: copies the graph and calls
// Reverse() before running forward refinement. The oracle of the
// in-edge-driven KBisimulationBackward.
Partition KBisimulationBackwardCopying(const Graph& g, size_t k) {
  Graph reversed = g;
  reversed.Reverse();
  return KBisimulation(reversed, k);
}

// The corpus: one representative of every generator family, labeled where
// the family supports it, sized to keep the whole suite fast. Built once —
// the fixture and the test name generator both index into it repeatedly.
const std::vector<std::pair<std::string, Graph>>& Corpus() {
  static const auto* corpus = [] {
    auto* c = new std::vector<std::pair<std::string, Graph>>();
    c->emplace_back("uniform", GenerateUniform(120, 420, 4, 7));
    {
      Graph g = PreferentialAttachment(150, 3, 0.5, 11);
      AssignZipfLabels(g, 6, 0.8, 12);
      c->emplace_back("preferential", std::move(g));
    }
    c->emplace_back("chain", LongChain(200, 2));
    c->emplace_back("layered", LayeredDag(40, 6, 3, 42));
    c->emplace_back("broom", Broom(60, 80));
    c->emplace_back("grid", DirectedGrid(12, 12));
    c->emplace_back("tree", CompleteBinaryTree(8));
    return c;
  }();
  return *corpus;
}

class ViewDifferential : public ::testing::TestWithParam<size_t> {
 protected:
  ViewDifferential()
      : name_(Corpus()[GetParam()].first),
        g_(Corpus()[GetParam()].second),
        csr_(g_) {}

  const std::string& name_;
  const Graph& g_;
  const CsrGraph csr_;
};

TEST_P(ViewDifferential, CsrMirrorsGraphApi) {
  ASSERT_EQ(csr_.num_nodes(), g_.num_nodes());
  ASSERT_EQ(csr_.num_edges(), g_.num_edges());
  EXPECT_EQ(csr_.size(), g_.size());
  EXPECT_EQ(csr_.labels(), g_.labels());
  EXPECT_EQ(csr_.CountDistinctLabels(), g_.CountDistinctLabels());
  EXPECT_EQ(csr_.EdgeList(), g_.EdgeList());
  for (NodeId u = 0; u < g_.num_nodes(); ++u) {
    ASSERT_EQ(csr_.OutDegree(u), g_.OutDegree(u)) << name_ << " node " << u;
    ASSERT_EQ(csr_.InDegree(u), g_.InDegree(u)) << name_ << " node " << u;
  }
  // HasEdge: every present edge, plus a probe grid of absent ones.
  g_.ForEachEdge([&](NodeId u, NodeId v) { EXPECT_TRUE(csr_.HasEdge(u, v)); });
  for (NodeId u = 0; u < g_.num_nodes(); u += 13) {
    for (NodeId v = 0; v < g_.num_nodes(); v += 7) {
      EXPECT_EQ(csr_.HasEdge(u, v), g_.HasEdge(u, v))
          << name_ << " (" << u << "," << v << ")";
    }
  }
}

TEST_P(ViewDifferential, CsrIsSmallerThanGraph) {
  if (g_.num_edges() == 0) GTEST_SKIP();
  EXPECT_LT(csr_.MemoryBytes(), g_.MemoryBytes()) << name_;
}

TEST_P(ViewDifferential, MaxBisimulationEnginesAgreeAcrossViews) {
  const Partition oracle = SignatureBisimulation(g_);
  EXPECT_TRUE(SamePartition(SignatureBisimulation(csr_), oracle)) << name_;
  EXPECT_TRUE(SamePartition(PaigeTarjanBisimulation(g_), oracle)) << name_;
  EXPECT_TRUE(SamePartition(PaigeTarjanBisimulation(csr_), oracle)) << name_;
}

TEST_P(ViewDifferential, KBisimulationAgreesAcrossViews) {
  for (const size_t k : {size_t{0}, size_t{1}, size_t{2}, size_t{5}}) {
    EXPECT_TRUE(SamePartition(KBisimulation(g_, k), KBisimulation(csr_, k)))
        << name_ << " k=" << k;
    EXPECT_TRUE(SamePartition(KBisimulationBackward(g_, k),
                              KBisimulationBackward(csr_, k)))
        << name_ << " backward k=" << k;
  }
}

TEST_P(ViewDifferential, InEdgeDrivenBackwardMatchesCopyingOracle) {
  for (const size_t k : {size_t{1}, size_t{3}}) {
    EXPECT_TRUE(SamePartition(KBisimulationBackward(g_, k),
                              KBisimulationBackwardCopying(g_, k)))
        << name_ << " k=" << k;
  }
}

TEST_P(ViewDifferential, SccAndRanksAgreeAcrossViews) {
  const SccResult scc_g = ComputeScc(g_);
  const SccResult scc_c = ComputeScc(csr_);
  EXPECT_EQ(scc_g.component, scc_c.component) << name_;
  EXPECT_EQ(scc_g.cyclic, scc_c.cyclic) << name_;
  EXPECT_EQ(scc_g.members, scc_c.members) << name_;

  EXPECT_EQ(ReachTopoRanks(g_), ReachTopoRanks(csr_)) << name_;
}

TEST_P(ViewDifferential, ReachEquivalenceAgreesAcrossViews) {
  const ReachPartition on_graph = ComputeReachEquivalence(g_);
  const ReachPartition on_csr = ComputeReachEquivalence(csr_);
  EXPECT_EQ(on_graph.CanonicalClasses(), on_csr.CanonicalClasses()) << name_;
  EXPECT_EQ(on_graph.cyclic, on_csr.cyclic) << name_;
}

TEST_P(ViewDifferential, CompressionPipelinesAgreeAcrossViews) {
  const ReachCompression rc_graph = CompressR<Graph>(g_);
  const ReachCompression rc_csr = CompressR<CsrGraph>(csr_);
  EXPECT_TRUE(*rc_graph.gr == *rc_csr.gr) << name_;
  EXPECT_EQ(rc_graph.node_map, rc_csr.node_map) << name_;
  EXPECT_EQ(rc_graph.ranks, rc_csr.ranks) << name_;
  // The public Graph entry point freezes CSR internally — same artifact.
  const ReachCompression rc_entry = CompressR(g_);
  EXPECT_TRUE(*rc_entry.gr == *rc_csr.gr) << name_;

  const PatternCompression pc_graph = CompressB<Graph>(g_);
  const PatternCompression pc_csr = CompressB<CsrGraph>(csr_);
  EXPECT_TRUE(*pc_graph.gr == *pc_csr.gr) << name_;
  EXPECT_EQ(pc_graph.node_map, pc_csr.node_map) << name_;
  EXPECT_TRUE(*CompressB(g_).gr == *pc_csr.gr) << name_;
}

TEST_P(ViewDifferential, MatchAgreesAcrossViews) {
  const std::vector<Label> labels = DistinctLabels(g_);
  PatternGenOptions options;
  options.num_nodes = 3;
  options.num_edges = 3;
  options.max_bound = 2;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const PatternQuery q = RandomPattern(labels, options, seed);
    const MatchResult on_graph = Match(g_, q);
    const MatchResult on_csr = Match(csr_, q);
    EXPECT_EQ(on_graph, on_csr) << name_ << " seed=" << seed;
    EXPECT_EQ(BooleanMatch(g_, q), BooleanMatch(csr_, q))
        << name_ << " seed=" << seed;
  }
}

TEST_P(ViewDifferential, TraversalsAgreeAcrossViews) {
  for (NodeId u = 0; u < g_.num_nodes(); u += 17) {
    EXPECT_EQ(BfsDistances(g_, u), BfsDistances(csr_, u)) << name_;
    EXPECT_EQ(OnCycle(g_, u), OnCycle(csr_, u)) << name_;
    for (NodeId v = 0; v < g_.num_nodes(); v += 23) {
      for (const PathMode mode : {PathMode::kReflexive, PathMode::kNonEmpty}) {
        const bool truth = BfsReaches(g_, u, v, mode);
        EXPECT_EQ(BfsReaches(csr_, u, v, mode), truth) << name_;
        EXPECT_EQ(BidirectionalReaches(csr_, u, v, mode), truth) << name_;
        EXPECT_EQ(DfsReaches(csr_, u, v, mode), truth) << name_;
      }
    }
  }
}

TEST_P(ViewDifferential, ReversedViewIsAnInvolution) {
  const ReversedView<CsrGraph> rev(csr_);
  const ReversedView<ReversedView<CsrGraph>> rev2(rev);
  ASSERT_EQ(rev.num_nodes(), csr_.num_nodes());
  EXPECT_EQ(rev.num_edges(), csr_.num_edges());
  for (NodeId u = 0; u < csr_.num_nodes(); ++u) {
    const auto out = csr_.OutNeighbors(u);
    const auto rev_in = rev.InNeighbors(u);
    ASSERT_TRUE(std::equal(out.begin(), out.end(), rev_in.begin(),
                           rev_in.end()))
        << name_ << " node " << u;
    const auto rev2_out = rev2.OutNeighbors(u);
    ASSERT_TRUE(std::equal(out.begin(), out.end(), rev2_out.begin(),
                           rev2_out.end()))
        << name_ << " node " << u;
    EXPECT_EQ(rev.label(u), csr_.label(u));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, ViewDifferential, ::testing::Range<size_t>(0, 7),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return Corpus()[info.param].first;
    });

// Quotients on the reversed view feed AkIndexGraph; pin the whole A(k)
// construction across representations.
TEST(GraphViewTest, AkIndexGraphMatchesGraphPath) {
  Graph g = PreferentialAttachment(120, 3, 0.5, 5);
  AssignZipfLabels(g, 5, 0.7, 6);
  for (const size_t k : {size_t{1}, size_t{2}}) {
    const Graph via_csr = AkIndexGraph(g, k);
    // Oracle: copying backward k-bisim + Graph quotient.
    const Graph oracle =
        QuotientGraph(g, KBisimulationBackwardCopying(g, k));
    EXPECT_EQ(via_csr, oracle) << "k=" << k;
  }
}

// ViewSize / ForEachEdge / ViewHasEdge free functions over both views.
TEST(GraphViewTest, FreeFunctionHelpers) {
  const Graph g = GenerateUniform(40, 120, 2, 3);
  const CsrGraph csr(g);
  EXPECT_EQ(ViewSize(g), g.size());
  EXPECT_EQ(ViewSize(csr), g.size());
  size_t count = 0;
  ForEachEdge(csr, [&](NodeId u, NodeId v) {
    EXPECT_TRUE(ViewHasEdge(csr, u, v));
    EXPECT_TRUE(ViewHasEdge(g, u, v));
    ++count;
  });
  EXPECT_EQ(count, g.num_edges());
}

}  // namespace
}  // namespace qpgc
