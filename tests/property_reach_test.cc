// Copyright 2026 The QPGC Authors.
//
// Property suite for Theorem 2: for every graph family, every seed, every
// path mode and every stock algorithm, QR(u, v) on G equals the rewritten
// query on Gr. This is the end-to-end guarantee everything else serves.

#include <gtest/gtest.h>

#include "gen/dataset_catalog.h"
#include "gen/random_models.h"
#include "gen/uniform.h"
#include "reach/compress_r.h"
#include "reach/queries.h"

namespace qpgc {
namespace {

struct Family {
  const char* name;
  Graph (*make)(uint64_t seed);
};

Graph MakeUniform(uint64_t s) { return GenerateUniform(100, 300, 1, s); }
Graph MakeDense(uint64_t s) { return GenerateUniform(60, 600, 1, s); }
Graph MakeSparse(uint64_t s) { return GenerateUniform(150, 150, 1, s); }
Graph MakeSocial(uint64_t s) { return PreferentialAttachment(120, 3, 0.5, s); }
Graph MakeWeb(uint64_t s) { return CopyingModel(120, 4, 0.6, s); }
Graph MakeCite(uint64_t s) { return CitationDag(120, 4, 0.5, s); }
Graph MakeP2P(uint64_t s) { return LayeredRandom(120, 6, 3, 0.1, s); }

const Family kFamilies[] = {
    {"uniform", MakeUniform}, {"dense", MakeDense}, {"sparse", MakeSparse},
    {"social", MakeSocial},   {"web", MakeWeb},     {"citation", MakeCite},
    {"p2p", MakeP2P},
};

class ReachPreservationProperty
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(ReachPreservationProperty, QueryAnswersPreserved) {
  const auto [family_idx, seed] = GetParam();
  const Family& family = kFamilies[family_idx];
  const Graph g = family.make(seed);
  const ReachCompression rc = CompressR(g);
  EXPECT_LE(rc.size(), g.size()) << family.name;

  const auto queries = RandomReachQueries(g.num_nodes(), 120, seed * 31 + 7);
  for (const auto& q : queries) {
    for (const PathMode mode : {PathMode::kReflexive, PathMode::kNonEmpty}) {
      const bool truth = EvalReach(g, q.u, q.v, mode, ReachAlgorithm::kBfs);
      EXPECT_EQ(AnswerOnCompressed(rc, q, mode, ReachAlgorithm::kBfs), truth)
          << family.name << " seed=" << seed << " (" << q.u << "," << q.v
          << ") mode=" << static_cast<int>(mode);
    }
    // Algorithm independence on Gr (BiBFS and DFS run unchanged).
    const bool bfs = AnswerOnCompressed(rc, q, PathMode::kReflexive,
                                        ReachAlgorithm::kBfs);
    EXPECT_EQ(AnswerOnCompressed(rc, q, PathMode::kReflexive,
                                 ReachAlgorithm::kBiBfs),
              bfs);
    EXPECT_EQ(AnswerOnCompressed(rc, q, PathMode::kReflexive,
                                 ReachAlgorithm::kDfs),
              bfs);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndSeeds, ReachPreservationProperty,
    ::testing::Combine(::testing::Range(0, 7),
                       ::testing::Values<uint64_t>(1, 2, 3)));

// Self-query correctness on every node: the diagonal is where naive
// quotient constructions go wrong.
TEST(ReachPreservationProperty, DiagonalExhaustive) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const Graph g = PreferentialAttachment(80, 3, 0.5, seed);
    const ReachCompression rc = CompressR(g);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const ReachQuery q{v, v};
      EXPECT_TRUE(AnswerOnCompressed(rc, q, PathMode::kReflexive,
                                     ReachAlgorithm::kBfs));
      EXPECT_EQ(AnswerOnCompressed(rc, q, PathMode::kNonEmpty,
                                   ReachAlgorithm::kBfs),
                EvalReach(g, v, v, PathMode::kNonEmpty, ReachAlgorithm::kBfs))
          << "node " << v;
    }
  }
}

// Compression never grows and the quotient is consistent with the class
// structure theorem: every cyclic class is exactly one SCC.
TEST(ReachPreservationProperty, CyclicClassesAreSccs) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const Graph g = GenerateUniform(120, 500, 1, seed);
    const ReachCompression rc = CompressR(g);
    for (NodeId c = 0; c < rc.gr->num_nodes(); ++c) {
      if (!rc.cyclic[c]) continue;
      // All members mutually reachable.
      const NodeId rep = rc.members[c][0];
      for (NodeId v : rc.members[c]) {
        EXPECT_TRUE(BfsReaches(g, rep, v, PathMode::kNonEmpty));
        EXPECT_TRUE(BfsReaches(g, v, rep, PathMode::kNonEmpty));
      }
    }
  }
}

// Dataset-catalog smoke property: compression works on every stand-in and
// achieves a real reduction on social families.
TEST(ReachPreservationProperty, CatalogCompresses) {
  for (const auto& spec : ReachabilityDatasets()) {
    if (spec.num_nodes > 10000) continue;  // keep unit tests fast
    const Graph g = MakeDataset(spec);
    const ReachCompression rc = CompressR(g);
    EXPECT_LE(rc.size(), g.size()) << spec.name;
    const auto queries = RandomReachQueries(g.num_nodes(), 30, 7);
    for (const auto& q : queries) {
      EXPECT_EQ(
          AnswerOnCompressed(rc, q, PathMode::kReflexive, ReachAlgorithm::kBfs),
          EvalReach(g, q.u, q.v, PathMode::kReflexive, ReachAlgorithm::kBfs))
          << spec.name;
    }
  }
}

}  // namespace
}  // namespace qpgc
