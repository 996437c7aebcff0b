// Copyright 2026 The QPGC Authors.
//
// Differential fuzzing: long randomized operation sequences over evolving
// graphs, where every subsystem is cross-checked against an independent
// oracle at every step:
//   * reachability answers on Gr  vs  BFS on G (all three stock algorithms);
//   * pattern answers through Gr  vs  Match on G;
//   * 2-hop on Gr                 vs  BFS on G;
//   * incRCM / incPCM             vs  batch recompression;
//   * IncBMatch                   vs  fresh Match;
//   * save / load / reconstruct   vs  the in-memory artifact.
// Seeds sweep generator families, label alphabets and update mixes. This is
// the suite that caught the mutual-redundancy and expansion bugs during
// development; it runs moderately sized inputs so failures shrink easily.

#include <gtest/gtest.h>

#include <cstdio>

#include "gen/random_models.h"
#include "gen/uniform.h"
#include "gen/update_gen.h"
#include "inc/inc_pcm.h"
#include "inc/inc_rcm.h"
#include "index/two_hop.h"
#include "pattern/inc_match.h"
#include "pattern/pattern_gen.h"
#include "reach/queries.h"
#include "serve/snapshot_manager.h"
#include "storage/snapshot_io.h"
#include "test_util.h"
#include "util/rng.h"

namespace qpgc {
namespace {

Graph MakeFuzzGraph(uint64_t seed) {
  Rng rng(seed * 0x9e37 + 11);
  const size_t n = 40 + rng.Uniform(60);
  Graph g;
  switch (rng.Uniform(5)) {
    case 0:
      g = GenerateUniform(n, n * (2 + rng.Uniform(3)), 1 + rng.Uniform(4),
                          seed);
      return g;
    case 1:
      g = PreferentialAttachment(n, 2 + rng.Uniform(3),
                                 0.2 + rng.UniformDouble() * 0.6, seed);
      break;
    case 2:
      g = CopyingModel(n, 3 + rng.Uniform(3), rng.UniformDouble(), seed);
      break;
    case 3:
      g = CitationDag(n, 3, 0.5, seed, rng.UniformDouble() * 0.3);
      break;
    default:
      g = LayeredRandom(n, 4 + rng.Uniform(3), 3, 0.1, seed);
      break;
  }
  if (rng.Chance(0.7)) {
    AssignZipfLabels(g, 1 + rng.Uniform(5), 0.9, seed ^ 0xfe);
  }
  if (rng.Chance(0.4)) {
    CloneOutNeighborhoods(g, 0.3, 0.3, seed ^ 0x77);
  }
  return g;
}

UpdateBatch MakeFuzzBatch(const Graph& g, Rng& rng, uint64_t step_seed) {
  const size_t count = 1 + rng.Uniform(12);
  switch (rng.Uniform(3)) {
    case 0:
      return RandomInsertions(g, count, step_seed);
    case 1:
      return RandomDeletions(g, count, step_seed);
    default:
      return RandomMixed(g, count, rng.UniformDouble(), step_seed);
  }
}

class FuzzDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzDifferential, EverySubsystemAgreesAcrossEvolution) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  Graph g = MakeFuzzGraph(seed);

  ReachCompression rc = CompressR(g);
  PatternCompression pc = CompressB(g);

  PatternGenOptions pattern_options;
  pattern_options.num_nodes = 2 + rng.Uniform(3);
  pattern_options.num_edges = pattern_options.num_nodes;
  pattern_options.max_bound = 1 + rng.Uniform(3);
  pattern_options.star_probability = 0.2;
  const PatternQuery q =
      RandomPattern(DistinctLabels(g), pattern_options, seed ^ 0xbeef);
  IncBMatch inc_match(&g, q);

  for (int step = 0; step < 6; ++step) {
    const UpdateBatch batch = MakeFuzzBatch(g, rng, seed * 131 + step);
    const UpdateBatch effective = ApplyBatch(g, batch);
    IncRCM(g, effective, rc);
    IncPCM(g, effective, pc);
    inc_match.Update(effective);

    // Incremental == batch.
    ExpectEquivalentReachCompression(rc, CompressR(g));
    ExpectEquivalentPatternCompression(pc, CompressB(g));
    ASSERT_EQ(inc_match.result(), Match(g, q))
        << "seed=" << seed << " step=" << step;

    // Query answers through every path.
    const TwoHopIndex two_hop = TwoHopIndex::Build(*rc.gr);
    const auto queries =
        RandomReachQueries(g.num_nodes(), 40, seed * 977 + step);
    for (const auto& query : queries) {
      const bool truth = BfsReaches(g, query.u, query.v, PathMode::kReflexive);
      ASSERT_EQ(AnswerOnCompressed(rc, query, PathMode::kReflexive,
                                   ReachAlgorithm::kBfs),
                truth)
          << "seed=" << seed << " step=" << step;
      ASSERT_EQ(AnswerOnCompressed(rc, query, PathMode::kReflexive,
                                   ReachAlgorithm::kBiBfs),
                truth);
      ASSERT_EQ(AnswerOnCompressed(rc, query, PathMode::kReflexive,
                                   ReachAlgorithm::kDfs),
                truth);
      const bool via_two_hop =
          query.u == query.v ||
          two_hop.Reaches(rc.node_map[query.u], rc.node_map[query.v],
                          PathMode::kNonEmpty);
      ASSERT_EQ(via_two_hop, truth);
    }
    ASSERT_EQ(Match(g, q).match_sets, MatchOnCompressed(pc, q).match_sets)
        << "seed=" << seed << " step=" << step;
  }

  // The incrementally maintained artifacts survive storage at the final
  // state: published by a manager that adopts them, saved, loaded and
  // reconstructed, they equal the in-memory pair.
  const SnapshotManager adopted(g, rc, pc);
  const auto frozen = adopted.Acquire();
  const std::string path =
      ::testing::TempDir() + "fuzz_" + std::to_string(seed) + ".snap";
  ASSERT_TRUE(storage::SaveSnapshot(*frozen, path).ok());
  const Result<storage::LoadedSnapshot> loaded =
      storage::LoadServingSnapshot(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  const Result<storage::ReconstructedArtifacts> rebuilt =
      storage::ReconstructArtifacts(g, *loaded.value().snapshot);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().message();
  ExpectEquivalentReachCompression(rc, rebuilt.value().rc);
  ExpectEquivalentPatternCompression(pc, rebuilt.value().pc);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferential,
                         ::testing::Range<uint64_t>(1, 33));

}  // namespace
}  // namespace qpgc
