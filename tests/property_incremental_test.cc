// Copyright 2026 The QPGC Authors.
//
// End-to-end incremental properties: long update sequences over evolving
// graphs, maintaining both compressions and an incremental match, checked
// against batch recomputation at every step. This is the Section 5 contract
// Gr ⊕ ΔGr = R(G ⊕ ΔG), composed over time.

#include <gtest/gtest.h>

#include "gen/evolution.h"
#include "gen/random_models.h"
#include "gen/uniform.h"
#include "gen/update_gen.h"
#include "inc/inc_pcm.h"
#include "inc/inc_rcm.h"
#include "pattern/inc_match.h"
#include "pattern/pattern_gen.h"
#include "test_util.h"

namespace qpgc {
namespace {

class IncrementalEvolutionProperty : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(IncrementalEvolutionProperty, AllMaintainersStayExact) {
  const uint64_t seed = GetParam();
  Graph g = PreferentialAttachment(60, 3, 0.4, seed);
  AssignZipfLabels(g, 3, 0.8, seed);

  ReachCompression rc = CompressR(g);
  PatternCompression pc = CompressB(g);
  PatternGenOptions options;
  options.num_nodes = 3;
  options.num_edges = 3;
  options.max_bound = 2;
  const PatternQuery q = RandomPattern(DistinctLabels(g), options, seed);
  IncBMatch match(&g, q);

  for (uint64_t step = 0; step < 5; ++step) {
    UpdateBatch batch;
    switch ((seed * 7 + step) % 4) {
      case 0:
        batch = RandomInsertions(g, 5, seed * 101 + step);
        break;
      case 1:
        batch = RandomDeletions(g, 5, seed * 101 + step);
        break;
      case 2:
        batch = RandomMixed(g, 8, 0.5, seed * 101 + step);
        break;
      default:
        batch = PowerLawGrowthStep(g, 0.03, 0.8, seed * 101 + step);
        // PowerLawGrowthStep already applied its insertions; re-express as
        // a no-op for ApplyBatch by clearing (updates already in g).
        {
          const UpdateBatch applied = batch;
          batch.updates.clear();
          IncRCM(g, applied, rc);
          IncPCM(g, applied, pc);
          match.Update(applied);
        }
        break;
    }
    if (!batch.empty()) {
      const UpdateBatch effective = ApplyBatch(g, batch);
      IncRCM(g, effective, rc);
      IncPCM(g, effective, pc);
      match.Update(effective);
    }

    ExpectEquivalentReachCompression(rc, CompressR(g));
    ExpectEquivalentPatternCompression(pc, CompressB(g));
    EXPECT_EQ(match.result(), Match(g, q)) << "seed=" << seed
                                           << " step=" << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalEvolutionProperty,
                         ::testing::Range<uint64_t>(1, 13));

// Deleting every edge one batch at a time must end at the edgeless
// compression (all-nodes-equivalent for reachability).
TEST(IncrementalProperty, DrainToEmpty) {
  Graph g = GenerateUniform(40, 100, 2, 5);
  ReachCompression rc = CompressR(g);
  PatternCompression pc = CompressB(g);
  while (g.num_edges() > 0) {
    const UpdateBatch batch = RandomDeletions(g, 20, g.num_edges());
    const UpdateBatch effective = ApplyBatch(g, batch);
    IncRCM(g, effective, rc);
    IncPCM(g, effective, pc);
  }
  ExpectEquivalentReachCompression(rc, CompressR(g));
  ExpectEquivalentPatternCompression(pc, CompressB(g));
  EXPECT_EQ(rc.gr->num_nodes(), 1u);  // every node equivalent
}

// Insert-then-delete returning to the original graph must return to the
// original compression.
TEST(IncrementalProperty, RoundTripRestoresCompression) {
  Graph g = GenerateUniform(50, 150, 2, 9);
  const ReachCompression original = CompressR(g);
  ReachCompression rc = CompressR(g);

  const UpdateBatch ins = RandomInsertions(g, 10, 11);
  const UpdateBatch eff_ins = ApplyBatch(g, ins);
  IncRCM(g, eff_ins, rc);

  UpdateBatch undo;
  for (const auto& up : eff_ins.updates) undo.Delete(up.u, up.v);
  const UpdateBatch eff_undo = ApplyBatch(g, undo);
  IncRCM(g, eff_undo, rc);

  ExpectEquivalentReachCompression(rc, original);
}

}  // namespace
}  // namespace qpgc
