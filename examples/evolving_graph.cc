// Copyright 2026 The QPGC Authors.
//
// Maintaining compressed graphs on an evolving network (Section 5): a P2P
// overlay keeps churning — peers join and leave, links appear and vanish —
// while both compressed views stay exact via incRCM / incPCM, without ever
// recompressing from scratch. Every few rounds the example cross-checks
// against a batch recompute.
//
//   $ ./evolving_graph

#include <cstdio>

#include "core/pattern_scheme.h"
#include "gen/dataset_catalog.h"
#include "gen/update_gen.h"
#include "inc/inc_pcm.h"
#include "inc/inc_rcm.h"
#include "reach/compress_r.h"
#include "reach/queries.h"
#include "util/timer.h"

using namespace qpgc;

int main() {
  Graph g = MakeDataset(FindDataset("P2P"));
  std::printf("P2P overlay: %s\n", g.DebugString().c_str());

  ReachCompression rc = CompressR(g);
  PatternCompression pc = CompressB(g);
  std::printf("initial: |Gr_reach| = %zu (RCr %.2f%%), |Gr_pattern| = %zu "
              "(PCr %.2f%%)\n\n",
              rc.size(), rc.CompressionRatio() * 100, pc.size(),
              pc.CompressionRatio() * 100);

  std::printf("%5s %8s %8s | %10s %10s | %10s %10s\n", "round", "ins", "del",
              "incRCM", "RCr", "incPCM", "PCr");
  for (int round = 1; round <= 10; ++round) {
    // Churn: ~1% of edges replaced per round.
    const size_t churn = g.num_edges() / 100;
    UpdateBatch batch = RandomInsertions(g, churn, 500 + round);
    const UpdateBatch dels = RandomDeletions(g, churn, 900 + round);
    batch.updates.insert(batch.updates.end(), dels.updates.begin(),
                         dels.updates.end());
    const UpdateBatch effective = ApplyBatch(g, batch);

    Timer t;
    IncRCM(g, effective, rc);
    const double rcm_ms = t.ElapsedMillis();
    t.Restart();
    IncPCM(g, effective, pc);
    const double pcm_ms = t.ElapsedMillis();

    std::printf("%5d %8zu %8zu | %8.1fms %9.2f%% | %8.1fms %9.2f%%\n", round,
                effective.NumInsertions(), effective.NumDeletions(), rcm_ms,
                rc.CompressionRatio() * 100, pcm_ms,
                pc.CompressionRatio() * 100);

    if (round % 5 == 0) {
      // Cross-check against batch recompression.
      const ReachCompression batch_rc = CompressR(g);
      const PatternCompression batch_pc = CompressB(g);
      const bool ok_reach = batch_rc.gr->num_nodes() == rc.gr->num_nodes() &&
                            batch_rc.gr->num_edges() == rc.gr->num_edges();
      const bool ok_pattern =
          batch_pc.gr->num_nodes() == pc.gr->num_nodes() &&
          batch_pc.gr->num_edges() == pc.gr->num_edges();
      std::printf("      cross-check vs batch recompute: reach %s, pattern "
                  "%s\n",
                  ok_reach ? "OK" : "MISMATCH",
                  ok_pattern ? "OK" : "MISMATCH");
      if (!ok_reach || !ok_pattern) return 1;
    }
  }

  // The maintained Gr still answers queries exactly.
  const auto queries = RandomReachQueries(g.num_nodes(), 500, 23);
  size_t errors = 0;
  for (const auto& q : queries) {
    const bool truth =
        EvalReach(g, q.u, q.v, PathMode::kReflexive, ReachAlgorithm::kBfs);
    errors += truth != AnswerOnCompressed(rc, q, PathMode::kReflexive,
                                          ReachAlgorithm::kBfs);
  }
  std::printf("\nfinal validation: %zu/%zu reachability queries correct "
              "through the maintained Gr.\n",
              queries.size() - errors, queries.size());
  return errors == 0 ? 0 : 1;
}
