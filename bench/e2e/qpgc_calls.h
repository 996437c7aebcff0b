// Copyright 2026 The QPGC Authors.
//
// The benchmark's only door into qpgc. Every qpgc header and every call into
// the library lives behind this interface (qpgc_calls.cc), so the harness
// (main.cc) sees plain numbers and a later API refactor changes one
// benchmark file. The interface speaks in benchmark terms: a System is one
// workload's generated inputs plus the serving state built from them.
//
// Untraced calls go through the public facades exactly as a user would:
// the cached or routed query services, the manager's Apply/Publish, and
// SaveSnapshot / MmapSnapshot::Open. Given a Tracer, the same request is
// instead decomposed into calls of each layer's public functions (pin,
// node-map rewrite, answer-cache lookup/insert, search on Gr, Match on the
// pattern quotient, expansion through P), each inside its own span.

#ifndef QPGC_BENCH_E2E_QPGC_CALLS_H_
#define QPGC_BENCH_E2E_QPGC_CALLS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "trace.h"

namespace e2e {

enum class Workload {
  kSocialLive,
  kGridHotCold,
  kSocialRoutedK2,
  kCitationReplica,
};

struct ReachPair {
  uint32_t u = 0;
  uint32_t v = 0;
};

/// What one writer cycle did, as the library reported it (freeze, swap and
/// summary times come from PublishStats) plus what its spans measured
/// (zero when untraced).
struct CycleStats {
  double apply_ms = 0.0;
  double freeze_ms = 0.0;
  double swap_us = 0.0;
  double summary_freeze_ms = 0.0;
  int publishes = 0;
  int pattern_freezes = 0;
  double save_ms = 0.0;
  double open_us = 0.0;
  double first_query_us = 0.0;
};

/// One batch of the writer's list replayed layer by layer.
struct ReplayBatch {
  double apply_batch_us = 0.0;
  double rcm_ms = 0.0;
  double pcm_ms = 0.0;
  double freeze_ms = 0.0;
  double kept_frac = 0.0;
  double rcm_cone_frac = 0.0;
  double pcm_cone_frac = 0.0;
  /// Batch recompression of the post-batch graph; negative when this batch
  /// was not recompressed (the first of every 10 is).
  double compress_r_ms = -1.0;
  double compress_b_ms = -1.0;
};

struct CheckResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

using NamedValues = std::vector<std::pair<std::string, double>>;

class System {
 public:
  /// Generates the workload's graph, patterns and `num_batches` update
  /// batches from `seed` (the batches on a mirror graph, in order).
  /// Artifacts of the replica workload are written under `artifact_dir`.
  System(Workload workload, uint64_t seed, size_t num_batches,
         const std::string& artifact_dir);
  ~System();

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  size_t num_patterns() const;
  size_t num_batches() const;

  /// Builds the serving state from the generated graph, replacing any
  /// previous one, and answers one query. Returns false on a library error.
  bool Setup();
  /// Bytes of the served state: snapshot MemoryBytes summed over shards, or
  /// the mapped artifact size for the replica.
  size_t ServingBytes() const;

  /// `count` reach pairs drawn with qpgc's WorkloadSampler: uniform, or
  /// 90% from a Zipf(1.1) hot set of 512 pairs and 10% uniform.
  std::vector<ReachPair> ReachStream(size_t count, bool hot_cold) const;

  /// One reach request. Thread-safe against other readers and the writer.
  bool Reach(uint32_t u, uint32_t v, Tracer* tracer) const;
  /// One match request on pattern `pattern`: BooleanMatch when `boolean`,
  /// else Match. Returns the answer's (u, v) pair count (1/0 for boolean).
  size_t Match(size_t pattern, bool boolean, Tracer* tracer) const;

  /// Writer thread only: applies batch `k` and makes it visible to
  /// readers. Returns false on a library error.
  bool ApplyAndPublish(size_t k, Tracer* tracer, CycleStats* stats);

  /// After the window, with no other thread running: `reach_pairs` random
  /// reach queries and every pattern (Match and BooleanMatch) through the
  /// facade, each compared with the same query on the mirror Graph after
  /// `applied` batches.
  CheckResult Check(size_t applied, size_t reach_pairs, uint64_t seed) const;

  /// Replays batches [first, last) of the writer's list through ApplyBatch,
  /// IncRCM, IncPCM and the frozen-side Fill, on fresh state: the graph
  /// after the batches before `first`, batch-compressed (per shard for the
  /// routed workload). Adds those batch compression times and sizes to
  /// `layer`.
  std::vector<ReplayBatch> Replay(size_t first, size_t last,
                                  NamedValues* layer);

  /// Layer counters read from the system after the traced window: cache
  /// tiers, router stitch and boundary counts, storage sizes and the
  /// verified-load baseline. Every counter is present; one of a layer the
  /// workload does not use is 0.
  NamedValues LayerCounters();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace e2e

#endif  // QPGC_BENCH_E2E_QPGC_CALLS_H_
