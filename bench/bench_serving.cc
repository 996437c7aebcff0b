// Copyright 2026 The QPGC Authors.
//
// Serving-layer benchmark (no paper figure — this measures the subsystem
// the paper leaves implicit: queries served *while* updates land).
//
// Three experiments against serve/SnapshotManager:
//  1. Swap latency vs graph size — the publish swap is one atomic pointer
//     store, so it must stay flat as |G| grows (the freeze pays the O(|Gr|)
//     cost, off the read path).
//  2. Publish amortization — total publish cost per effective update for
//     every-N policies of increasing N.
//  3. Query throughput under a live update stream — reader threads issuing
//     reach / boolean-match queries against pinned snapshots while one
//     writer applies batches through IncRCM/IncPCM and auto-publishes.
//
// Throughput metrics end in `_qps` and are higher-is-better;
// tools/bench_diff.py treats them as gains when they rise (and, like all
// wall-clock-derived numbers, never gates on them in CI).
//
// Env: QPGC_BENCH_SERVE_SECS overrides the throughput window (default 0.5).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "gen/adversarial.h"
#include "gen/random_models.h"
#include "gen/uniform.h"
#include "gen/update_gen.h"
#include "serve/answer_cache.h"
#include "serve/load_gen.h"
#include "serve/query_service.h"
#include "serve/snapshot_manager.h"
#include "util/timer.h"

using namespace qpgc;

namespace {

Graph LabeledSocialGraph(size_t num_nodes, uint64_t seed) {
  Graph g = PreferentialAttachment(num_nodes, 4, 0.45, seed);
  AssignZipfLabels(g, 4, 1.1, seed + 1);
  return g;
}

double ServeSeconds() {
  if (const char* env = std::getenv("QPGC_BENCH_SERVE_SECS")) {
    const double secs = std::atof(env);
    if (secs > 0) return secs;
  }
  return 0.5;
}

// Median of a sample (upper median for an even count).
double Median(std::vector<double> v) {
  const auto mid = v.begin() + static_cast<ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

void SwapLatencyExperiment() {
  std::printf("swap latency vs |G| (freeze off the read path, swap O(1); "
              "medians of 20 publishes):\n");
  std::printf("%-10s %12s %12s %12s %14s\n", "|V|", "|G|", "freeze",
              "swap", "snapshot mem");
  bench::Rule();
  constexpr int kPublishes = 20;
  double first_swap = 0.0, last_swap = 0.0;
  double first_freeze = 0.0, last_freeze = 0.0;
  for (const size_t n : {5000u, 20000u, 80000u}) {
    const Graph g = LabeledSocialGraph(n, 7);
    SnapshotManager mgr(g);
    std::vector<double> freeze_secs, swap_secs;
    for (int i = 0; i < kPublishes; ++i) {
      // kFull: with nothing pending, an auto publish would just share both
      // sides — this experiment measures the full freeze.
      const PublishStats stats = mgr.Publish(FreezeMode::kFull);
      freeze_secs.push_back(stats.freeze_secs);
      swap_secs.push_back(stats.swap_secs);
    }
    // The median: one publish that loses the CPU would move a mean.
    const double freeze_med = Median(std::move(freeze_secs));
    const double swap_med = Median(std::move(swap_secs));
    if (n == 5000u) {
      first_swap = swap_med;
      first_freeze = freeze_med;
    }
    last_swap = swap_med;
    last_freeze = freeze_med;
    const size_t bytes = mgr.Acquire()->MemoryBytes();
    std::printf("%-10zu %12zu %12s %12s %12zu B\n", g.num_nodes(), g.size(),
                bench::Secs(freeze_med).c_str(), bench::Secs(swap_med).c_str(),
                bytes);
    const std::string suffix = ".n" + std::to_string(n);
    bench::Metric("freeze_secs" + suffix, freeze_med);
    bench::Metric("swap_secs" + suffix, swap_med);
  }
  bench::Rule();
  std::printf("80000 vs 5000 nodes (16x |V|): freeze grew %.1fx, swap %.1fx "
              "— the swap never touches\ngraph data (sub-us either way; the "
              "freeze carries all size-dependent cost).\n\n",
              first_freeze > 0 ? last_freeze / first_freeze : 0.0,
              first_swap > 0 ? last_swap / first_swap : 0.0);
}

void AmortizationExperiment() {
  std::printf("publish amortization (every-N policy, 2048-update stream, "
              "batches of 32):\n");
  std::printf("%-8s %10s %14s %16s\n", "N", "publishes", "publish total",
              "per kept update");
  bench::Rule();
  const Graph base = LabeledSocialGraph(20000, 11);
  for (const size_t every_n : {64u, 256u, 1024u}) {
    SnapshotManagerOptions options;
    options.policy = PublishPolicy::EveryNUpdates(every_n);
    SnapshotManager mgr(base, options);
    size_t publishes = 0, kept = 0;
    double publish_total = 0.0;
    for (int round = 0; round < 64; ++round) {
      const UpdateBatch batch =
          RandomMixed(mgr.graph(), 32, 0.55, 500 + round);
      const ApplyStats stats = mgr.Apply(batch);
      kept += stats.rcm.kept_updates + stats.rcm.reduced_updates;
      if (stats.published) {
        ++publishes;
        publish_total += stats.publish.freeze_secs + stats.publish.swap_secs;
      }
    }
    const double per_update = kept == 0 ? 0.0 : publish_total / kept;
    std::printf("%-8zu %10zu %14s %16s\n", every_n, publishes,
                bench::Secs(publish_total).c_str(),
                bench::Secs(per_update).c_str());
    const std::string suffix = ".N" + std::to_string(every_n);
    // Publish count is deterministic (seeded stream, no wall clock in the
    // policy); the costs are timing.
    bench::Metric("publishes" + suffix, static_cast<double>(publishes));
    bench::Metric("publish_total_secs" + suffix, publish_total);
    bench::Metric("publish_per_update_secs" + suffix, per_update);
  }
  bench::Rule();
  std::printf("\n");
}

void ThroughputExperiment() {
  const double window_secs = ServeSeconds();
  std::printf("query throughput under a live update stream "
              "(%.2fs window, 2 readers + 1 writer):\n", window_secs);

  const Graph base = LabeledSocialGraph(20000, 13);
  const std::vector<PatternQuery> patterns = ServeLoadPatterns(base, 4, 70);
  SnapshotManagerOptions options;
  options.policy = PublishPolicy::EveryNUpdates(64);
  SnapshotManager mgr(base, options);
  const QueryService service(mgr);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> reach_queries{0};
  std::atomic<uint64_t> match_queries{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      const ReaderLoadCounters counters =
          RunReaderLoad(service, patterns, 40 + r, done);
      reach_queries.fetch_add(counters.reach_queries,
                              std::memory_order_relaxed);
      match_queries.fetch_add(counters.match_queries,
                              std::memory_order_relaxed);
    });
  }

  size_t versions = 0, updates = 0;
  Timer window;
  while (window.ElapsedSeconds() < window_secs) {
    const UpdateBatch batch =
        RandomMixed(mgr.graph(), 16, 0.55, 900 + updates);
    const ApplyStats stats = mgr.Apply(batch);
    updates += stats.effective_updates;
    if (stats.published) ++versions;
  }
  const double elapsed = window.ElapsedSeconds();
  done.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  const double reach_qps =
      static_cast<double>(reach_queries.load()) / elapsed;
  const double match_qps =
      static_cast<double>(match_queries.load()) / elapsed;
  const double update_rate = static_cast<double>(updates) / elapsed;
  std::printf("  reach queries: %llu (%.0f/s), boolean matches: %llu "
              "(%.0f/s)\n",
              static_cast<unsigned long long>(reach_queries.load()), reach_qps,
              static_cast<unsigned long long>(match_queries.load()),
              match_qps);
  std::printf("  updates applied: %zu (%.0f/s), versions published: %zu, "
              "final version: %llu\n",
              updates, update_rate, versions,
              static_cast<unsigned long long>(mgr.published_version()));
  bench::Metric("reach_qps", reach_qps);
  bench::Metric("match_qps", match_qps);
  bench::Metric("updates_per_sec", update_rate);
  std::printf("\n");
}

// Reach-only qps of 2 readers over `workload` for one window (no writer:
// the A/B isolates the cache, ThroughputExperiment keeps the live update
// stream).
template <typename Service>
double MeasureReachQps(const Service& service, const ReaderWorkload& workload,
                       double window_secs, int readers_n) {
  return RunTimedLoad(service, /*patterns=*/{}, workload, window_secs,
                      readers_n)
      .reach_qps();
}

struct CacheAbResult {
  double hot_uncached = 0.0;
  double hot_cached = 0.0;
  double uniform_uncached = 0.0;
  double uniform_cached = 0.0;
  CacheStats hot_stats;  // counters accumulated during the hot cached run
};

// One cache A/B over a static snapshot of `base`: hot-set and uniform
// workloads, each measured uncached then cached.
CacheAbResult RunCacheAb(const Graph& base, double window_secs,
                         const char* label) {
  SnapshotManager mgr(base);
  const QueryService uncached(mgr);
  const CachedQueryService cached(mgr);
  const ReaderWorkload hot = ReaderWorkload::ZipfHotSet(1.1, 512);
  const ReaderWorkload uniform = ReaderWorkload::Uniform();

  CacheAbResult r;
  r.hot_uncached = MeasureReachQps(uncached, hot, window_secs, 2);
  r.hot_cached = MeasureReachQps(cached, hot, window_secs, 2);
  r.hot_stats = cached.cache_stats();
  r.uniform_uncached = MeasureReachQps(uncached, uniform, window_secs, 2);
  r.uniform_cached = MeasureReachQps(cached, uniform, window_secs, 2);

  std::printf("%-24s %14.0f %14.0f %9.1fx %9.3f\n",
              (std::string(label) + " hot").c_str(), r.hot_uncached,
              r.hot_cached,
              r.hot_uncached > 0 ? r.hot_cached / r.hot_uncached : 0.0,
              r.hot_stats.ReachHitRate());
  std::printf("%-24s %14.0f %14.0f %9.2fx %9s\n",
              (std::string(label) + " uniform").c_str(), r.uniform_uncached,
              r.uniform_cached,
              r.uniform_uncached > 0 ? r.uniform_cached / r.uniform_uncached
                                     : 0.0,
              "-");
  return r;
}

void AnswerCacheExperiment() {
  const double window_secs = ServeSeconds();
  std::printf("answer cache A/B (%.2fs windows, 2 readers, static snapshot; "
              "docs/CACHING.md):\n", window_secs);
  std::printf("%-24s %14s %14s %10s %9s\n", "graph / workload",
              "uncached qps", "cached qps", "speedup", "hit rate");
  bench::Rule();

  // Headline: a deep grid, whose reach quotient IS the graph — every
  // uncached probe pays a real quotient BFS, which is the regime answer
  // caching exists for. Hot-set = Zipf(s=1.1) over 512 repeated pairs.
  const CacheAbResult grid =
      RunCacheAb(DirectedGrid(141, 141), window_secs, "grid 141x141");
  // Context: the social graph's reach quotient is tiny, so raw reach is
  // already millions of qps; there the exact tier's win comes from block
  // canonicalization (uniform pairs collapse onto few block pairs).
  const CacheAbResult social =
      RunCacheAb(LabeledSocialGraph(20000, 13), window_secs, "social 20k");
  bench::Rule();
  const CacheStats& hs = grid.hot_stats;
  std::printf("  grid hot-set counters: exact hits %llu, subsumption hits "
              "%llu, misses %llu,\n  inserts %llu, evictions %llu\n\n",
              static_cast<unsigned long long>(hs.reach_exact_hits),
              static_cast<unsigned long long>(hs.reach_subsumption_hits),
              static_cast<unsigned long long>(hs.reach_misses),
              static_cast<unsigned long long>(hs.reach_inserts),
              static_cast<unsigned long long>(hs.reach_evictions));

  bench::Metric("cache_hot_uncached_reach_qps", grid.hot_uncached);
  bench::Metric("cache_hot_cached_reach_qps", grid.hot_cached);
  bench::Metric("cache_hot_speedup",
                grid.hot_uncached > 0 ? grid.hot_cached / grid.hot_uncached
                                      : 0.0);
  bench::Metric("cache_hot_hit_rate", hs.ReachHitRate());
  bench::Metric("cache_hot_exact_hits",
                static_cast<double>(hs.reach_exact_hits));
  bench::Metric("cache_hot_subsumption_hits",
                static_cast<double>(hs.reach_subsumption_hits));
  bench::Metric("cache_hot_misses", static_cast<double>(hs.reach_misses));
  bench::Metric("cache_hot_inserts", static_cast<double>(hs.reach_inserts));
  bench::Metric("cache_hot_evictions",
                static_cast<double>(hs.reach_evictions));
  bench::Metric("cache_uniform_uncached_reach_qps", grid.uniform_uncached);
  bench::Metric("cache_uniform_cached_reach_qps", grid.uniform_cached);
  bench::Metric("cache_social_hot_uncached_reach_qps", social.hot_uncached);
  bench::Metric("cache_social_hot_cached_reach_qps", social.hot_cached);
  bench::Metric("cache_social_uniform_uncached_reach_qps",
                social.uniform_uncached);
  bench::Metric("cache_social_uniform_cached_reach_qps",
                social.uniform_cached);
}

}  // namespace

int main() {
  bench::Banner("Serving snapshots — swap latency, amortization, throughput",
                "serve/ subsystem (no paper figure; Section 5 made concurrent)");
  SwapLatencyExperiment();
  AmortizationExperiment();
  ThroughputExperiment();
  AnswerCacheExperiment();
  std::printf("expected shape: swap latency flat in |G|; publish cost per "
              "update falls as N grows;\nreaders keep answering at full "
              "speed while the writer publishes.\n");
  return 0;
}
