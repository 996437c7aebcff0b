// Copyright 2026 The QPGC Authors.
//
// qpgc_e2e: the end-to-end serving benchmark. One run builds one workload's
// serving state from inputs generated by --seed, drives it with closed-loop
// reader clients (one thread each, one request per call) and an open-loop
// writer (one update batch per period, timed from its due time), then
// checks answers against the Graph oracle. See README.md in this directory
// for the workloads, the metrics and their bounds.
//
//   qpgc_e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//            [--out DIR]
//
// Without --workload every workload runs in turn. The last line printed
// for a workload is one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: value}}; units live in BENCHMARK.json, and run.py adds
// them. The same object, with run details added, is written to
// DIR/result-<workload>-seed<N>[-trace].json. The untraced run reports the
// end-to-end metrics; --trace 1 runs an untraced half window and a traced
// half window and reports the per-layer metrics, plus a Chrome trace
// (DIR/trace-<workload>-seed<N>.json).

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "qpgc_calls.h"
#include "stats.h"
#include "trace.h"

namespace e2e {
namespace {

constexpr double kWarmupSecs = 2.0;
constexpr int kSetupRepeats = 9;
constexpr size_t kSlices = 5;  // of each measure window
constexpr size_t kStreamPairs = size_t{1} << 20;  // reach pairs, cycled
constexpr size_t kOraclePairs = 2000;
// A cached reach request takes about 100 ns and a steady_clock read about
// 47 ns, so timing every request would mostly time the clock. A reach
// client reads the clock once per block: it times the block's first request
// alone, and counts every request of the block toward qps.
constexpr uint32_t kReachBlock = 16;
constexpr uint32_t kSpanSampleEvery = 64;
constexpr size_t kSpanCapacity = size_t{1} << 16;  // per thread
// fresh_p90_ms goes into the result file only with at least 10 batches
// beyond the 90th percentile.
constexpr uint64_t kFreshP90MinBatches = 100;

struct WorkloadSpec {
  const char* name;
  Workload kind;
  bool hot_cold;  // 90% Zipf hot set + 10% uniform, else uniform
  // Sequential: two reach clients, then the match client, then the writer,
  // each alone for a third of the window, so reads see the unchanged graph.
  // Otherwise one reach client, the match client and the writer run
  // together for the whole window.
  bool sequential;
  double writer_rate;  // update batches per second
};

// Why each workload exists is recorded in README.md. At most 3 threads run
// at a time, on a 4-core machine.
constexpr WorkloadSpec kWorkloads[] = {
    {"social_live", Workload::kSocialLive, false, false, 5.0},
    {"grid_hot_cold", Workload::kGridHotCold, true, true, 2.0},
    {"social_routed_k2", Workload::kSocialRoutedK2, false, false, 2.0},
    {"citation_replica", Workload::kCitationReplica, false, false, 5.0},
};

enum Phase { kWarmup, kMeasure, kTraced, kStop };

struct Options {
  const WorkloadSpec* workload = nullptr;  // null: all of them
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = "build/e2e/out";
};

// When each phase of one set of threads begins, on the NowNs clock. Every
// thread derives the phase of a request from its own start time, so no flag
// is shared.
struct Schedule {
  uint64_t start = 0;
  uint64_t measure_begin = 0;
  uint64_t measure_end = 0;  // where the traced window begins
  uint64_t traced_end = 0;   // == measure_end when untraced

  // Warm-up, then `measure_secs`, then as long again traced if `traced`.
  Schedule(uint64_t now, double measure_secs, bool traced) : start(now) {
    const auto ns = [](double secs) {
      return static_cast<uint64_t>(std::llround(secs * 1e9));
    };
    measure_begin = start + ns(kWarmupSecs);
    measure_end = measure_begin + ns(measure_secs);
    traced_end = measure_end + (traced ? ns(measure_secs) : 0);
  }

  Phase At(uint64_t t) const {
    if (t < measure_begin) return kWarmup;
    if (t < measure_end) return kMeasure;
    if (t < traced_end) return kTraced;
    return kStop;
  }
  size_t Slice(uint64_t t) const {
    return std::min<size_t>(kSlices - 1, (t - measure_begin) * kSlices /
                                             (measure_end - measure_begin));
  }
  double slice_secs() const {
    return static_cast<double>(measure_end - measure_begin) / 1e9 / kSlices;
  }
  double traced_secs() const {
    return static_cast<double>(traced_end - measure_end) / 1e9;
  }
};

// One reader thread's results.
struct Client {
  // Untraced, per slice of the measure window: latencies of the timed
  // requests, and the count of every request.
  std::vector<LatencyHistogram> slices = std::vector<LatencyHistogram>(kSlices);
  std::array<uint64_t, kSlices> requests{};
  uint64_t traced = 0;
  uint64_t boolean_traced = 0;
  uint64_t boolean_matched = 0;
  uint64_t full_traced = 0;
  uint64_t answer_pairs = 0;
  uint64_t sink = 0;  // keeps answers observable
  std::unique_ptr<Tracer> tracer;

  uint64_t measured() const {
    uint64_t n = 0;
    for (const uint64_t r : requests) n += r;
    return n;
  }
  uint64_t timed() const {
    uint64_t n = 0;
    for (const LatencyHistogram& h : slices) n += h.count();
    return n;
  }
};

// The writer's results; the per-stage histograms fill in the traced window.
struct Writer {
  // Batches due in the measure window, in ms. Kept exact: there are at most
  // a few hundred, too few for histogram buckets to interpolate within.
  std::vector<double> fresh_ms;
  uint64_t applied = 0;
  uint64_t failed = 0;
  size_t first_traced = 0;  // index of the first batch due in the traced window
  std::unique_ptr<Tracer> tracer;
  std::map<std::string, LatencyHistogram> stages;
  uint64_t publishes = 0;
  uint64_t pattern_freezes = 0;

  void RecordMs(const std::string& name, double ms) {
    stages[name].Record(static_cast<uint64_t>(std::llround(ms * 1e6)));
  }
  double Quantile(const std::string& name, double q, double scale) const {
    const auto it = stages.find(name);
    return it == stages.end() ? 0.0 : it->second.QuantileNs(q) / scale;
  }
};

// Closed loop of blocks of `block` requests. The clock is read once per
// block: its first request is timed alone, and the phase and slice read
// there hold for the whole block. `request(i, tracer)` issues request i.
template <typename Request>
void ClosedLoop(const Schedule& schedule, uint32_t block, Stage root,
                Client& c, Request request) {
  for (uint64_t i = 0;;) {
    const uint64_t t0 = NowNs();
    const Phase phase = schedule.At(t0);
    if (phase == kStop) break;
    if (phase == kTraced) {
      for (uint32_t j = 0; j < block; ++j) {
        c.tracer->BeginRequest(root);
        request(i++, c.tracer.get());
        c.tracer->EndRequest();
      }
      c.traced += block;
      continue;
    }
    request(i++, nullptr);
    const uint64_t t1 = NowNs();
    for (uint32_t j = 1; j < block; ++j) request(i++, nullptr);
    if (phase == kMeasure) {
      const size_t slice = schedule.Slice(t0);
      c.slices[slice].Record(t1 - t0);
      c.requests[slice] += block;
    }
  }
}

void ReachClient(const System& sys, const std::vector<ReachPair>& stream,
                 size_t offset, const Schedule& schedule, Client& c) {
  const size_t mask = stream.size() - 1;
  ClosedLoop(schedule, kReachBlock, Stage::kReachRequest, c,
             [&](uint64_t i, Tracer* tracer) {
               const ReachPair p = stream[(offset + i) & mask];
               c.sink += sys.Reach(p.u, p.v, tracer) ? 1 : 0;
             });
}

// Requests alternate Match and BooleanMatch, cycling over the patterns, in
// blocks of two on one pattern: the Match is timed, and both count toward
// qps. Where no pattern matches (the grid), the cached BooleanMatch answers
// in well under a microsecond and Match takes about a millisecond, so a
// median over both kinds would fall on the edge between the two.
void MatchClient(const System& sys, const Schedule& schedule, Client& c) {
  const size_t patterns = sys.num_patterns();
  ClosedLoop(schedule, 2, Stage::kMatchRequest, c,
             [&](uint64_t i, Tracer* tracer) {
               const size_t pattern = (i / 2) % patterns;
               const bool boolean = i % 2 == 1;
               const size_t answer = sys.Match(pattern, boolean, tracer);
               c.sink += answer;
               if (tracer == nullptr) return;
               if (boolean) {
                 ++c.boolean_traced;
                 c.boolean_matched += answer;
               } else {
                 ++c.full_traced;
                 c.answer_pairs += answer;
               }
             });
}

// Open loop: batch k is due at start + k / rate, whatever happened before,
// and its freshness runs from that due time. Every batch due before the
// end of the run is applied, however late.
void WriterLoop(System& sys, double rate, const Schedule& schedule,
                Writer& w) {
  const double period_ns = 1e9 / rate;
  for (size_t k = 0; k < sys.num_batches(); ++k) {
    const uint64_t due =
        schedule.start + static_cast<uint64_t>(std::llround(period_ns * k));
    const Phase phase = schedule.At(due);
    if (phase == kStop) return;
    if (phase != kTraced) w.first_traced = k + 1;
    for (uint64_t now = NowNs(); now < due; now = NowNs()) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    }
    const uint64_t begin = NowNs();
    Tracer* tracer = phase == kTraced ? w.tracer.get() : nullptr;
    if (tracer != nullptr) tracer->BeginRequest(Stage::kWriterCycle);
    CycleStats stats;
    const bool ok = sys.ApplyAndPublish(k, tracer, &stats);
    if (tracer != nullptr) tracer->EndRequest();
    const uint64_t end = NowNs();
    ++w.applied;
    if (!ok) {
      ++w.failed;
      return;
    }
    if (phase == kMeasure) {
      w.fresh_ms.push_back(static_cast<double>(end - due) / 1e6);
    }
    if (phase != kTraced) continue;
    w.RecordMs("apply", stats.apply_ms);
    w.RecordMs("freeze", stats.freeze_ms);
    w.RecordMs("swap", stats.swap_us / 1e3);
    w.RecordMs("summary_freeze", stats.summary_freeze_ms);
    w.RecordMs("late", static_cast<double>(begin - due) / 1e6);
    w.publishes += static_cast<uint64_t>(stats.publishes);
    w.pattern_freezes += static_cast<uint64_t>(stats.pattern_freezes);
    if (stats.save_ms > 0) {
      w.RecordMs("save", stats.save_ms);
      w.RecordMs("open", stats.open_us / 1e3);
      w.RecordMs("first_query", stats.first_query_us / 1e3);
      w.RecordMs("cold_start", (stats.open_us + stats.first_query_us) / 1e3);
    }
  }
}

// Per slice of the measure window, the requests of `clients` per second and
// their timed latencies merged. Each metric is the median over the slices
// of its per-slice value: a host stall that slows one or two slices moves
// it little.
struct Slices {
  std::vector<double> qps;
  std::vector<LatencyHistogram> latency;

  Slices(const std::vector<const Client*>& clients, double slice_secs)
      : qps(kSlices, 0.0), latency(kSlices) {
    for (const Client* c : clients) {
      for (size_t s = 0; s < kSlices; ++s) {
        qps[s] += static_cast<double>(c->requests[s]) / slice_secs;
        latency[s].Merge(c->slices[s]);
      }
    }
  }
  double MedianQps() const { return Median(qps); }
  double MedianUs(double q) const {
    std::vector<double> per_slice;
    for (const LatencyHistogram& h : latency) {
      per_slice.push_back(h.QuantileNs(q) / 1e3);
    }
    return Median(per_slice);
  }
};

struct RunResult {
  bool ok = false;  // false: the run could not complete (no result)
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  NamedValues metrics;  // in print order
  NamedValues details;  // for the result file
  std::vector<SelfTime> self_times;
  std::vector<std::pair<Stage, double>> coverage;  // per request kind
};

double RatioOrZero(double num, double den) { return den > 0 ? num / den : 0.0; }

RunResult RunWorkload(const WorkloadSpec& spec, const Options& opt) {
  RunResult result;
  // Per process: a concurrent run must never delete this run's artifacts.
  const std::string artifact_dir = opt.out + "/artifacts-" + spec.name + "-" +
                                   std::to_string(getpid());
  std::error_code ec;
  std::filesystem::create_directories(artifact_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", artifact_dir.c_str());
    return result;
  }
  // Each set of threads gets its share of the window: its measure window,
  // and when tracing, a traced window as long again.
  const double phase_secs = opt.seconds / (spec.sequential ? 3 : 1);
  const double measure_secs = phase_secs / (opt.trace ? 2 : 1);
  const size_t num_batches = static_cast<size_t>(std::ceil(
                                 (kWarmupSecs + phase_secs) * spec.writer_rate)) +
                             2;
  System sys(spec.kind, opt.seed, num_batches, artifact_dir);
  if (sys.num_patterns() == 0) {
    std::fprintf(stderr, "%s: graph has no pattern labels\n", spec.name);
    return result;
  }

  // Set-up: the median of several builds from the generated graph to the
  // first answered query; the last build serves.
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const uint64_t t0 = NowNs();
    if (!sys.Setup()) {
      std::fprintf(stderr, "%s: set-up failed\n", spec.name);
      return result;
    }
    setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  const std::vector<ReachPair> stream =
      sys.ReachStream(kStreamPairs, spec.hot_cold);
  std::vector<Client> reach(spec.sequential ? 2 : 1);
  Client match;
  Writer writer;
  uint32_t thread_id = 0;
  for (Client& c : reach) {
    c.tracer = std::make_unique<Tracer>(thread_id++, kSpanSampleEvery,
                                        kSpanCapacity);
  }
  match.tracer =
      std::make_unique<Tracer>(thread_id++, kSpanSampleEvery, kSpanCapacity);
  writer.tracer = std::make_unique<Tracer>(thread_id++, 1, kSpanCapacity);

  // Each set of threads runs on its own schedule, started when the set
  // starts: one after the other when sequential, else all at once.
  std::vector<std::thread> threads;
  const auto next_schedule = [&]() {
    if (spec.sequential) {
      for (std::thread& t : threads) t.join();
      threads.clear();
    }
    return Schedule(NowNs(), measure_secs, opt.trace);
  };
  const Schedule reach_schedule = next_schedule();
  for (size_t c = 0; c < reach.size(); ++c) {
    // Each client starts at its own place in the stream.
    threads.emplace_back(ReachClient, std::cref(sys), std::cref(stream),
                         c * kStreamPairs / reach.size(),
                         std::cref(reach_schedule), std::ref(reach[c]));
  }
  const Schedule match_schedule = next_schedule();
  threads.emplace_back(MatchClient, std::cref(sys), std::cref(match_schedule),
                       std::ref(match));
  const Schedule writer_schedule = next_schedule();
  threads.emplace_back(WriterLoop, std::ref(sys), spec.writer_rate,
                       std::cref(writer_schedule), std::ref(writer));
  for (std::thread& t : threads) t.join();

  const CheckResult check = sys.Check(writer.applied, kOraclePairs, opt.seed);
  result.ok = true;
  for (const Client& c : reach) result.attempted += c.measured() + c.traced;
  result.attempted +=
      match.measured() + match.traced + writer.applied + check.attempted;
  result.failed = check.failed + writer.failed;
  result.correct = result.failed == 0;

  std::vector<const Client*> reach_clients;
  uint64_t reach_timed = 0, reach_requests = 0, reach_traced = 0;
  for (const Client& c : reach) {
    reach_clients.push_back(&c);
    reach_timed += c.timed();
    reach_requests += c.measured();
    reach_traced += c.traced;
  }
  const Slices reach_slices(reach_clients, reach_schedule.slice_secs());
  const Slices match_slices({&match}, match_schedule.slice_secs());
  std::vector<double>& fresh = writer.fresh_ms;
  std::sort(fresh.begin(), fresh.end());
  const uint64_t fresh_batches = fresh.size();
  result.details = {
      {"reach_requests", static_cast<double>(reach_requests)},
      {"reach_timed", static_cast<double>(reach_timed)},
      {"match_requests", static_cast<double>(match.measured())},
      {"match_timed", static_cast<double>(match.timed())},
      {"fresh_batches", static_cast<double>(fresh_batches)},
  };
  if (fresh_batches >= kFreshP90MinBatches) {
    result.details.emplace_back(
        "fresh_p90_ms",
        fresh[static_cast<size_t>(std::ceil(0.9 * fresh.size())) - 1]);
  }

  if (!opt.trace) {
    result.metrics = {
        {"setup_s", Median(setups)},
        {"reach_qps", reach_slices.MedianQps()},
        {"reach_p50_us", reach_slices.MedianUs(0.5)},
        {"reach_p99_us", reach_slices.MedianUs(0.99)},
        {"match_qps", match_slices.MedianQps()},
        {"match_p50_us", match_slices.MedianUs(0.5)},
        {"match_p99_us", match_slices.MedianUs(0.99)},
        {"fresh_p50_ms", Median(fresh)},
        // The served state after the last batch: what updates left behind.
        {"serving_bytes", static_cast<double>(sys.ServingBytes())},
    };
    std::filesystem::remove_all(artifact_dir, ec);
    return result;
  }

  // --- Traced run: per-layer metrics. ---
  std::vector<const Tracer*> tracers;
  for (const Client& c : reach) tracers.push_back(c.tracer.get());
  tracers.push_back(match.tracer.get());
  tracers.push_back(writer.tracer.get());
  LatencyHistogram stage[kNumStages];
  double coverage = 1.0;
  for (size_t root = 0; root < kNumRoots; ++root) {
    uint64_t root_ns = 0, child_ns = 0;
    for (const Tracer* t : tracers) {
      root_ns += t->root_ns(static_cast<Stage>(root));
      child_ns += t->child_ns(static_cast<Stage>(root));
    }
    if (root_ns > 0) {
      const double share = static_cast<double>(child_ns) / root_ns;
      result.coverage.emplace_back(static_cast<Stage>(root), share);
      coverage = std::min(coverage, share);
    }
  }
  for (const Tracer* t : tracers) {
    for (size_t s = 0; s < kNumStages; ++s) {
      stage[s].Merge(t->durations(static_cast<Stage>(s)));
    }
  }
  const auto us = [&stage](Stage s, double q) {
    return stage[static_cast<size_t>(s)].QuantileNs(q) / 1e3;
  };
  auto& m = result.metrics;
  m = {
      {"serve.pin_us", us(Stage::kPin, 0.5)},
      {"serve.cache.lookup_us", us(Stage::kCacheLookup, 0.5)},
      {"serve.cache.insert_us", us(Stage::kCacheInsert, 0.5)},
      {"reach.rewrite_us", us(Stage::kRewrite, 0.5)},
      {"reach.search_us_p50", us(Stage::kReachSearch, 0.5)},
      {"reach.search_us_p99", us(Stage::kReachSearch, 0.99)},
      {"pattern.match_us_p50", us(Stage::kPatternMatch, 0.5)},
      {"pattern.match_us_p99", us(Stage::kPatternMatch, 0.99)},
      {"core.expand_us", us(Stage::kExpand, 0.5)},
      {"serve.router.reach_us_p50", us(Stage::kRouterReach, 0.5)},
      {"serve.router.reach_us_p99", us(Stage::kRouterReach, 0.99)},
      {"serve.router.stitch_ms", us(Stage::kStitch, 0.5) / 1e3},
      {"pattern.matched_frac",
       RatioOrZero(static_cast<double>(match.boolean_matched),
                   static_cast<double>(match.boolean_traced))},
      {"core.answer_pairs",
       RatioOrZero(static_cast<double>(match.answer_pairs),
                   static_cast<double>(match.full_traced))},
      {"serve.apply_ms_p50", writer.Quantile("apply", 0.5, 1e6)},
      {"serve.apply_ms_p90", writer.Quantile("apply", 0.9, 1e6)},
      {"serve.publish.freeze_ms", writer.Quantile("freeze", 0.5, 1e6)},
      {"serve.publish.swap_us", writer.Quantile("swap", 0.5, 1e3)},
      {"serve.publish.summary_freeze_ms",
       writer.Quantile("summary_freeze", 0.5, 1e6)},
      {"serve.publish.froze_pattern_frac",
       RatioOrZero(static_cast<double>(writer.pattern_freezes),
                   static_cast<double>(writer.publishes))},
      {"serve.writer_late_ms", writer.Quantile("late", 0.9, 1e6)},
      {"storage.save_ms", writer.Quantile("save", 0.5, 1e6)},
      {"storage.open_us", writer.Quantile("open", 0.5, 1e3)},
      {"storage.first_query_us", writer.Quantile("first_query", 0.5, 1e3)},
      {"storage.cold_start_us", writer.Quantile("cold_start", 0.5, 1e3)},
      {"trace.coverage", coverage},
      {"trace.overhead",
       RatioOrZero(static_cast<double>(reach_traced) /
                       reach_schedule.traced_secs(),
                   reach_slices.MedianQps())},
  };
  for (auto& counter : sys.LayerCounters()) m.push_back(std::move(counter));

  // The traced window's batches replayed one layer at a time, on fresh
  // state.
  NamedValues compress;
  const std::vector<ReplayBatch> replay =
      sys.Replay(std::min<size_t>(writer.first_traced, writer.applied),
                 writer.applied, &compress);
  for (auto& value : compress) m.push_back(std::move(value));
  std::vector<double> apply_us, rcm, pcm, freeze, kept, cone_r, cone_p;
  double rcm_sampled = 0, pcm_sampled = 0, recompress_r = 0, recompress_b = 0;
  for (const ReplayBatch& b : replay) {
    apply_us.push_back(b.apply_batch_us);
    rcm.push_back(b.rcm_ms);
    pcm.push_back(b.pcm_ms);
    freeze.push_back(b.freeze_ms);
    kept.push_back(b.kept_frac);
    cone_r.push_back(b.rcm_cone_frac);
    cone_p.push_back(b.pcm_cone_frac);
    if (b.compress_r_ms >= 0) {
      rcm_sampled += b.rcm_ms;
      pcm_sampled += b.pcm_ms;
      recompress_r += b.compress_r_ms;
      recompress_b += b.compress_b_ms;
    }
  }
  m.insert(m.end(),
           {
               {"graph.apply_batch_us", Median(apply_us)},
               {"inc.rcm_ms", Median(rcm)},
               {"inc.pcm_ms", Median(pcm)},
               {"inc.freeze_ms", Median(freeze)},
               {"inc.kept_frac", Median(kept)},
               {"inc.rcm_cone_frac", Median(cone_r)},
               {"inc.pcm_cone_frac", Median(cone_p)},
               {"inc.rcm_over_recompute", RatioOrZero(rcm_sampled, recompress_r)},
               {"inc.pcm_over_recompute", RatioOrZero(pcm_sampled, recompress_b)},
           });

  result.self_times = SelfTimes(tracers);
  const std::string trace_path = opt.out + "/trace-" + spec.name + "-seed" +
                                 std::to_string(opt.seed) + ".json";
  if (!WriteChromeTrace(trace_path, tracers)) {
    std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
  }
  std::filesystem::remove_all(artifact_dir, ec);
  return result;
}

// `"name": value` pairs, comma-separated.
std::string JsonFields(const NamedValues& kv) {
  std::string json;
  char buf[128];
  for (size_t i = 0; i < kv.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.17g", i == 0 ? "" : ", ",
                  kv[i].first.c_str(), kv[i].second);
    json += buf;
  }
  return json;
}

std::string ResultJson(const RunResult& r) {
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {" + JsonFields(r.metrics) + "}}";
  return json;
}

bool WriteResultFile(const WorkloadSpec& spec, const Options& opt,
                     const RunResult& r) {
  const std::string path = opt.out + "/result-" + spec.name + "-seed" +
                           std::to_string(opt.seed) +
                           (opt.trace ? "-trace" : "") + ".json";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::string json = ResultJson(r);
  json.pop_back();  // reopen the object to add the run details
  json += ", \"workload\": \"" + std::string(spec.name) + "\"";
  json += ", \"seed\": " + std::to_string(opt.seed);
  json += ", \"seconds\": " + std::to_string(opt.seconds);
  json += ", \"trace\": " + std::string(opt.trace ? "true" : "false");
  json += ", \"error_rate\": " +
          std::to_string(RatioOrZero(static_cast<double>(r.failed),
                                     static_cast<double>(r.attempted)));
  json += ", \"samples\": {" + JsonFields(r.details) + "}";
  json += ", \"coverage\": {";
  for (size_t i = 0; i < r.coverage.size(); ++i) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.6g", i == 0 ? "" : ", ",
                  StageName(r.coverage[i].first), r.coverage[i].second);
    json += buf;
  }
  json += "}";
  json += ", \"self_times\": {";
  for (size_t i = 0; i < r.self_times.size(); ++i) {
    const SelfTime& s = r.self_times[i];
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"count\": %llu, \"p50_us\": %.6g, "
                  "\"p99_us\": %.6g}",
                  i == 0 ? "" : ", ", StageName(s.stage),
                  static_cast<unsigned long long>(s.count), s.p50_us,
                  s.p99_us);
    json += buf;
  }
  json += "}}\n";
  std::fputs(json.c_str(), f);
  return std::fclose(f) == 0;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const std::string value = argv[i + 1];
    if (arg == "--workload") {
      opt->workload = nullptr;
      for (const WorkloadSpec& w : kWorkloads) {
        if (value == w.name) opt->workload = &w;
      }
      if (opt->workload == nullptr) {
        std::fprintf(stderr, "unknown workload %s\n", value.c_str());
        return false;
      }
    } else if (arg == "--seed") {
      opt->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt->seconds = std::atof(value.c_str());
      if (!(opt->seconds > 0)) return false;
    } else if (arg == "--trace" && (value == "0" || value == "1")) {
      opt->trace = value == "1";
    } else if (arg == "--out") {
      opt->out = value;
    } else {
      std::fprintf(stderr, "bad argument %s %s\n", arg.c_str(), value.c_str());
      return false;
    }
  }
  return argc % 2 == 1;  // every flag has its value
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: qpgc_e2e [--workload NAME] [--seed N] [--seconds S] "
                 "[--trace 0|1] [--out DIR]\n");
    return 2;
  }
  bool all_correct = true;
  for (const WorkloadSpec& spec : kWorkloads) {
    if (opt.workload != nullptr && opt.workload != &spec) continue;
    const RunResult r = RunWorkload(spec, opt);
    if (!r.ok) return 2;
    std::printf("# %s seed=%llu seconds=%g trace=%d\n", spec.name,
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    for (const auto& [name, value] : r.metrics) {
      std::printf("%-34s %16.6g\n", name.c_str(), value);
    }
    for (const auto& [name, value] : r.details) {
      std::printf("# %-32s %16.6g\n", name.c_str(), value);
    }
    if (!WriteResultFile(spec, opt, r)) {
      std::fprintf(stderr, "cannot write a result file under %s\n",
                   opt.out.c_str());
    }
    std::printf("%s\n", ResultJson(r).c_str());
    std::fflush(stdout);
    all_correct = all_correct && r.correct;
  }
  return all_correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
