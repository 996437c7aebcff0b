// Copyright 2026 The QPGC Authors.
//
// Spans for the traced run. The benchmark records them from its own files,
// around each call it makes into a layer: a request is a root span, each
// layer call inside it a child span. Every traced request feeds per-stage
// duration histograms and the coverage sums; 1 in `sample_every` requests
// also keeps its spans, in a buffer preallocated per thread, for the Chrome
// trace written at exit. Nothing here locks: one Tracer per thread.

#ifndef QPGC_BENCH_E2E_TRACE_H_
#define QPGC_BENCH_E2E_TRACE_H_

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stats.h"

namespace e2e {

/// Every span name. The first three are request roots.
enum class Stage : uint8_t {
  kReachRequest,
  kMatchRequest,
  kWriterCycle,
  kPin,
  kRewrite,
  kCacheLookup,
  kCacheInsert,
  kReachSearch,
  kRouterReach,
  kStitch,
  kPatternMatch,
  kExpand,
  kApply,
  kPublish,
  kSave,
  kOpen,
  kFirstQuery,
  kSwap,
  kUnlink,
  kCount,
};
inline constexpr size_t kNumStages = static_cast<size_t>(Stage::kCount);
inline constexpr size_t kNumRoots = 3;

const char* StageName(Stage stage);

/// Nanoseconds on the steady clock since the first call in the process.
uint64_t NowNs();

struct SpanRecord {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t request = 0;
  int32_t parent = -1;  // index into the same buffer; -1 for a root
  Stage stage = Stage::kCount;
};

class Tracer {
 public:
  /// Keeps the spans of 1 in `sample_every` requests, at most
  /// `span_capacity` of them.
  Tracer(uint32_t thread_id, uint32_t sample_every, size_t span_capacity);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void BeginRequest(Stage root);
  void EndRequest();

  uint32_t thread_id() const { return thread_id_; }
  const LatencyHistogram& durations(Stage stage) const {
    return durations_[static_cast<size_t>(stage)];
  }
  /// Summed durations of root spans of one kind, and of their direct
  /// children: the coverage of that request kind is children / roots.
  uint64_t root_ns(Stage root) const {
    return root_ns_[static_cast<size_t>(root)];
  }
  uint64_t child_ns(Stage root) const {
    return child_ns_[static_cast<size_t>(root)];
  }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  friend class Span;

  // Opens a span; returns its buffer index, or -1 when not kept.
  int32_t Open(Stage stage, uint64_t start_ns);
  void Close(int32_t index, Stage stage, uint64_t start_ns, uint64_t end_ns);

  const uint32_t thread_id_;
  const uint32_t sample_every_;
  const size_t span_capacity_;
  std::vector<SpanRecord> spans_;
  std::vector<LatencyHistogram> durations_;
  std::array<uint64_t, kNumRoots> root_ns_{};
  std::array<uint64_t, kNumRoots> child_ns_{};

  uint64_t requests_ = 0;
  bool sampled_ = false;
  int depth_ = 0;
  int32_t root_index_ = -1;
  Stage root_stage_ = Stage::kCount;
  uint64_t root_start_ = 0;
  uint64_t children_ = 0;
  // Child durations of the open request, recorded at EndRequest.
  std::array<std::pair<Stage, uint64_t>, 16> pending_{};
  size_t num_pending_ = 0;
};

/// A child span around one layer call. With a null tracer it does nothing
/// (Next returns 0), so the untraced path pays no clock reads.
class Span {
 public:
  Span(Tracer* tracer, Stage stage);
  ~Span() { End(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the current stage and opens `stage` at the same instant, so
  /// back-to-back layer calls leave no gap between their spans. Returns the
  /// closed stage's duration in nanoseconds.
  uint64_t Next(Stage stage);
  /// Closes the span (once).
  void End();

 private:
  Tracer* tracer_;
  Stage stage_;
  uint64_t start_ = 0;
  int32_t index_ = -1;
  bool open_ = false;
};

/// Writes every kept span of `tracers` as Chrome trace JSON ("X" events).
bool WriteChromeTrace(const std::string& path,
                      const std::vector<const Tracer*>& tracers);

/// Self time (duration minus the time its children cover) of the kept
/// spans, per stage: count, p50 and p99 in microseconds.
struct SelfTime {
  Stage stage;
  uint64_t count;
  double p50_us;
  double p99_us;
};
std::vector<SelfTime> SelfTimes(const std::vector<const Tracer*>& tracers);

}  // namespace e2e

#endif  // QPGC_BENCH_E2E_TRACE_H_
