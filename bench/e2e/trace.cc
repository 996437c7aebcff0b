// Copyright 2026 The QPGC Authors.

#include "trace.h"

#include <chrono>
#include <cstdio>

namespace e2e {

const char* StageName(Stage stage) {
  static constexpr const char* kNames[kNumStages] = {
      "request.reach", "request.match", "request.writer_cycle",
      "serve.pin",     "reach.rewrite", "serve.cache.lookup",
      "serve.cache.insert", "reach.search", "serve.router.reach",
      "serve.router.stitch", "pattern.match", "core.expand",
      "serve.apply",   "serve.publish", "storage.save",
      "storage.open",  "storage.first_query", "serve.swap",
      "storage.unlink",
  };
  return kNames[static_cast<size_t>(stage)];
}

uint64_t NowNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch)
          .count());
}

Tracer::Tracer(uint32_t thread_id, uint32_t sample_every, size_t span_capacity)
    : thread_id_(thread_id),
      sample_every_(sample_every == 0 ? 1 : sample_every),
      span_capacity_(span_capacity),
      durations_(kNumStages) {
  spans_.reserve(span_capacity_);
}

void Tracer::BeginRequest(Stage root) {
  sampled_ = requests_ % sample_every_ == 0 &&
             spans_.size() + 8 <= span_capacity_;
  ++requests_;
  root_stage_ = root;
  children_ = 0;
  num_pending_ = 0;
  depth_ = 1;
  root_index_ = -1;
  if (sampled_) {
    root_index_ = static_cast<int32_t>(spans_.size());
    spans_.push_back(
        {0, 0, (uint64_t{thread_id_} << 40) | requests_, -1, root});
  }
  // Bookkeeping first, clock last: the root covers only the request.
  root_start_ = NowNs();
  if (root_index_ >= 0) {
    spans_[static_cast<size_t>(root_index_)].start_ns = root_start_;
  }
}

void Tracer::EndRequest() {
  const uint64_t end = NowNs();
  const uint64_t duration = end - root_start_;
  const size_t r = static_cast<size_t>(root_stage_);
  durations_[r].Record(duration);
  root_ns_[r] += duration;
  child_ns_[r] += children_;
  for (size_t i = 0; i < num_pending_; ++i) {
    durations_[static_cast<size_t>(pending_[i].first)].Record(
        pending_[i].second);
  }
  if (root_index_ >= 0) spans_[static_cast<size_t>(root_index_)].end_ns = end;
  depth_ = 0;
  sampled_ = false;
  root_index_ = -1;
}

int32_t Tracer::Open(Stage stage, uint64_t start_ns) {
  ++depth_;
  if (!sampled_ || spans_.size() >= span_capacity_) return -1;
  spans_.push_back({start_ns, start_ns, (uint64_t{thread_id_} << 40) | requests_,
                    root_index_, stage});
  return static_cast<int32_t>(spans_.size() - 1);
}

void Tracer::Close(int32_t index, Stage stage, uint64_t start_ns,
                   uint64_t end_ns) {
  const uint64_t duration = end_ns - start_ns;
  // Inside a request the histogram update waits for EndRequest, after the
  // root's clock stops, so it is not billed to the request.
  if (depth_ >= 2 && num_pending_ < pending_.size()) {
    pending_[num_pending_++] = {stage, duration};
  } else {
    durations_[static_cast<size_t>(stage)].Record(duration);
  }
  // Only spans directly under the request root count toward its coverage.
  if (depth_ == 2) children_ += duration;
  --depth_;
  if (index >= 0) spans_[static_cast<size_t>(index)].end_ns = end_ns;
}

Span::Span(Tracer* tracer, Stage stage) : tracer_(tracer), stage_(stage) {
  if (tracer_ == nullptr) return;
  start_ = NowNs();
  index_ = tracer_->Open(stage_, start_);
  open_ = true;
}

uint64_t Span::Next(Stage stage) {
  if (!open_) return 0;
  const uint64_t now = NowNs();
  const uint64_t duration = now - start_;
  tracer_->Close(index_, stage_, start_, now);
  stage_ = stage;
  start_ = now;
  index_ = tracer_->Open(stage_, start_);
  return duration;
}

void Span::End() {
  if (!open_) return;
  open_ = false;
  tracer_->Close(index_, stage_, start_, NowNs());
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<const Tracer*>& tracers) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  for (const Tracer* t : tracers) {
    for (const SpanRecord& s : t->spans()) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu}}",
                   first ? "" : ",\n", StageName(s.stage), t->thread_id(),
                   static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.request));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

std::vector<SelfTime> SelfTimes(const std::vector<const Tracer*>& tracers) {
  std::vector<LatencyHistogram> self(kNumStages);
  for (const Tracer* t : tracers) {
    const std::vector<SpanRecord>& spans = t->spans();
    std::vector<uint64_t> covered(spans.size(), 0);
    for (const SpanRecord& s : spans) {
      if (s.parent >= 0) {
        covered[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const uint64_t duration = spans[i].end_ns - spans[i].start_ns;
      self[static_cast<size_t>(spans[i].stage)].Record(
          duration > covered[i] ? duration - covered[i] : 0);
    }
  }
  std::vector<SelfTime> rows;
  for (size_t i = 0; i < kNumStages; ++i) {
    if (self[i].count() == 0) continue;
    rows.push_back({static_cast<Stage>(i), self[i].count(),
                    self[i].QuantileNs(0.5) / 1e3,
                    self[i].QuantileNs(0.99) / 1e3});
  }
  return rows;
}

}  // namespace e2e
