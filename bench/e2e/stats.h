// Copyright 2026 The QPGC Authors.
//
// Latency histograms for the end-to-end benchmark. A client records one
// sample per request — about 100M per window on the cached reach path — so
// samples go into fixed-size log-linear buckets, never into vectors. Each
// thread owns its histograms; the harness merges them after the join.

#ifndef QPGC_BENCH_E2E_STATS_H_
#define QPGC_BENCH_E2E_STATS_H_

#include <cstdint>
#include <vector>

namespace e2e {

/// Nanosecond latency histogram with 128 linear sub-buckets per power of
/// two: a bucket is at most 1/128 of its lower bound wide, so any quantile
/// is within 1% of the recorded value. Not thread-safe; one per thread.
class LatencyHistogram {
 public:
  LatencyHistogram();

  void Record(uint64_t ns);
  void Merge(const LatencyHistogram& other);

  uint64_t count() const { return count_; }
  /// The q-quantile (0 <= q <= 1) in nanoseconds, interpolated linearly
  /// inside its bucket; 0 when empty.
  double QuantileNs(double q) const;

 private:
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
};

/// Median of `values` (0 when empty). Takes a copy: callers keep order.
double Median(std::vector<double> values);

}  // namespace e2e

#endif  // QPGC_BENCH_E2E_STATS_H_
