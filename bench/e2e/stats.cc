// Copyright 2026 The QPGC Authors.

#include "stats.h"

#include <algorithm>
#include <bit>

namespace e2e {
namespace {

constexpr int kSubBits = 7;
constexpr uint64_t kSub = uint64_t{1} << kSubBits;
// Values below kSub get one bucket each; every octave [2^e, 2^(e+1)) with
// e >= kSubBits gets kSub buckets.
constexpr size_t kBuckets = (64 - kSubBits + 1) * kSub;

size_t BucketOf(uint64_t v) {
  if (v < kSub) return static_cast<size_t>(v);
  const int e = 63 - std::countl_zero(v);
  const uint64_t sub = (v >> (e - kSubBits)) - kSub;
  return static_cast<size_t>((static_cast<uint64_t>(e - kSubBits + 1)
                              << kSubBits) + sub);
}

// [lower bound, width) of bucket i.
void BucketRange(size_t i, double* lo, double* width) {
  if (i < kSub) {
    *lo = static_cast<double>(i);
    *width = 1.0;
    return;
  }
  const int e = static_cast<int>(i >> kSubBits) + kSubBits - 1;
  const uint64_t sub = i & (kSub - 1);
  *lo = static_cast<double>((kSub + sub) << (e - kSubBits));
  *width = static_cast<double>(uint64_t{1} << (e - kSubBits));
}

}  // namespace

LatencyHistogram::LatencyHistogram() : counts_(kBuckets, 0) {}

void LatencyHistogram::Record(uint64_t ns) {
  ++counts_[BucketOf(ns)];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
}

double LatencyHistogram::QuantileNs(double q) const {
  if (count_ == 0) return 0.0;
  const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_);
  double cum = 0.0;
  for (size_t i = 0; i < kBuckets; ++i) {
    if (counts_[i] == 0) continue;
    const double c = static_cast<double>(counts_[i]);
    if (cum + c >= target) {
      if (i == 0) return 0.0;  // zeros are exact
      double lo = 0.0, width = 0.0;
      BucketRange(i, &lo, &width);
      return lo + width * std::max(0.0, target - cum) / c;
    }
    cum += c;
  }
  return 0.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace e2e
