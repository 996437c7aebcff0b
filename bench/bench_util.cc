// Copyright 2026 The QPGC Authors.

#include "bench_util.h"

#include <algorithm>

namespace qpgc::bench {

void Banner(const std::string& experiment, const std::string& paper_ref) {
  std::printf("\n");
  Rule();
  std::printf("%s\n", experiment.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  Rule();
}

void Rule() {
  std::printf(
      "--------------------------------------------------------------------"
      "----------\n");
}

double TimeOnce(const std::function<void()>& fn) {
  Timer t;
  fn();
  return t.ElapsedSeconds();
}

double TimeAvg(const std::function<void()>& fn, int reps) {
  double total = 0.0;
  for (int i = 0; i < reps; ++i) total += TimeOnce(fn);
  return total / reps;
}

double Median(std::vector<double> v) {
  const auto mid = v.begin() + static_cast<ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

std::string Pct(double ratio) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f%%", ratio * 100.0);
  return std::string(buf);
}

void Metric(const std::string& key, double value) {
  std::printf("[metric] %s=%.9g\n", key.c_str(), value);
}

std::string Secs(double seconds) {
  char buf[32];
  if (seconds >= 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2fs", seconds);
  } else if (seconds >= 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.2fms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fus", seconds * 1e6);
  }
  return std::string(buf);
}

}  // namespace qpgc::bench
