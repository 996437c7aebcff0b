// Copyright 2026 The QPGC Authors.
//
// Shared helpers for the experiment harnesses: fixed-width table printing,
// timing, and the paper-vs-measured reporting conventions used by every
// bench binary. Each binary reproduces one table or figure of the paper and
// prints the same rows/series, with the paper's published value alongside
// where one exists (absolute numbers are not expected to match — the
// datasets are scaled stand-ins — but the shape should).

#ifndef QPGC_BENCH_BENCH_UTIL_H_
#define QPGC_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "util/timer.h"

namespace qpgc::bench {

/// Prints a banner naming the experiment and its paper anchor.
void Banner(const std::string& experiment, const std::string& paper_ref);

/// Prints a separator line.
void Rule();

/// Times one invocation of fn, in seconds.
double TimeOnce(const std::function<void()>& fn);

/// Times fn over `reps` repetitions and returns average seconds.
double TimeAvg(const std::function<void()>& fn, int reps);

/// Median of a sample (upper median for an even count). A timing reported
/// as a median does not move when one repetition loses the CPU.
double Median(std::vector<double> v);

/// Formats a ratio as a percentage string like "5.97%".
std::string Pct(double ratio);

/// Formats seconds adaptively (s / ms / us).
std::string Secs(double seconds);

/// Records a named scalar result on stdout as "[metric] key=value".
/// run_benches collects these lines into the per-bench BENCH_*.json, so a
/// Metric call is what turns a printed number into a tracked one. Keys use
/// dots for hierarchy, e.g. "rcr.socEpinions" or "bfs_gr_secs.P2P".
void Metric(const std::string& key, double value);

}  // namespace qpgc::bench

#endif  // QPGC_BENCH_BENCH_UTIL_H_
