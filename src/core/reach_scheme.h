// Copyright 2026 The QPGC Authors.
//
// The <R, F> facade for reachability preserving compression (Theorem 2):
// compression is quadratic-time (our implementation is faster in practice),
// rewriting is O(1), and no post-processing is needed. This class is the
// user-facing entry point; the pieces live in reach/.

#ifndef QPGC_CORE_REACH_SCHEME_H_
#define QPGC_CORE_REACH_SCHEME_H_

#include "reach/compress_r.h"
#include "reach/queries.h"
#include "util/lifetime_annotations.h"

namespace qpgc {

/// One-stop reachability preserving compression of a graph.
class ReachabilityPreservingCompression {
 public:
  /// Compresses g (runs compressR). Out of line: this is the scheme's one
  /// expensive entry point, and keeping it in reach_scheme.cc keeps the
  /// facade header cheap to include.
  explicit ReachabilityPreservingCompression(const Graph& g);

  /// The query rewriting function F (O(1)).
  RewrittenReachQuery Rewrite(const ReachQuery& q) const {
    return RewriteReachQuery(rc_, q);
  }

  /// Answers QR(u, v) on the compressed graph with a stock algorithm.
  bool Answer(const ReachQuery& q, PathMode mode = PathMode::kReflexive,
              ReachAlgorithm algo = ReachAlgorithm::kBfs) const {
    return AnswerOnCompressed(rc_, q, mode, algo);
  }

  /// The compression artifact (Gr, node map, member index, ranks).
  const ReachCompression& artifact() const QPGC_LIFETIME_BOUND { return rc_; }
  ReachCompression& mutable_artifact() QPGC_LIFETIME_BOUND { return rc_; }

  double CompressionRatio() const { return rc_.CompressionRatio(); }

 private:
  ReachCompression rc_;
};

}  // namespace qpgc

#endif  // QPGC_CORE_REACH_SCHEME_H_
