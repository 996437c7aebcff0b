// Copyright 2026 The QPGC Authors.

#include "reach/queries.h"

#include "util/rng.h"

namespace qpgc {

bool EvalReach(const Graph& g, NodeId u, NodeId v, PathMode mode,
               ReachAlgorithm algo) {
  return EvalReach<Graph>(g, u, v, mode, algo);
}

RewrittenReachQuery RewriteReachQuery(const ReachCompression& rc,
                                      const ReachQuery& q) {
  QPGC_CHECK(q.u < rc.node_map.size() && q.v < rc.node_map.size());
  return RewrittenReachQuery{rc.node_map[q.u], rc.node_map[q.v]};
}

bool AnswerOnCompressed(const ReachCompression& rc, const ReachQuery& q,
                        PathMode mode, ReachAlgorithm algo) {
  if (mode == PathMode::kReflexive && q.u == q.v) return true;
  const RewrittenReachQuery rq = RewriteReachQuery(rc, q);
  // All remaining cases reduce to non-empty reachability on Gr: distinct
  // classes are connected iff any (equivalently every) pair of their members
  // is; equal classes answer the diagonal through their self-loop.
  return EvalReach(*rc.gr, rq.u, rq.v, PathMode::kNonEmpty, algo);
}

std::vector<ReachQuery> RandomReachQueries(size_t n, size_t count,
                                           uint64_t seed) {
  QPGC_CHECK(n > 0);
  Rng rng(seed);
  std::vector<ReachQuery> queries(count);
  for (auto& q : queries) {
    q.u = static_cast<NodeId>(rng.Uniform(n));
    q.v = static_cast<NodeId>(rng.Uniform(n));
  }
  return queries;
}

}  // namespace qpgc
