// Copyright 2026 The QPGC Authors.
//
// QueryService: the thin read-path facade over a SnapshotManager. Each call
// pins the current published snapshot once and routes the query against it,
// so a query always sees one consistent version even while the writer keeps
// publishing. Callers that issue several queries against the same version
// should Pin() once and query the snapshot directly.
//
// Thread-safety contract: any number of threads may share one QueryService
// concurrently with the manager's single writer; every entry point is a
// lock-free snapshot pin plus read-only evaluation. The referenced
// SnapshotManager must outlive the service; pinned snapshots returned by
// Pin() may outlive both (see serve/snapshot.h). The sharded counterpart
// with the same surface is ShardedQueryService (serve/router.h). The
// serving layer's capability model is documented in docs/CONCURRENCY.md.

#ifndef QPGC_SERVE_QUERY_SERVICE_H_
#define QPGC_SERVE_QUERY_SERVICE_H_

#include <memory>

#include "serve/snapshot_manager.h"

namespace qpgc {

/// Pin-per-query facade over one SnapshotManager (see file comment for the
/// thread-safety and lifetime contracts).
class QueryService {
 public:
  explicit QueryService(const SnapshotManager& manager) : manager_(manager) {}

  /// Pins the current snapshot (for multi-query consistency). The snapshot
  /// stays valid and immutable for as long as the handle lives, across any
  /// number of later publishes.
  std::shared_ptr<const ServingSnapshot> Pin() const {
    return manager_.Acquire();
  }

  /// QR(u, v) against the current snapshot.
  bool Reach(NodeId u, NodeId v, PathMode mode = PathMode::kReflexive) const;

  /// Maximum match of q against the current snapshot, expanded via P.
  MatchResult Match(const PatternQuery& q) const;

  /// Boolean pattern query against the current snapshot.
  bool BooleanMatch(const PatternQuery& q) const;

 private:
  const SnapshotManager& manager_;
};

}  // namespace qpgc

#endif  // QPGC_SERVE_QUERY_SERVICE_H_
