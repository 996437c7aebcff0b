// Copyright 2026 The QPGC Authors.
//
// Query routing over sharded serving snapshots (serve/sharded_manager.h):
// the read-path half of sharded serving. Answers are *exact* — bit-identical
// to evaluating on the unsharded graph — for all three query classes:
//
//  * Reach(u, v): boundary-graph search over the frozen per-shard boundary
//    summaries (serve/boundary_summary.h). Any global path decomposes into
//    maximal within-shard segments stitched at ghost nodes (a segment's
//    edges all live in the shard owning its sources; the segment ends where
//    a non-owned target — a boundary exit — is reached). Three cases cover
//    a path u -> v: (1) it stays in shard_of(u) — resolved by ONE
//    multi-source sweep over that shard's full reach quotient, which also
//    seeds the boundary search with every exit u reaches; (2) it ends
//    exactly at a boundary node — detected when the search visits that
//    node; (3) its last segment starts at a visited entry owned by
//    shard_of(v) — resolved by one final multi-source sweep over
//    shard_of(v)'s quotient. Everything in between runs on the summaries:
//    each visited entry seeds its block's summary node, summary nodes
//    expand at most once per query, and stamped exit annotations become
//    entries of their home shards. An entry with no summary row (its first
//    cross-shard in-edge landed after its home shard's last publish) falls
//    back to a live quotient sweep, so exactness never depends on publish
//    ordering. Per query that is ~2 full sweeps plus a walk of the (much
//    smaller) pruned summaries — this is what closed the routed-reach
//    cliff; docs/SHARDING.md gives the full soundness argument.
//
//  * Match / BooleanMatch(q): evaluated on the *stitched pattern quotient*.
//    Ghost nodes carry per-node unique labels (graph/shard_view.h), so
//    every ghost is a singleton block of its shard's local bisimulation and
//    two owned nodes merge only when their cross-shard successors are
//    identical nodes. The union of the per-shard partitions (restricted to
//    owned nodes) is therefore a bisimulation on the WHOLE graph, and the
//    graph obtained by taking all owned blocks and redirecting edges into
//    ghost singletons to the ghost's home block is exactly the quotient of
//    the global graph by that bisimulation. Quotients by any bisimulation —
//    not just the maximum one — preserve bounded-simulation matches
//    (Theorem 4's proof only uses stability), so Match on the stitched
//    quotient, expanded through the per-shard member indexes, equals Match
//    on the original graph. The stitched quotient is built lazily once per
//    pinned version vector; the service-level StitchCache additionally
//    reuses it across version vectors whose pattern sides all carried over
//    (reach-only publishes) and counts per-shard segment reuse — the
//    stitch_reuse_ratio metric.
//
// Consistency model: each query pins one snapshot per shard (a version
// vector). Because shards own disjoint edge sets, ANY version vector is a
// legitimate global state — the graph whose shard-s edges are at shard s's
// version — so concurrent per-shard writers never produce a cut that
// corresponds to no graph. Callers needing multi-query consistency hold one
// PinnedShards across the queries.
//
// Thread-safety: ShardedQueryService and PinnedShards are safe for
// concurrent use from any number of reader threads. The service must not
// outlive its manager; a PinnedShards may (it owns shared handles to the
// snapshots and the partition). The pin-cache locking discipline is part of
// the statically enforced capability model in docs/CONCURRENCY.md.

#ifndef QPGC_SERVE_ROUTER_H_
#define QPGC_SERVE_ROUTER_H_

#include <memory>
#include <mutex>  // std::once_flag (the pin cache lock is qpgc::Mutex)
#include <utility>
#include <vector>

#include "graph/csr.h"
#include "graph/shard_view.h"
#include "pattern/match.h"
#include "pattern/pattern.h"
#include "serve/sharded_manager.h"
#include "serve/snapshot.h"
#include "util/lifetime_annotations.h"
#include "util/thread_annotations.h"

namespace qpgc {

/// The cross-shard pattern quotient stitched from per-shard frozen
/// bisimulation quotients (see file comment). Immutable once built.
struct StitchedPatternQuotient {
  /// The stitched quotient graph: one node per *owned* block across all
  /// shards, edges redirected through ghost singletons to home blocks.
  CsrGraph gr;
  /// origin[b] = (shard, local block id) of stitched node b — the key into
  /// that shard's member index for the expansion P.
  std::vector<std::pair<uint32_t, NodeId>> origin;
  /// node_map[v] = stitched block of original node v (via v's home shard).
  /// The expansion P reads only its length, |V|: answers expand through
  /// the shards' member indexes.
  std::vector<NodeId> node_map;
};

/// Builds the stitched quotient for one pinned snapshot vector. Exposed for
/// tests; queries normally go through PinnedShards, which builds and caches
/// it lazily.
StitchedPatternQuotient BuildStitchedPatternQuotient(
    const ShardPartition& part,
    const std::vector<std::shared_ptr<const ServingSnapshot>>& snaps);

class PinnedShards;
struct RouteTables;  // router.cc: per-shard boundary routing tables

/// Cross-pin stitch cache, one per ShardedQueryService. A publish bumps a
/// shard's version even when only its reach side moved, but the stitched
/// pattern quotient depends only on the frozen *pattern* sides — which are
/// pointer-shared across such versions (serve/snapshot_manager.h skips the
/// pattern refreeze when no pattern update was kept). The cache keys on
/// those pointers: when every shard's pattern side carried over, the
/// previous stitched quotient is returned outright; otherwise it rebuilds
/// and records how many per-shard segments carried over unchanged. The
/// reused/total segment counts are the stitch_reuse_ratio metric
/// (docs/SHARDING.md#incremental-stitch).
class StitchCache {
 public:
  struct Stats {
    /// Stitched quotients actually assembled / served straight from cache.
    uint64_t builds = 0;
    uint64_t full_reuses = 0;
    /// Per-shard segments considered across all Stitch() calls, and how
    /// many of them had an unchanged frozen pattern side.
    uint64_t segments_total = 0;
    uint64_t segments_reused = 0;

    double reuse_ratio() const {
      return segments_total == 0
                 ? 0.0
                 : static_cast<double>(segments_reused) / segments_total;
    }
  };

  /// Returns the stitched quotient for `snaps`, from cache when every
  /// shard's pattern side is unchanged. Thread-safe.
  std::shared_ptr<const StitchedPatternQuotient> Stitch(
      const ShardPartition& part,
      const std::vector<std::shared_ptr<const ServingSnapshot>>& snaps)
      QPGC_EXCLUDES(mu_);

  Stats stats() const QPGC_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::vector<std::shared_ptr<const FrozenPatternSide>> sides_
      QPGC_GUARDED_BY(mu_);
  std::shared_ptr<const StitchedPatternQuotient> stitched_
      QPGC_GUARDED_BY(mu_);
  Stats stats_ QPGC_GUARDED_BY(mu_);
};

/// A consistent pinned vector of per-shard snapshots with the query surface
/// of a single ServingSnapshot. Create via ShardedQueryService::Pin() (or
/// directly from AcquireAll() in tests). Non-copyable; share by shared_ptr.
class PinnedShards {
 public:
  /// `stitch_cache` may be null (tests / direct pins): the stitched
  /// quotient is then built from scratch for this pin.
  PinnedShards(std::shared_ptr<const ShardPartition> part,
               std::vector<std::shared_ptr<const ServingSnapshot>> snaps,
               std::shared_ptr<StitchCache> stitch_cache = nullptr);

  PinnedShards(const PinnedShards&) = delete;
  PinnedShards& operator=(const PinnedShards&) = delete;
  ~PinnedShards();  // out of line: RouteTables is incomplete here

  /// |V| of the (global) original graph.
  size_t original_num_nodes() const { return part_->num_nodes(); }
  /// Per-shard snapshot versions, index = shard id.
  std::vector<uint64_t> versions() const;
  /// True iff this pin holds exactly the given snapshots (version check,
  /// index-wise).
  bool SameVersions(
      const std::vector<std::shared_ptr<const ServingSnapshot>>& snaps) const;

  /// Global QR(u, v) via boundary-crossing search (see file comment).
  bool Reach(NodeId u, NodeId v, PathMode mode = PathMode::kReflexive) const;

  /// Global maximum match of q: Match on the stitched quotient, expanded
  /// through the per-shard member indexes, answer sets ascending.
  MatchResult Match(const PatternQuery& q) const;

  /// Global Boolean pattern query — stitched quotient, no expansion.
  bool BooleanMatch(const PatternQuery& q) const;

  /// Shard s's pinned snapshot / the partition (for direct shard-local
  /// access and stats). Valid while this pin lives — the pin-scope rule of
  /// docs/LIFETIMES.md applies to the whole version vector at once.
  const ServingSnapshot& shard(uint32_t s) const QPGC_LIFETIME_BOUND {
    return *snaps_[s];
  }
  uint32_t num_shards() const { return part_->num_shards; }
  const ShardPartition& partition() const QPGC_LIFETIME_BOUND {
    return *part_;
  }

  /// The stitched pattern quotient for this version vector (built on first
  /// use, then cached for the pin's lifetime; thread-safe).
  const StitchedPatternQuotient& stitched() const QPGC_LIFETIME_BOUND;

 private:
  /// Per-shard routing tables for the boundary search, laid out parallel to
  /// the frozen exit lists so the hot loops stream them sequentially
  /// instead of probing per-node hash/entry tables; built lazily once per
  /// version vector (router.cc has the layout).
  const RouteTables& route_tables() const QPGC_LIFETIME_BOUND;

  std::shared_ptr<const ShardPartition> part_;
  std::vector<std::shared_ptr<const ServingSnapshot>> snaps_;
  std::shared_ptr<StitchCache> stitch_cache_;
  mutable std::once_flag stitched_once_;
  mutable std::shared_ptr<const StitchedPatternQuotient> stitched_;
  mutable std::once_flag route_tables_once_;
  mutable std::unique_ptr<const RouteTables> route_tables_;
};

/// The sharded counterpart of QueryService: each call pins a version vector
/// once and routes against it. Pin() results are cached per version vector,
/// so the stitched quotient is rebuilt only when some shard published.
class ShardedQueryService {
 public:
  explicit ShardedQueryService(const ShardedSnapshotManager& manager)
      : manager_(manager), stitch_cache_(std::make_shared<StitchCache>()) {}

  /// Pins the current per-shard snapshots (for multi-query consistency).
  /// Returns the cached pin when no shard has published since.
  std::shared_ptr<const PinnedShards> Pin() const;

  /// Global QR(u, v) against the current version vector.
  bool Reach(NodeId u, NodeId v, PathMode mode = PathMode::kReflexive) const {
    return Pin()->Reach(u, v, mode);
  }

  /// Global maximum match against the current version vector.
  MatchResult Match(const PatternQuery& q) const { return Pin()->Match(q); }

  /// Global Boolean pattern query against the current version vector.
  bool BooleanMatch(const PatternQuery& q) const {
    return Pin()->BooleanMatch(q);
  }

  /// Stitched-quotient reuse counters across this service's pins (the
  /// stitch_reuse_ratio metric).
  StitchCache::Stats stitch_stats() const { return stitch_cache_->stats(); }

 private:
  const ShardedSnapshotManager& manager_;
  const std::shared_ptr<StitchCache> stitch_cache_;
  // Guards only the cached pin; queries run on the pinned snapshots
  // lock-free once Pin() returns.
  mutable Mutex pins_mu_;
  mutable std::shared_ptr<const PinnedShards> pins_
      QPGC_GUARDED_BY(pins_mu_);
};

}  // namespace qpgc

#endif  // QPGC_SERVE_ROUTER_H_
