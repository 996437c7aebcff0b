// Copyright 2026 The QPGC Authors.
//
// ShardedSnapshotManager: K independent single-writer serving pipelines
// behind one facade. The input graph is node-partitioned (hash by default;
// graph/shard_view.h), every shard materializes its local subgraph — owned
// nodes with their full out-adjacency, plus ghost-labeled copies of the
// rest of the node universe — and runs its *own* SnapshotManager: its own
// dynamic source of truth, its own IncRCM/IncPCM maintenance, its own
// versioned snapshot publishing. Nothing is shared between shards on the
// write path, so K writer threads scale update throughput and publish work
// K-ways, and each shard's publish freezes a quotient ~1/K the size of the
// whole graph's.
//
// Cross-shard bookkeeping is limited to two structures per shard, both
// refcount tables over live cross-shard edges:
//  * the boundary-*exit* table — for each ghost node v, how many live
//    edges of this shard point at v. Written only by this shard's own
//    writer (every counted edge is one of this shard's edges), so it needs
//    no lock under the single-writer-per-shard contract.
//  * the boundary-*entry* table — for each owned node v, how many live
//    edges of *other* shards point at v. Updated by those shards' writers
//    (an edge (u, v) is applied by shard_of(u)'s writer) and read by this
//    shard's publish, so it is the one genuinely cross-thread structure
//    here and sits behind an annotated qpgc::Mutex.
// Snapshots of both (the sorted sets with refcount > 0) are frozen into
// every published ServingSnapshot via the manager options' boundary
// providers, together with the FrozenBoundarySummary built from them
// (serve/boundary_summary.h), so the router's boundary-graph search always
// walks boundary state consistent with the pinned version. Query routing
// and answer merging live in serve/router.h; the whole sharding story is
// docs/SHARDING.md. Single-writer-per-shard is a contract, not a lock —
// docs/CONCURRENCY.md lists which contracts are lock-checked and which are
// TSan-checked.
//
// Thread-safety contract:
//  * Construction: single thread.
//  * Writer side: at most one writer thread *per shard* may call
//    ApplyToShard(shard, ...) / PublishShard(shard, ...); distinct shards
//    are otherwise independent and may be driven concurrently (their only
//    touch point, the entry tables, is locked). The convenience
//    Apply()/PublishAll() drive every shard from the calling thread and
//    therefore require exclusive write access to all shards.
//  * Read side: AcquireAll() (and the router built on it) may be called
//    from any number of threads concurrently with all writers. Each
//    acquired snapshot is internally consistent; the vector is a cut of
//    per-shard versions, which is a legitimate global state because shards
//    own disjoint edge sets (any combination of per-shard states is the
//    graph whose shard-s edges are at shard s's version).
//  * Lifetime: the manager must outlive writer calls; acquired snapshots
//    (and PinnedShards built from them) may outlive the manager.

#ifndef QPGC_SERVE_SHARDED_MANAGER_H_
#define QPGC_SERVE_SHARDED_MANAGER_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "graph/shard_view.h"
#include "serve/snapshot_manager.h"
#include "util/lifetime_annotations.h"
#include "util/thread_annotations.h"

namespace qpgc {

struct ShardedManagerOptions {
  /// Number of shards K >= 1. K = 1 degenerates to a single SnapshotManager
  /// with no ghosts and empty exit tables (the differential baseline).
  uint32_t num_shards = 1;
  /// Seed of the hash partition (ignored by the other partitioners).
  uint64_t partition_seed = 0;
  /// How nodes are assigned to shards (graph/shard_view.h): hash (the
  /// structure-blind workhorse), contiguous id ranges (locality-friendly
  /// when ids correlate with structure), or the SCC-coarsened structure
  /// partitioner (docs/SHARDING.md discusses the trade-offs).
  PartitionerKind partitioner = PartitionerKind::kHash;
  /// Per-shard manager options (publish policy, compressR options). The
  /// boundary_exits_provider / boundary_entries_provider fields are
  /// overwritten per shard.
  SnapshotManagerOptions shard_options;
};

/// What one routed Apply() did, summed over the touched shards.
struct ShardedApplyStats {
  size_t effective_updates = 0;
  size_t shards_touched = 0;
  /// Policy-triggered publishes that fired inside this Apply().
  size_t publishes = 0;
};

class ShardedSnapshotManager {
 public:
  /// Partitions `g`, materializes the K shard subgraphs, compresses each,
  /// and publishes version 1 on every shard.
  explicit ShardedSnapshotManager(const Graph& g,
                                  ShardedManagerOptions options = {});

  ShardedSnapshotManager(const ShardedSnapshotManager&) = delete;
  ShardedSnapshotManager& operator=(const ShardedSnapshotManager&) = delete;

  // --- Writer side ----------------------------------------------------------

  /// Routes a global batch to its shards (SplitBatchByShard) and applies
  /// each sub-batch. Single global writer convenience; see the class
  /// comment for the per-shard threading contract.
  ShardedApplyStats Apply(const UpdateBatch& batch);

  /// Applies a shard-local batch (every update's source owned by `shard`)
  /// through that shard's SnapshotManager, maintaining the boundary-exit
  /// table before any policy-triggered publish. This is the entry point for
  /// per-shard writer threads.
  ApplyStats ApplyToShard(uint32_t shard, const UpdateBatch& batch);

  /// Publishes one shard / all shards.
  PublishStats PublishShard(uint32_t shard,
                            FreezeMode mode = FreezeMode::kAuto);
  std::vector<PublishStats> PublishAll(FreezeMode mode = FreezeMode::kAuto);

  /// Number of distinct ghost nodes this shard currently points at
  /// (writer-side inspection of the exit table).
  size_t BoundaryExitCount(uint32_t shard) const;

  /// Number of owned nodes of `shard` that other shards currently point at
  /// (inspection of the entry table; takes its lock, any thread).
  size_t BoundaryEntryCount(uint32_t shard) const;

  // --- Read side (any thread) -----------------------------------------------

  /// Pins the current snapshot of every shard (never null entries). Index
  /// i is shard i's snapshot. Prefer serve/router.h's ShardedQueryService,
  /// which wraps the vector in a query facade.
  std::vector<std::shared_ptr<const ServingSnapshot>> AcquireAll() const;

  uint32_t num_shards() const { return part_->num_shards; }
  const ShardPartition& partition() const QPGC_LIFETIME_BOUND {
    return *part_;
  }
  /// Shared handle for routers/pins that may outlive the manager.
  std::shared_ptr<const ShardPartition> partition_ptr() const { return part_; }

  /// Per-shard manager access (writer-side; same threading contract as the
  /// writer entry points above).
  SnapshotManager& shard(uint32_t s) QPGC_LIFETIME_BOUND { return *shards_[s]; }
  const SnapshotManager& shard(uint32_t s) const QPGC_LIFETIME_BOUND {
    return *shards_[s];
  }

 private:
  // Live cross-shard edge counts into each ghost node. Written only by the
  // owning shard's writer; published snapshots share an immutable sorted
  // copy that is rebuilt only when the exit *membership* changed (refcount
  // moves across zero) — refcount-only churn republishes the same vector.
  struct ExitTable {
    std::unordered_map<NodeId, uint32_t> refcount;
    std::shared_ptr<const std::vector<NodeId>> published;
    bool dirty = true;

    std::shared_ptr<const std::vector<NodeId>> Current();
  };

  // Live cross-shard edge counts into each *owned* node of one shard —
  // the mirror image of ExitTable, but written by the *other* shards'
  // writers (the shard owning an edge's source applies it), so everything
  // here is mutex-guarded; Current() shares the same
  // rebuild-only-on-membership-change vector discipline.
  struct EntryTable {
    Mutex mu;
    std::unordered_map<NodeId, uint32_t> refcount QPGC_GUARDED_BY(mu);
    std::shared_ptr<const std::vector<NodeId>> published QPGC_GUARDED_BY(mu);
    bool dirty QPGC_GUARDED_BY(mu) = true;

    std::shared_ptr<const std::vector<NodeId>> Current() QPGC_EXCLUDES(mu);
  };

  std::shared_ptr<const ShardPartition> part_;
  std::vector<std::unique_ptr<ExitTable>> exits_;
  std::vector<std::unique_ptr<EntryTable>> entries_;
  std::vector<std::unique_ptr<SnapshotManager>> shards_;
};

}  // namespace qpgc

#endif  // QPGC_SERVE_SHARDED_MANAGER_H_
