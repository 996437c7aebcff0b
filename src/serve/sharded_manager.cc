// Copyright 2026 The QPGC Authors.

#include "serve/sharded_manager.h"

#include <algorithm>
#include <utility>

#include "util/common.h"

namespace qpgc {

namespace {

// The sorted keys of a live refcount map, shared by pointer and rebuilt only
// when `dirty` says the membership changed since the last call.
std::shared_ptr<const std::vector<NodeId>> SortedKeys(
    const std::unordered_map<NodeId, uint32_t>& refcount,
    std::shared_ptr<const std::vector<NodeId>>& published, bool& dirty) {
  if (dirty) {
    auto keys = std::make_shared<std::vector<NodeId>>();
    keys->reserve(refcount.size());
    for (const auto& [v, count] : refcount) {
      QPGC_DCHECK(count > 0);
      keys->push_back(v);
    }
    std::sort(keys->begin(), keys->end());
    published = std::move(keys);
    dirty = false;
  }
  return published;
}

}  // namespace

std::shared_ptr<const std::vector<NodeId>>
ShardedSnapshotManager::ExitTable::Current() {
  return SortedKeys(refcount, published, dirty);
}

std::shared_ptr<const std::vector<NodeId>>
ShardedSnapshotManager::EntryTable::Current() {
  MutexLock lock(mu);
  return SortedKeys(refcount, published, dirty);
}

ShardedSnapshotManager::ShardedSnapshotManager(const Graph& g,
                                               ShardedManagerOptions options) {
  QPGC_CHECK(options.num_shards >= 1);
  part_ = std::make_shared<const ShardPartition>(BuildPartition(
      options.partitioner, g, options.num_shards, options.partition_seed));

  exits_.resize(num_shards());
  entries_.resize(num_shards());
  for (uint32_t s = 0; s < num_shards(); ++s) {
    exits_[s] = std::make_unique<ExitTable>();
    entries_[s] = std::make_unique<EntryTable>();
  }
  // Seed both boundary tables from the initial cross-shard edges (still
  // single-threaded: no locks needed, but the annotations require them).
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const uint32_t su = part_->shard_of[u];
    for (const NodeId v : g.OutNeighbors(u)) {
      const uint32_t sv = part_->shard_of[v];
      if (sv == su) continue;
      ++exits_[su]->refcount[v];
      EntryTable& entry_table = *entries_[sv];
      MutexLock lock(entry_table.mu);
      ++entry_table.refcount[v];
    }
  }
  shards_.resize(num_shards());
  for (uint32_t s = 0; s < num_shards(); ++s) {
    // The providers bound here capture the tables, so even version 1
    // carries the right boundary sets (and their summary).
    ExitTable& exit_table = *exits_[s];
    EntryTable& entry_table = *entries_[s];
    SnapshotManagerOptions shard_options = options.shard_options;
    shard_options.boundary_exits_provider = [&exit_table] {
      return exit_table.Current();
    };
    shard_options.boundary_entries_provider = [&entry_table] {
      return entry_table.Current();
    };
    shards_[s] = std::make_unique<SnapshotManager>(
        MaterializeShard(g, *part_, s), std::move(shard_options));
  }
}

ShardedApplyStats ShardedSnapshotManager::Apply(const UpdateBatch& batch) {
  ShardedApplyStats stats;
  const std::vector<UpdateBatch> split = SplitBatchByShard(batch, *part_);
  for (uint32_t s = 0; s < num_shards(); ++s) {
    if (split[s].empty()) continue;
    ++stats.shards_touched;
    const ApplyStats applied = ApplyToShard(s, split[s]);
    stats.effective_updates += applied.effective_updates;
    stats.publishes += applied.published ? 1 : 0;
  }
  return stats;
}

ApplyStats ShardedSnapshotManager::ApplyToShard(uint32_t shard,
                                                const UpdateBatch& batch) {
  QPGC_CHECK(shard < num_shards());
  ExitTable& table = *exits_[shard];
  const ShardPartition& part = *part_;
  return shards_[shard]->Apply(batch, [&](const UpdateBatch& effective) {
    for (const EdgeUpdate& up : effective.updates) {
      QPGC_DCHECK(part.shard_of[up.u] == shard);
      const uint32_t target_shard = part.shard_of[up.v];
      if (target_shard == shard) continue;
      // This shard's exit table: lock-free under single-writer-per-shard.
      if (up.is_insert) {
        if (++table.refcount[up.v] == 1) table.dirty = true;
      } else {
        auto it = table.refcount.find(up.v);
        QPGC_CHECK(it != table.refcount.end() && it->second > 0);
        if (--it->second == 0) {
          table.refcount.erase(it);
          table.dirty = true;
        }
      }
      // The *target* shard's entry table: cross-thread (its owner's writer
      // publishes it), hence the lock. Note the target shard learns about
      // a new entry only at its own next publish; until then its frozen
      // summary has no row for it and the router falls back to a live
      // sweep for that entry (serve/router.cc) — exactness never depends
      // on publish ordering across shards.
      EntryTable& entry_table = *entries_[target_shard];
      MutexLock lock(entry_table.mu);
      if (up.is_insert) {
        if (++entry_table.refcount[up.v] == 1) entry_table.dirty = true;
      } else {
        auto it = entry_table.refcount.find(up.v);
        QPGC_CHECK(it != entry_table.refcount.end() && it->second > 0);
        if (--it->second == 0) {
          entry_table.refcount.erase(it);
          entry_table.dirty = true;
        }
      }
    }
  });
}

PublishStats ShardedSnapshotManager::PublishShard(uint32_t shard,
                                                  FreezeMode mode) {
  QPGC_CHECK(shard < num_shards());
  return shards_[shard]->Publish(mode);
}

std::vector<PublishStats> ShardedSnapshotManager::PublishAll(FreezeMode mode) {
  std::vector<PublishStats> stats;
  stats.reserve(num_shards());
  for (uint32_t s = 0; s < num_shards(); ++s) {
    stats.push_back(shards_[s]->Publish(mode));
  }
  return stats;
}

size_t ShardedSnapshotManager::BoundaryExitCount(uint32_t shard) const {
  QPGC_CHECK(shard < num_shards());
  return exits_[shard]->refcount.size();
}

size_t ShardedSnapshotManager::BoundaryEntryCount(uint32_t shard) const {
  QPGC_CHECK(shard < num_shards());
  EntryTable& table = *entries_[shard];
  MutexLock lock(table.mu);
  return table.refcount.size();
}

std::vector<std::shared_ptr<const ServingSnapshot>>
ShardedSnapshotManager::AcquireAll() const {
  std::vector<std::shared_ptr<const ServingSnapshot>> snaps;
  snaps.reserve(num_shards());
  for (uint32_t s = 0; s < num_shards(); ++s) {
    snaps.push_back(shards_[s]->Acquire());
  }
  return snaps;
}

}  // namespace qpgc
