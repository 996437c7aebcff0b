// Copyright 2026 The QPGC Authors.

#include "serve/snapshot_manager.h"

#include <utility>

#include "util/common.h"

namespace qpgc {

namespace {

// Freezes one artifact into a pooled (or fresh) side buffer and wraps it in
// a handle whose deleter hands the buffer back to the pool when the last
// snapshot sharing it retires. That final refcount drop synchronizes with
// the next take, so a later freeze's writes can never race a straggling
// reader's reads.
template <typename Side, typename Artifact, typename TakeFn, typename GiveFn>
std::shared_ptr<const Side> FreezeSide(const Artifact& artifact, TakeFn take,
                                       GiveFn give_back, PublishStats& stats) {
  std::unique_ptr<Side> buf = take();
  if (buf != nullptr) {
    stats.reused_buffer = true;
  } else {
    buf = std::make_unique<Side>();
  }
  buf->Fill(artifact);
  return std::shared_ptr<const Side>(
      buf.release(), [give_back](const Side* p) {
        give_back(std::unique_ptr<Side>(const_cast<Side*>(p)));
      });
}

}  // namespace

template <typename T>
std::unique_ptr<T> SnapshotManager::BufferPool::TakeSpareLocked(
    std::vector<std::unique_ptr<T>>& spares) {
  if (spares.empty()) return nullptr;
  std::unique_ptr<T> buf = std::move(spares.back());
  spares.pop_back();
  return buf;
}

template <typename T>
std::unique_ptr<T> SnapshotManager::BufferPool::StashSpareLocked(
    std::vector<std::unique_ptr<T>>& spares, std::unique_ptr<T> buf) {
  if (spares.size() < kMaxSpares) {
    spares.push_back(std::move(buf));
    return nullptr;
  }
  return buf;  // pool full: caller lets the excess die outside the lock
}

std::unique_ptr<ServingSnapshot> SnapshotManager::BufferPool::TakeShell() {
  MutexLock lock(mu_);
  return TakeSpareLocked(shells_);
}

void SnapshotManager::BufferPool::ReturnShell(
    std::unique_ptr<ServingSnapshot> shell) {
  std::unique_ptr<ServingSnapshot> excess;
  {
    MutexLock lock(mu_);
    excess = StashSpareLocked(shells_, std::move(shell));
  }
}

std::unique_ptr<FrozenReachSide> SnapshotManager::BufferPool::TakeReach() {
  MutexLock lock(mu_);
  return TakeSpareLocked(reach_spares_);
}

void SnapshotManager::BufferPool::ReturnReach(
    std::unique_ptr<FrozenReachSide> side) {
  std::unique_ptr<FrozenReachSide> excess;
  {
    MutexLock lock(mu_);
    excess = StashSpareLocked(reach_spares_, std::move(side));
  }
}

std::unique_ptr<FrozenPatternSide> SnapshotManager::BufferPool::TakePattern() {
  MutexLock lock(mu_);
  return TakeSpareLocked(pattern_spares_);
}

void SnapshotManager::BufferPool::ReturnPattern(
    std::unique_ptr<FrozenPatternSide> side) {
  std::unique_ptr<FrozenPatternSide> excess;
  {
    MutexLock lock(mu_);
    excess = StashSpareLocked(pattern_spares_, std::move(side));
  }
}

std::shared_ptr<const ServingSnapshot> SnapshotManager::Slot::load() const {
#ifdef QPGC_SERVE_ATOMIC_SLOT
  return ptr_.load(std::memory_order_acquire);
#else
  MutexLock lock(mu_);
  return ptr_;
#endif
}

void SnapshotManager::Slot::store(std::shared_ptr<const ServingSnapshot> p) {
#ifdef QPGC_SERVE_ATOMIC_SLOT
  ptr_.store(std::move(p), std::memory_order_release);
#else
  std::shared_ptr<const ServingSnapshot> doomed;
  {
    MutexLock lock(mu_);
    doomed = std::exchange(ptr_, std::move(p));
  }
  // The displaced reference (possibly the last one) drops outside the lock:
  // its deleter re-enters the buffer pool.
#endif
}

SnapshotManager::SnapshotManager(Graph g, SnapshotManagerOptions options)
    : g_(std::move(g)),
      options_(std::move(options)),
      rc_(CompressR(g_)),
      pc_(CompressB(g_)),
      pool_(std::make_shared<BufferPool>()) {
  Publish();  // version 1: Acquire() never returns null
}

SnapshotManager::SnapshotManager(Graph g, ReachCompression rc,
                                 PatternCompression pc,
                                 SnapshotManagerOptions options)
    : g_(std::move(g)),
      options_(std::move(options)),
      rc_(std::move(rc)),
      pc_(std::move(pc)),
      pool_(std::make_shared<BufferPool>()) {
  QPGC_CHECK(rc_.original_num_nodes == g_.num_nodes() &&
             pc_.original_num_nodes == g_.num_nodes());
  Publish();  // version 1: Acquire() never returns null
}

ApplyStats SnapshotManager::Apply(const UpdateBatch& batch) {
  return Apply(batch, nullptr);
}

ApplyStats SnapshotManager::Apply(
    const UpdateBatch& batch,
    const std::function<void(const UpdateBatch&)>& on_applied) {
  ApplyStats stats;
  const UpdateBatch effective = ApplyBatch(g_, batch);
  stats.effective_updates = effective.size();
  if (!effective.empty()) {
    stats.rcm = IncRCM(g_, effective, rc_);
    stats.pcm = IncPCM(g_, effective, pc_);
    pending_rcm_.Accumulate(stats.rcm);
    pending_pcm_.Accumulate(stats.pcm);
    pending_updates_ += effective.size();
  }
  // Publish-visible side state derived from the update stream (boundary-exit
  // refcounts in sharded serving) must update before a policy-triggered
  // publish can capture it.
  if (on_applied) on_applied(effective);
  if (ShouldAutoPublish()) {
    stats.published = true;
    stats.publish = Publish();
  }
  return stats;
}

PublishStats SnapshotManager::Publish(FreezeMode mode) {
  PublishStats stats;
  stats.version = ++version_;
  stats.updates_included = pending_updates_;

  // The previous snapshot: the source of shared sides under FreezeMode::kAuto
  // (pinning it here briefly delays its retirement past the swap, which is
  // harmless).
  const std::shared_ptr<const ServingSnapshot> prev = current_.load();
  // An artifact whose accumulated incremental stats kept no updates since
  // the last publish is bit-identical to the published one (reduced updates
  // are dropped *before* the artifact is touched), so the previous side can
  // be shared instead of refrozen.
  const bool freeze_reach = mode == FreezeMode::kFull || prev == nullptr ||
                            pending_rcm_.kept_updates > 0;
  const bool freeze_pattern = mode == FreezeMode::kFull || prev == nullptr ||
                              pending_pcm_.kept_updates > 0;

  // Freeze off the read path: readers keep running on the published
  // snapshot while the inactive buffers fill.
  Timer freeze_timer;
  std::shared_ptr<const FrozenReachSide> reach;
  if (freeze_reach) {
    stats.froze_reach = true;
    reach = FreezeSide<FrozenReachSide>(
        rc_, [this] { return pool_->TakeReach(); },
        [pool = pool_](std::unique_ptr<FrozenReachSide> buf) {
          pool->ReturnReach(std::move(buf));
        },
        stats);
  } else {
    reach = prev->reach_side();
  }
  std::shared_ptr<const FrozenPatternSide> pattern;
  if (freeze_pattern) {
    stats.froze_pattern = true;
    pattern = FreezeSide<FrozenPatternSide>(
        pc_, [this] { return pool_->TakePattern(); },
        [pool = pool_](std::unique_ptr<FrozenPatternSide> buf) {
          pool->ReturnPattern(std::move(buf));
        },
        stats);
  } else {
    pattern = prev->pattern_side();
  }

  std::shared_ptr<const std::vector<NodeId>> exits;
  if (options_.boundary_exits_provider) {
    exits = options_.boundary_exits_provider();
  }
  std::shared_ptr<const std::vector<NodeId>> entries;
  if (options_.boundary_entries_provider) {
    entries = options_.boundary_entries_provider();
  }

  // The boundary summary (sharded serving only) is a pure function of the
  // frozen reach quotient and the boundary sets, so it shares the sides'
  // reuse story: when none of its three inputs moved, the previous
  // version's summary carries over by pointer; otherwise it is rebuilt —
  // two linear passes over the quotient (serve/boundary_summary.h), timed
  // separately as the publish-cost delta the artifact adds.
  std::shared_ptr<const FrozenBoundarySummary> summary;
  if (exits != nullptr && entries != nullptr) {
    const FrozenBoundarySummary* prev_summary =
        prev == nullptr ? nullptr : prev->boundary_summary();
    if (!freeze_reach && prev_summary != nullptr &&
        prev->boundary_exits_ptr() == exits &&
        prev_summary->entries_ptr() == entries) {
      summary = prev->boundary_summary_side();
    } else {
      stats.froze_summary = true;
      Timer summary_timer;
      auto built = std::make_shared<FrozenBoundarySummary>();
      built->Build(reach->gr, reach->node_map, std::move(exits),
                   std::move(entries));
      summary = std::move(built);
      stats.summary_freeze_secs = summary_timer.ElapsedSeconds();
      exits = summary->exits_ptr();
    }
  }

  std::unique_ptr<ServingSnapshot> shell = pool_->TakeShell();
  if (shell == nullptr) shell = std::make_unique<ServingSnapshot>();
  shell->Adopt(version_, std::move(reach), std::move(pattern),
               std::move(exits), std::move(summary));
  stats.freeze_secs = freeze_timer.ElapsedSeconds();

  // Wrap the shell in a handle whose deleter releases its side shares and
  // returns it to the pool when the last reader drops it.
  ServingSnapshot* raw = shell.release();
  std::shared_ptr<const ServingSnapshot> handle(
      raw, [pool = pool_](const ServingSnapshot* p) {
        ServingSnapshot* shell = const_cast<ServingSnapshot*>(p);
        shell->Reset();  // drop side shares first: unshared sides recycle
        pool->ReturnShell(std::unique_ptr<ServingSnapshot>(shell));
      });

  // The swap itself: one O(1) pointer store, independent of graph size. The
  // displaced snapshot retires whenever its last reader lets go.
  Timer swap_timer;
  current_.store(std::move(handle));
  stats.swap_secs = swap_timer.ElapsedSeconds();

  pending_updates_ = 0;
  pending_rcm_ = {};
  pending_pcm_ = {};
  staleness_timer_.Restart();
  return stats;
}

bool SnapshotManager::ShouldAutoPublish() const {
  switch (options_.policy.mode) {
    case PublishPolicy::Mode::kManual:
      return false;
    case PublishPolicy::Mode::kEveryNUpdates:
      return pending_updates_ >= options_.policy.updates_per_publish;
    case PublishPolicy::Mode::kStalenessBounded:
      return pending_updates_ > 0 &&
             staleness_timer_.ElapsedSeconds() >=
                 options_.policy.max_staleness_secs;
  }
  QPGC_CHECK(false);
  return false;
}

std::shared_ptr<const ServingSnapshot> SnapshotManager::Acquire() const {
  return current_.load();
}

}  // namespace qpgc
