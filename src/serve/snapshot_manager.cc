// Copyright 2026 The QPGC Authors.

#include "serve/snapshot_manager.h"

#include <future>
#include <utility>

#include "util/common.h"

namespace qpgc {

namespace {

// A freshly allocated side frozen from `artifact`.
template <typename Side, typename Artifact>
std::shared_ptr<const Side> FreezeFresh(const Artifact& artifact) {
  auto side = std::make_shared<Side>();
  side->Fill(artifact);
  return side;
}

}  // namespace

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
  // The displaced reference (possibly the last one) drops outside the lock,
  // so freeing a retired snapshot never holds up Acquire().
#endif
}

SnapshotManager::SnapshotManager(Graph g, SnapshotManagerOptions options)
    : g_(std::move(g)), options_(std::move(options)) {
  // The two sides read only g_ and write only their own artifact, so
  // compressB runs on a second thread beside compressR (deferred onto this
  // one when no thread can start). The future's destructor joins it on
  // every path, so g_ outlives it even if CompressR throws.
  std::future<PatternCompression> pattern =
      std::async(std::launch::async | std::launch::deferred,
                 [this] { return CompressB(g_); });
  rc_ = CompressR(g_);
  pc_ = pattern.get();
  Publish();  // version 1: Acquire() never returns null
}

SnapshotManager::SnapshotManager(Graph g, ReachCompression rc,
                                 PatternCompression pc,
                                 SnapshotManagerOptions options)
    : g_(std::move(g)),
      options_(std::move(options)),
      rc_(std::move(rc)),
      pc_(std::move(pc)) {
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
    // IncPCM beside IncRCM, as in the constructor: both only read g_ and
    // `effective`, and get() joins the worker before anything reads pc_.
    std::future<IncPcmStats> pcm =
        std::async(std::launch::async | std::launch::deferred,
                   [&] { return IncPCM(g_, effective, pc_); });
    stats.rcm = IncRCM(g_, effective, rc_);
    stats.pcm = pcm.get();
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
  // (pinning it here delays its retirement past the swap: when no reader
  // holds it, this function frees it on return).
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
  // snapshot while the new sides fill.
  Timer freeze_timer;
  stats.froze_reach = freeze_reach;
  stats.froze_pattern = freeze_pattern;
  std::shared_ptr<const FrozenReachSide> reach =
      freeze_reach ? FreezeFresh<FrozenReachSide>(rc_) : prev->reach_side();
  std::shared_ptr<const FrozenPatternSide> pattern =
      freeze_pattern ? FreezeFresh<FrozenPatternSide>(pc_)
                     : prev->pattern_side();

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

  auto snap = std::make_shared<const ServingSnapshot>(
      version_, std::move(reach), std::move(pattern), std::move(exits),
      std::move(summary));
  stats.freeze_secs = freeze_timer.ElapsedSeconds();

  // The swap itself: one O(1) pointer store, independent of graph size. The
  // displaced snapshot is freed whenever its last handle lets go.
  Timer swap_timer;
  current_.store(std::move(snap));
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
