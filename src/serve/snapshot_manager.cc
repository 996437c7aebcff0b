// Copyright 2026 The QPGC Authors.

#include "serve/snapshot_manager.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "graph/shard_view.h"
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
  has_ghosts_ = std::ranges::any_of(g_.labels(), IsGhostLabel);
  Compress(/*reach=*/true, /*pattern=*/true);
  Publish();  // version 1: Acquire() never returns null
}

SnapshotManager::SnapshotManager(Graph g, ReachCompression rc,
                                 PatternCompression pc,
                                 SnapshotManagerOptions options)
    : g_(std::move(g)),
      options_(std::move(options)),
      rc_(std::move(rc)),
      pc_(std::move(pc)) {
  QPGC_CHECK(rc_->original_num_nodes == g_.num_nodes() &&
             pc_->original_num_nodes == g_.num_nodes());
  has_ghosts_ = std::ranges::any_of(g_.labels(), IsGhostLabel);
  DropArtifactsThatDoNotPay();
  Publish();  // version 1: Acquire() never returns null
}

// The future's destructor joins a re-check in flight; it holds its own
// freeze, so nothing of this manager needs to outlive it.
SnapshotManager::~SnapshotManager() = default;

const ReachCompression& SnapshotManager::reach_artifact() const {
  QPGC_CHECK(rc_.has_value());
  return *rc_;
}

const PatternCompression& SnapshotManager::pattern_artifact() const {
  QPGC_CHECK(pc_.has_value());
  return *pc_;
}

void SnapshotManager::Compress(bool reach, bool pattern) {
  // The two sides read only g_ and write only their own artifact, so
  // compressB runs on a second thread beside compressR (deferred onto this
  // one when no thread can start). The future's destructor joins it on
  // every path, so g_ outlives it even if CompressR throws.
  std::future<PatternCompression> pattern_side;
  if (pattern) {
    pattern_side = std::async(std::launch::async | std::launch::deferred,
                              [this] { return CompressB(g_); });
  }
  if (reach) {
    rc_ = CompressR(g_);
    reach_measured_epoch_ = graph_epoch_;
    reach_dirty_ = true;
  }
  if (pattern) {
    pc_ = pattern_side.get();
    pattern_measured_epoch_ = graph_epoch_;
    pattern_dirty_ = true;
  }
  DropArtifactsThatDoNotPay();
}

void SnapshotManager::DropArtifactsThatDoNotPay() {
  if (rc_.has_value() && rc_->CompressionRatio() >= kIdentityRatio) {
    rc_.reset();
    reach_dirty_ = true;
  }
  if (pc_.has_value() && pc_->CompressionRatio() >= kIdentityRatio) {
    pc_.reset();
    pattern_dirty_ = true;
  }
}

void SnapshotManager::CollectRecheck() {
  if (!recheck_.valid()) return;
  // A re-check that could not get a thread was deferred: it runs here, on
  // the writer, as the sequential fallback.
  if (recheck_.wait_for(std::chrono::seconds(0)) ==
      std::future_status::timeout) {
    return;
  }
  AdoptRecheck(recheck_.get());
}

void SnapshotManager::WaitForRecheck() {
  if (recheck_.valid()) AdoptRecheck(recheck_.get());
}

void SnapshotManager::AdoptRecheck(Recheck found) {
  const bool moved = found.epoch != graph_epoch_;
  const bool reach_pays = found.rc.has_value();
  const bool pattern_pays = found.pc.has_value();
  if (found.reach) reach_measured_epoch_ = found.epoch;
  if (found.pattern) pattern_measured_epoch_ = found.epoch;
  if (moved) {
    // The re-checked freeze is out of date: compress g_ as it is now, and
    // let the ratio decide again.
    if (reach_pays || pattern_pays) Compress(reach_pays, pattern_pays);
    return;
  }
  if (reach_pays) {
    rc_ = std::move(found.rc);
    reach_dirty_ = true;
  }
  if (pattern_pays) {
    pc_ = std::move(found.pc);
    pattern_dirty_ = true;
  }
}

void SnapshotManager::StartRecheck(std::shared_ptr<const CsrGraph> frozen,
                                   bool reach, bool pattern) {
  // The task owns its inputs: an immutable freeze and the epoch it shows.
  recheck_ = std::async(
      std::launch::async | std::launch::deferred,
      [frozen = std::move(frozen), reach, pattern, epoch = graph_epoch_] {
        Recheck found{epoch, reach, pattern, std::nullopt, std::nullopt};
        if (reach) {
          ReachCompression rc = CompressR(*frozen);
          if (rc.CompressionRatio() < kIdentityRatio) found.rc = std::move(rc);
        }
        if (pattern) {
          PatternCompression pc = CompressB(*frozen);
          if (pc.CompressionRatio() < kIdentityRatio) found.pc = std::move(pc);
        }
        return found;
      });
}

ApplyStats SnapshotManager::Apply(const UpdateBatch& batch) {
  return Apply(batch, nullptr);
}

ApplyStats SnapshotManager::Apply(
    const UpdateBatch& batch,
    const std::function<void(const UpdateBatch&)>& on_applied) {
  // Before g_ moves, so that a finished re-check can be adopted as is.
  CollectRecheck();
  ApplyStats stats;
  const UpdateBatch effective = ApplyBatch(g_, batch);
  stats.effective_updates = effective.size();
  if (!effective.empty()) {
    ++graph_epoch_;
    // IncPCM beside IncRCM, as in the constructor: both only read g_ and
    // `effective`, and get() joins the worker before anything reads pc_. A
    // side served as G itself has nothing to maintain.
    std::future<IncPcmStats> pcm;
    if (pc_.has_value()) {
      pcm = std::async(std::launch::async | std::launch::deferred,
                       [&] { return IncPCM(g_, effective, *pc_); });
    }
    if (rc_.has_value()) {
      stats.rcm = IncRCM(g_, effective, *rc_);
      reach_measured_epoch_ = graph_epoch_;
      reach_dirty_ = reach_dirty_ || stats.rcm.kept_updates > 0;
    } else {
      reach_dirty_ = true;
    }
    if (pc_.has_value()) {
      stats.pcm = pcm.get();
      pattern_measured_epoch_ = graph_epoch_;
      pattern_dirty_ = pattern_dirty_ || stats.pcm.kept_updates > 0;
    } else {
      pattern_dirty_ = true;
    }
    DropArtifactsThatDoNotPay();
    pending_rcm_.Accumulate(stats.rcm);
    pending_pcm_.Accumulate(stats.pcm);
    pending_updates_ += effective.size();
  }
  stats.reach_representation = reach_representation();
  stats.pattern_representation = pattern_representation();
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
  CollectRecheck();
  PublishStats stats;
  stats.version = ++version_;
  stats.updates_included = pending_updates_;

  // The previous snapshot: the source of shared sides under FreezeMode::kAuto
  // (pinning it here delays its retirement past the swap: when no reader
  // holds it, this function frees it on return).
  const std::shared_ptr<const ServingSnapshot> prev = current_.load();
  // A quotient whose incremental maintenance kept no updates since the last
  // publish is bit-identical to the published one (reduced updates are
  // dropped *before* the artifact is touched), so the previous side can be
  // shared instead of refrozen. An identity side is out of date after any
  // effective update, and a side that changed representation always is.
  const bool freeze_reach =
      mode == FreezeMode::kFull || prev == nullptr || reach_dirty_;
  const bool freeze_pattern =
      mode == FreezeMode::kFull || prev == nullptr || pattern_dirty_;

  // Freeze off the read path: readers keep running on the published
  // snapshot while the new sides fill. Identity sides share one freeze of
  // g_, made at most once here.
  Timer freeze_timer;
  stats.froze_reach = freeze_reach;
  stats.froze_pattern = freeze_pattern;
  std::shared_ptr<const CsrGraph> frozen_g;
  const auto freeze_g = [&] {
    if (frozen_g == nullptr) frozen_g = std::make_shared<const CsrGraph>(g_);
    return frozen_g;
  };
  std::shared_ptr<const FrozenReachSide> reach;
  if (!freeze_reach) {
    reach = prev->reach_side();
  } else if (rc_.has_value()) {
    reach = FreezeFresh<FrozenReachSide>(*rc_);
  } else {
    auto side = std::make_shared<FrozenReachSide>();
    side->FillIdentity(freeze_g());
    reach = std::move(side);
  }
  std::shared_ptr<const FrozenPatternSide> pattern;
  if (!freeze_pattern) {
    pattern = prev->pattern_side();
  } else if (pc_.has_value()) {
    pattern = FreezeFresh<FrozenPatternSide>(*pc_);
  } else {
    // A shard's graph carries ghosts, which the pattern side drops.
    auto side = std::make_shared<FrozenPatternSide>();
    if (has_ghosts_) {
      side->FillIdentity(g_);
    } else {
      side->FillIdentity(freeze_g());
    }
    pattern = std::move(side);
  }
  stats.reach_representation = reach->representation;
  stats.pattern_representation = pattern->representation;

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
      built->Build(*reach->gr, reach->node_map, std::move(exits),
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
  reach_dirty_ = false;
  pattern_dirty_ = false;
  staleness_timer_.Restart();
  // Off the critical path: would a side served as G, whose ratio was
  // measured on an older graph, pay as a quotient again? (Usually this
  // publish just froze it; a re-check that was still in flight then, and
  // has since found an older graph, leaves it unmeasured.)
  const bool recheck_reach =
      !rc_.has_value() && reach_measured_epoch_ != graph_epoch_;
  const bool recheck_pattern =
      !pc_.has_value() && pattern_measured_epoch_ != graph_epoch_;
  if (!recheck_.valid() && (recheck_reach || recheck_pattern)) {
    StartRecheck(freeze_g(), recheck_reach, recheck_pattern);
  }
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
