// Copyright 2026 The QPGC Authors.
//
// SnapshotManager: the serving side of the paper's incremental story. It
// owns the mutable compressed state — the dynamic Graph source of truth plus
// the maintained ReachCompression / PatternCompression artifacts — and
// publishes immutable, versioned ServingSnapshots that readers query while
// updates keep landing.
//
// Concurrency contract (single-writer / many-readers):
//  * Exactly one writer thread calls Apply() / Publish(). Updates flow
//    through the existing incremental algorithms (IncRCM Section 5.1,
//    IncPCM Section 5.2). Their cost follows the cone of classes they
//    dissolve, which on the served graphs is close to |G| (ROADMAP.md,
//    item 2), not a function of |AFF| alone. In sharded serving every
//    shard has its own manager and therefore its own independent writer
//    (serve/sharded_manager.h); the single-writer contract is per shard.
//  * The two sides share nothing, so the writer runs them concurrently:
//    inside Apply() IncPCM runs on a second thread beside IncRCM, and the
//    compressing constructor runs compressB beside compressR. Both read
//    only the graph and the batch, each writes only its own artifact, and
//    the writer joins the worker before it reads the pattern side again.
//    Callers still see one writer; the artifacts and ApplyStats are those
//    of running the sides one after the other.
//  * Compress only where it pays. A side whose ratio |Gr| / |G| at its
//    last (re)compression — the constructor's, a re-check's, or the one
//    IncRCM / IncPCM just maintained — is at least kIdentityRatio is served
//    as G itself (SideRepresentation::kIdentity, the trivial <R, F, P> with
//    R = id): the manager drops its artifact, runs no incremental
//    maintenance for it, and each Publish() that finds the graph moved
//    freezes G once, shared by both sides when both are identity.
//  * Re-checks run off the critical path. A Publish() that finds an
//    identity side whose ratio was measured on an older graph — usually it
//    just froze that side — starts, unless one is in flight, a background
//    task that compresses that immutable freeze. The writer collects it at
//    a later Apply() / Publish() without waiting; a side whose re-checked
//    ratio is below kIdentityRatio becomes a quotient again — the
//    re-check's own result when the graph has not moved since the freeze,
//    else one recompression of the graph. Constructors start none, and the
//    destructor joins one in flight (docs/CONCURRENCY.md).
//  * Any number of reader threads call Acquire() (or go through
//    serve/query_service.h). A reader pins the current snapshot with a
//    shared_ptr for the duration of a query and runs on it lock-free.
//  * Publish() freezes each artifact that moved into a freshly allocated
//    side — off the read path, readers never observe a half-frozen
//    snapshot — constructs the immutable snapshot, and swaps it in with one
//    O(1) atomic pointer store. Swap latency is independent of graph size
//    by construction.
//  * Per-artifact freezing: an artifact whose accumulated incremental stats
//    show no kept updates since the last publish is *shared* from the
//    previous snapshot instead of refrozen (the new version points at the
//    same immutable FrozenReachSide / FrozenPatternSide). Reach-only or
//    pattern-only update streams therefore pay publish cost for the side
//    that actually moved. FreezeMode::kFull forces both (benchmarks use it
//    to measure full freeze cost).
//  * Retirement is reference counting: a displaced snapshot is freed —
//    with every side no later version shares — when its last handle drops,
//    on whichever thread drops it (the writer at the swap, or the last
//    reader to unpin). Snapshots own their sides, so ones that outlive the
//    manager stay valid; a view kept past its pin reads freed memory.
//
// Publish policies decouple *when* to publish from the update stream:
// manual (caller decides), every-N-updates (amortize freeze cost over N
// effective updates), and staleness-bounded (cap how long readers can lag
// behind the source of truth). The accumulated dirty-cone stats of the
// incremental layer since the last publish are exposed for callers that
// want to build smarter policies on top.
//
// The locking discipline (what each qpgc::Mutex guards, the one sanctioned
// atomic<shared_ptr> slot, the TSan fallback) is documented — and statically
// enforced via the Thread Safety annotations below — in docs/CONCURRENCY.md.

#ifndef QPGC_SERVE_SNAPSHOT_MANAGER_H_
#define QPGC_SERVE_SNAPSHOT_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <vector>

#include "core/pattern_scheme.h"
#include "graph/update.h"
#include "inc/inc_pcm.h"
#include "inc/inc_rcm.h"
#include "reach/compress_r.h"
#include "serve/snapshot.h"
#include "util/lifetime_annotations.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

// The published-snapshot slot prefers the C++20 atomic<shared_ptr>
// specialization. Under ThreadSanitizer we force the mutex fallback:
// libstdc++'s _Sp_atomic guards its pointer word with a lock bit TSan cannot
// see through (GCC PR 101761), so the lock-free path reports false races.
#if defined(__SANITIZE_THREAD__)
#define QPGC_SERVE_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define QPGC_SERVE_TSAN 1
#endif
#endif
#if !defined(QPGC_SERVE_TSAN) && defined(__cpp_lib_atomic_shared_ptr) && \
    __cpp_lib_atomic_shared_ptr >= 201711L
#define QPGC_SERVE_ATOMIC_SLOT 1
#endif

namespace qpgc {

/// θ: a side whose compression ratio at its last (re)compression is at
/// least this is served as G itself. A quotient that merges under 1% of G
/// saves under 1% of the graph a read searches, yet IncRCM / IncPCM cost
/// about a recompression per batch, against a freeze of G at publish
/// (docs/ARCHITECTURE.md has the measured crossover).
inline constexpr double kIdentityRatio = 0.99;

/// When the manager publishes a fresh snapshot on its own.
struct PublishPolicy {
  enum class Mode {
    /// Only when the caller invokes Publish().
    kManual,
    /// After at least `updates_per_publish` effective updates accumulated.
    kEveryNUpdates,
    /// As soon as the published snapshot is both stale (>=
    /// `max_staleness_secs` old) and behind (>= 1 pending update).
    kStalenessBounded,
  };

  Mode mode = Mode::kManual;
  size_t updates_per_publish = 1024;
  double max_staleness_secs = 0.1;

  static PublishPolicy Manual() { return {}; }
  static PublishPolicy EveryNUpdates(size_t n) {
    return {Mode::kEveryNUpdates, n, 0.0};
  }
  static PublishPolicy StalenessBounded(double secs) {
    return {Mode::kStalenessBounded, 0, secs};
  }
};

struct SnapshotManagerOptions {
  PublishPolicy policy = PublishPolicy::Manual();
  /// Sharded serving hook: called on the writer path inside Publish() to
  /// capture the shard's current boundary-exit set (sorted ascending,
  /// immutable, shared by pointer across versions whose membership did not
  /// change) into the snapshot being assembled, so exits and frozen graphs
  /// can never disagree about the version they describe. Null (the
  /// default) stamps every snapshot with an empty exit set — correct for
  /// unsharded serving.
  std::function<std::shared_ptr<const std::vector<NodeId>>()>
      boundary_exits_provider;
  /// Sharded serving hook, symmetric to boundary_exits_provider: captures
  /// the shard's current boundary-entry set (owned nodes with cross-shard
  /// in-edges, sorted ascending). When both providers are set, Publish()
  /// additionally freezes a FrozenBoundarySummary over the reach quotient
  /// (reused from the previous version when reach side, exits, and entries
  /// all carried over) — the artifact the router's boundary-graph search
  /// runs on (docs/SHARDING.md). Null for unsharded serving.
  std::function<std::shared_ptr<const std::vector<NodeId>>()>
      boundary_entries_provider;
};

/// How Publish() treats artifacts the update stream left untouched.
enum class FreezeMode {
  /// Share untouched sides from the previous snapshot (the default).
  kAuto,
  /// Refreeze both sides unconditionally (benchmarking full freeze cost).
  kFull,
};

/// What one Publish() did.
struct PublishStats {
  /// Version id of the snapshot that went live.
  uint64_t version = 0;
  /// Effective updates included since the previous publish.
  size_t updates_included = 0;
  /// Wall time of freezing and assembling the new snapshot (off the read
  /// path).
  double freeze_secs = 0.0;
  /// Wall time of the atomic pointer swap (what readers can ever contend
  /// with; O(1) regardless of graph size).
  double swap_secs = 0.0;
  /// Which sides were actually refrozen (a side is shared from the previous
  /// snapshot when its accumulated incremental stats kept no updates and
  /// FreezeMode::kFull was not requested).
  bool froze_reach = false;
  bool froze_pattern = false;
  /// Whether the boundary summary was rebuilt (sharded serving only; false
  /// when it was shared from the previous version along with its inputs,
  /// and always false unsharded). Its build time — the publish-cost delta
  /// the summary adds — is broken out in summary_freeze_secs (also counted
  /// inside freeze_secs).
  bool froze_summary = false;
  double summary_freeze_secs = 0.0;
  /// How each published side represents its compression.
  SideRepresentation reach_representation = SideRepresentation::kQuotient;
  SideRepresentation pattern_representation = SideRepresentation::kQuotient;
};

/// What one Apply() did.
struct ApplyStats {
  /// Updates surviving ApplyBatch's no-op elimination.
  size_t effective_updates = 0;
  /// Incremental-maintenance work counters for this batch (zero for a side
  /// served as G itself, which no maintenance touches).
  IncRcmStats rcm;
  IncPcmStats pcm;
  /// How each side is represented once this Apply() is done.
  SideRepresentation reach_representation = SideRepresentation::kQuotient;
  SideRepresentation pattern_representation = SideRepresentation::kQuotient;
  /// Set when the publish policy fired within this Apply().
  bool published = false;
  PublishStats publish;
};

class SnapshotManager {
 public:
  /// Takes ownership of the initial graph, compresses it (batch compressR +
  /// compressB), and publishes version 1 — Acquire() never returns null.
  /// A side whose ratio is at least kIdentityRatio is served as G itself.
  explicit SnapshotManager(Graph g, SnapshotManagerOptions options = {});

  /// Adopts pre-built compressed artifacts instead of recompressing — the
  /// warm-start path for state reconstructed from an on-disk snapshot
  /// (storage/snapshot_io.h ReconstructArtifacts). The artifacts must
  /// describe exactly `g` (storage's reconstruction probes check this);
  /// incremental maintenance then continues as if this manager had built
  /// them, and an artifact whose ratio is at least kIdentityRatio is served
  /// as G itself. Publishes version 1 from the adopted state.
  SnapshotManager(Graph g, ReachCompression rc, PatternCompression pc,
                  SnapshotManagerOptions options = {});

  /// Joins a re-check in flight.
  ~SnapshotManager();

  SnapshotManager(const SnapshotManager&) = delete;
  SnapshotManager& operator=(const SnapshotManager&) = delete;

  // --- Writer side (single thread) ------------------------------------------

  /// Applies a batch to the source of truth and maintains both compressed
  /// artifacts incrementally; publishes if the policy says so.
  ApplyStats Apply(const UpdateBatch& batch);

  /// Same, invoking `on_applied` with the *effective* batch after the
  /// artifacts were maintained but before any policy-triggered publish —
  /// the window in which publish-visible side state derived from the update
  /// stream (e.g. the sharded manager's boundary-exit refcounts) must be
  /// brought up to date.
  ApplyStats Apply(const UpdateBatch& batch,
                   const std::function<void(const UpdateBatch&)>& on_applied);

  /// Freezes the current compressed state into a new snapshot and
  /// atomically swaps it in as the published one. Under
  /// FreezeMode::kAuto an artifact with no kept updates since the last
  /// publish is shared from the previous snapshot instead of refrozen; a
  /// side served as G itself is refrozen after every effective update.
  PublishStats Publish(FreezeMode mode = FreezeMode::kAuto);

  /// Blocks until the re-check in flight, if any, finishes, and adopts what
  /// it found, as the next Apply() / Publish() would have. Apply() and
  /// Publish() never wait for a re-check; this is the deterministic switch
  /// point for callers that need one (tests, tools).
  void WaitForRecheck();

  /// The mutable source of truth (writer-side inspection).
  const Graph& graph() const QPGC_LIFETIME_BOUND { return g_; }
  /// How each side is represented now; the next Publish() freezes it so.
  SideRepresentation reach_representation() const {
    return rc_.has_value() ? SideRepresentation::kQuotient
                           : SideRepresentation::kIdentity;
  }
  SideRepresentation pattern_representation() const {
    return pc_.has_value() ? SideRepresentation::kQuotient
                           : SideRepresentation::kIdentity;
  }
  /// The maintained artifacts the next Publish() will freeze. Only a
  /// quotient side has one (checked).
  const ReachCompression& reach_artifact() const QPGC_LIFETIME_BOUND;
  const PatternCompression& pattern_artifact() const QPGC_LIFETIME_BOUND;

  /// Version of the latest published snapshot.
  uint64_t published_version() const { return version_; }
  /// Effective updates applied since the last publish.
  size_t pending_updates() const { return pending_updates_; }
  /// Seconds since the last publish (the published snapshot's age).
  double staleness_secs() const { return staleness_timer_.ElapsedSeconds(); }
  /// Accumulated dirty-cone stats since the last publish (for policies, and
  /// what Publish() keys the per-side freeze skip on).
  const IncRcmStats& pending_rcm_stats() const QPGC_LIFETIME_BOUND {
    return pending_rcm_;
  }
  const IncPcmStats& pending_pcm_stats() const QPGC_LIFETIME_BOUND {
    return pending_pcm_;
  }

  // --- Read side (any thread) -----------------------------------------------

  /// Pins and returns the current published snapshot. Never null. The
  /// snapshot stays valid (and immutable) for as long as the returned
  /// handle lives, across any number of later publishes. Bind the handle
  /// to a named local and keep everything borrowed through it inside that
  /// local's scope — the pin-scope rule (docs/LIFETIMES.md), enforced by
  /// tools/qpgc_pin_escape.py.
  std::shared_ptr<const ServingSnapshot> Acquire() const;

 private:
  // The published-snapshot slot. Uses the C++20 atomic<shared_ptr>
  // specialization when the standard library has one; degrades to a
  // mutex-guarded pointer otherwise. Either way the store is O(1) and the
  // load is a pin (refcount bump), never a copy of snapshot data.
  //
  // This is the repository's ONE sanctioned lock-free shared slot — the
  // documented exception to the Mutex-everywhere rule (see
  // util/thread_annotations.h and docs/CONCURRENCY.md). Thread Safety
  // Analysis cannot model the atomic path, so correctness here rests on
  // the atomic specialization's own guarantees plus the TSan stress suite
  // (which exercises the annotated mutex fallback instead, QPGC_SERVE_TSAN
  // above).
  class Slot {
   public:
    std::shared_ptr<const ServingSnapshot> load() const;
    void store(std::shared_ptr<const ServingSnapshot> p);

   private:
#ifdef QPGC_SERVE_ATOMIC_SLOT
    // qpgc-lint: allow(raw-atomic-shared-ptr)
    std::atomic<std::shared_ptr<const ServingSnapshot>> ptr_;
#else
    mutable Mutex mu_;
    std::shared_ptr<const ServingSnapshot> ptr_ QPGC_GUARDED_BY(mu_);
#endif
  };

  // What a re-check found on the freeze taken at graph epoch `epoch`: which
  // identity sides it measured, and the quotients among them that pay. One
  // that does not is freed on the re-check's own thread: tearing down an
  // artifact's per-node vectors costs the writer milliseconds.
  struct Recheck {
    uint64_t epoch = 0;
    bool reach = false;
    bool pattern = false;
    std::optional<ReachCompression> rc;
    std::optional<PatternCompression> pc;
  };

  bool ShouldAutoPublish() const;
  // Compresses the requested sides of g_ (compressB beside compressR), and
  // serves each that does not pay as G itself.
  void Compress(bool reach, bool pattern);
  // Drops each artifact whose ratio reached kIdentityRatio.
  void DropArtifactsThatDoNotPay();
  // Adopts a finished re-check without waiting for one still running.
  void CollectRecheck();
  void AdoptRecheck(Recheck found);
  // Starts a re-check of the requested identity sides on `frozen`, a freeze
  // of g_ as it is now.
  void StartRecheck(std::shared_ptr<const CsrGraph> frozen, bool reach,
                    bool pattern);

  Graph g_;
  SnapshotManagerOptions options_;
  // The maintained quotients; empty while the side is served as G itself.
  std::optional<ReachCompression> rc_;
  std::optional<PatternCompression> pc_;
  // g_ carries ghost nodes (a shard's graph); labels never change.
  bool has_ghosts_ = false;
  // Counts the Apply() calls that moved g_, and records for each side the
  // count at which its ratio was last measured.
  uint64_t graph_epoch_ = 0;
  uint64_t reach_measured_epoch_ = 0;
  uint64_t pattern_measured_epoch_ = 0;
  // Whether a side's frozen form is out of date since the last publish.
  bool reach_dirty_ = true;
  bool pattern_dirty_ = true;
  // The re-check in flight; it reads only its own freeze of g_.
  std::future<Recheck> recheck_;

  uint64_t version_ = 0;
  size_t pending_updates_ = 0;
  IncRcmStats pending_rcm_;
  IncPcmStats pending_pcm_;
  Timer staleness_timer_;

  Slot current_;
};

}  // namespace qpgc

#endif  // QPGC_SERVE_SNAPSHOT_MANAGER_H_
