// Copyright 2026 The QPGC Authors.
//
// Answer-caching serving tier: a per-snapshot-version memo cache in front of
// QueryService / ShardedQueryService, so repeated traffic is answered by
// remembering work instead of redoing it. Two lookup tiers run before any
// quotient walk:
//
//  1. *Exact reach*: a bounded open-addressing table keyed on the canonical
//     reach pair. Unsharded serving canonicalizes endpoints to reach-quotient
//     block ids via the snapshot node map, so one cached answer serves every
//     pair of nodes in the same blocks; sharded serving keys on original
//     node ids (a node's global reach identity is NOT determined by its
//     home-shard block — it may have in-edges in other shards — so
//     block-level transfer would be unsound there; see docs/CACHING.md).
//  2. *Negative match*: BooleanMatch misses keyed on the full canonical
//     pattern serialization (bucketed by its structural hash, compared by
//     bytes — a hash collision can never fabricate an answer; the klee-mc
//     PoisonCache shape).
//
// Invalidation is the snapshot lifetime model itself: every cache attaches
// to one immutable artifact version, a publish starts a cold cache for the
// new version, and pinned readers keep their warm cache alive exactly as
// long as their pin. Everything here follows the statically enforced
// concurrency/lifetime layers: annotated qpgc::Mutex per cache shard (no
// raw atomics), pins held by value, bounded memory with clock-style
// overwrite eviction. Counters come back through CacheStats.

#ifndef QPGC_SERVE_ANSWER_CACHE_H_
#define QPGC_SERVE_ANSWER_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "pattern/match.h"
#include "pattern/pattern.h"
#include "serve/query_service.h"
#include "serve/router.h"
#include "serve/snapshot.h"
#include "util/thread_annotations.h"

namespace qpgc {

/// Tuning knobs for one AnswerCache (all sizes are hard bounds; the cache
/// never allocates past them — overwrite eviction, not growth).
struct AnswerCacheOptions {
  /// Exact reach table capacity, in entries (rounded up to a power of two).
  size_t reach_capacity = 1 << 16;
  /// Negative match cache capacity, in entries.
  size_t match_capacity = 1 << 10;
  /// How many snapshot versions keep live caches at once; publishing past
  /// this retires the oldest (pinned readers holding its handle keep using
  /// it until they unpin — the stats snapshot freezes at retirement).
  size_t max_versions = 4;
};

/// Counter snapshot for one cache (or one aggregation of caches).
struct CacheStats {
  uint64_t reach_exact_hits = 0;
  /// Always 0. bench/e2e still reports it, and only a benchmark change may
  /// drop it (ROADMAP.md, item 13).
  uint64_t reach_subsumption_hits = 0;
  uint64_t reach_misses = 0;
  uint64_t reach_inserts = 0;
  uint64_t reach_evictions = 0;
  uint64_t match_negative_hits = 0;
  uint64_t match_misses = 0;
  uint64_t match_inserts = 0;
  uint64_t match_evictions = 0;

  /// Fraction of reach lookups answered from the cache (0 when idle).
  double ReachHitRate() const {
    const uint64_t total = reach_exact_hits + reach_misses;
    return total == 0 ? 0.0 : static_cast<double>(reach_exact_hits) / total;
  }
  CacheStats& operator+=(const CacheStats& other);
};

/// The full canonical serialization of a pattern (node count, labels, edges
/// with bounds). Byte-equal keys <=> structurally identical patterns, which
/// is what makes the negative cache sound under hash collisions.
std::string CanonicalPatternKey(const PatternQuery& q);

/// The memo state of ONE artifact version: a sharded-by-key, annotated-mutex
/// table bank. Thread-safe for any number of concurrent readers; lookups
/// mutate only counters and stamps under per-shard mutexes.
class VersionAnswerCache {
 public:
  enum class ReachHit : uint8_t {
    kMiss,
    kTrue,
    kFalse,
    // Never returned. bench/e2e still switches on both names, and only a
    // benchmark change may drop them (ROADMAP.md, item 13).
    kSubsumedTrue,   // waits for that change
    kSubsumedFalse,  // waits for that change
  };

  VersionAnswerCache(uint64_t version_id, const AnswerCacheOptions& options);

  VersionAnswerCache(const VersionAnswerCache&) = delete;
  VersionAnswerCache& operator=(const VersionAnswerCache&) = delete;

  uint64_t version_id() const { return version_id_; }

  /// Tier 1: one exact probe for the canonical pair (cu, cv).
  ReachHit LookupReach(uint64_t cu, uint64_t cv);

  /// Records a freshly evaluated canonical reach fact.
  void InsertReach(uint64_t cu, uint64_t cv, bool answer);

  /// Tier 2: true iff `key` is a known BooleanMatch miss.
  bool LookupNegativeMatch(const std::string& key);

  /// Records a BooleanMatch outcome; only misses are stored (tier 2 is a
  /// negative cache), but hits still count as match_misses for the rate.
  void InsertMatchOutcome(const std::string& key, bool matched);

  /// Sums the per-shard counters.
  CacheStats Stats() const;

 private:
  static constexpr size_t kNumShards = 16;
  /// Linear-probe window of the exact table; a full window overwrites the
  /// stalest entry (clock-style eviction) instead of rehashing.
  static constexpr size_t kProbeWindow = 8;

  struct ReachEntry {
    uint64_t cu = 0;
    uint64_t cv = 0;
    uint32_t stamp = 0;
    uint8_t state = 0;  // 0 = empty, 1 = cached false, 2 = cached true
  };

  struct Shard {
    mutable Mutex mu;
    std::vector<ReachEntry> slots QPGC_GUARDED_BY(mu);
    uint32_t tick QPGC_GUARDED_BY(mu) = 0;
    std::unordered_map<std::string, uint32_t> negative QPGC_GUARDED_BY(mu);
    CacheStats stats QPGC_GUARDED_BY(mu);
  };

  Shard& PairShard(uint64_t cu, uint64_t cv);
  Shard& KeyShard(const std::string& key);

  const uint64_t version_id_;
  const AnswerCacheOptions options_;
  const size_t slots_per_shard_;  // power of two
  Shard shards_[kNumShards];
};

/// The cache bank a cached service owns: per-version caches created on
/// demand, at most options.max_versions live at once. Thread-safe.
class AnswerCache {
 public:
  explicit AnswerCache(AnswerCacheOptions options = {});

  /// The cache attached to `version_id`, creating a cold one on first use
  /// (and retiring the oldest live version past the bound).
  std::shared_ptr<VersionAnswerCache> ForVersion(uint64_t version_id);

  /// Aggregated counters: all live versions plus retired versions' final
  /// snapshots.
  CacheStats Stats() const;

 private:
  const AnswerCacheOptions options_;
  mutable Mutex mu_;
  std::vector<std::shared_ptr<VersionAnswerCache>> live_ QPGC_GUARDED_BY(mu_);
  CacheStats retired_ QPGC_GUARDED_BY(mu_);
};

/// A pinned ServingSnapshot plus its version's cache, with the snapshot's
/// query surface (what CachedQueryService::Pin() returns — duck-compatible
/// with RunReaderLoad). Owns shared handles; copy/share freely.
class CachedSnapshot {
 public:
  CachedSnapshot(std::shared_ptr<const ServingSnapshot> snap,
                 std::shared_ptr<VersionAnswerCache> cache)
      : snap_(std::move(snap)), cache_(std::move(cache)) {}

  uint64_t version() const { return snap_->version(); }
  size_t original_num_nodes() const { return snap_->original_num_nodes(); }

  /// QR(u, v) through the exact tier; canonical key = reach-quotient block
  /// pair under non-empty-path semantics (the reflexive diagonal never
  /// reaches the cache).
  bool Reach(NodeId u, NodeId v, PathMode mode = PathMode::kReflexive,
             ReachAlgorithm algo = ReachAlgorithm::kBfs) const;

  /// Full matches are not memoized (answer sets are large); pass-through.
  MatchResult Match(const PatternQuery& q) const { return snap_->Match(q); }

  /// BooleanMatch through the negative cache.
  bool BooleanMatch(const PatternQuery& q) const;

  const ServingSnapshot& snapshot() const { return *snap_; }

 private:
  std::shared_ptr<const ServingSnapshot> snap_;
  std::shared_ptr<VersionAnswerCache> cache_;
};

/// Caching facade over a SnapshotManager: QueryService's surface plus
/// cache_stats(). Publishes cold-start naturally — Pin() attaches the cache
/// keyed by the pinned snapshot's version.
class CachedQueryService {
 public:
  explicit CachedQueryService(const SnapshotManager& manager,
                              AnswerCacheOptions options = {})
      : manager_(manager), cache_(options) {}

  /// Pins the current snapshot together with its version's cache.
  std::shared_ptr<const CachedSnapshot> Pin() const;

  bool Reach(NodeId u, NodeId v, PathMode mode = PathMode::kReflexive,
             ReachAlgorithm algo = ReachAlgorithm::kBfs) const {
    return Pin()->Reach(u, v, mode, algo);
  }
  MatchResult Match(const PatternQuery& q) const { return Pin()->Match(q); }
  bool BooleanMatch(const PatternQuery& q) const {
    return Pin()->BooleanMatch(q);
  }

  CacheStats cache_stats() const { return cache_.Stats(); }

 private:
  const SnapshotManager& manager_;
  mutable AnswerCache cache_;
  // Guards only the cached pin wrapper (one allocation per version, not per
  // Pin call); queries run lock-free on the pinned snapshot.
  mutable Mutex pin_mu_;
  mutable std::shared_ptr<const CachedSnapshot> pin_ QPGC_GUARDED_BY(pin_mu_);
};

/// A pinned version vector plus its cache, with the PinnedShards query
/// surface. Canonical reach keys are original node ids (see file comment).
class CachedPinnedShards {
 public:
  CachedPinnedShards(std::shared_ptr<const PinnedShards> pins,
                     std::shared_ptr<VersionAnswerCache> cache)
      : pins_(std::move(pins)), cache_(std::move(cache)) {}

  size_t original_num_nodes() const { return pins_->original_num_nodes(); }

  /// Global QR(u, v) through the exact tier.
  bool Reach(NodeId u, NodeId v, PathMode mode = PathMode::kReflexive) const;

  MatchResult Match(const PatternQuery& q) const { return pins_->Match(q); }

  /// Global BooleanMatch through the negative cache.
  bool BooleanMatch(const PatternQuery& q) const;

  const PinnedShards& pins() const { return *pins_; }

 private:
  std::shared_ptr<const PinnedShards> pins_;
  std::shared_ptr<VersionAnswerCache> cache_;
};

/// Caching facade over a ShardedSnapshotManager. Each distinct pinned
/// version vector gets a fresh cache id (version vectors are not totally
/// ordered, so ids are allocated per distinct pin — aliasing two vectors to
/// one cache would be unsound; the worst case is a cold cache).
class CachedShardedQueryService {
 public:
  explicit CachedShardedQueryService(const ShardedSnapshotManager& manager,
                                     AnswerCacheOptions options = {})
      : inner_(manager), cache_(options) {}

  /// Pins the current version vector together with its cache.
  std::shared_ptr<const CachedPinnedShards> Pin() const;

  bool Reach(NodeId u, NodeId v, PathMode mode = PathMode::kReflexive) const {
    return Pin()->Reach(u, v, mode);
  }
  MatchResult Match(const PatternQuery& q) const { return Pin()->Match(q); }
  bool BooleanMatch(const PatternQuery& q) const {
    return Pin()->BooleanMatch(q);
  }

  CacheStats cache_stats() const { return cache_.Stats(); }

 private:
  ShardedQueryService inner_;
  mutable AnswerCache cache_;
  // Guards the cached pin wrapper and the cache-id allocator.
  mutable Mutex pin_mu_;
  mutable std::shared_ptr<const CachedPinnedShards> pin_
      QPGC_GUARDED_BY(pin_mu_);
  mutable uint64_t next_cache_id_ QPGC_GUARDED_BY(pin_mu_) = 1;
};

}  // namespace qpgc

#endif  // QPGC_SERVE_ANSWER_CACHE_H_
