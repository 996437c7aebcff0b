// Copyright 2026 The QPGC Authors.
//
// Answer-caching serving tier: one decorator, CachedService<Service>, puts
// a per-pin memo cache in front of QueryService or ShardedQueryService, so
// repeated traffic is answered by remembering work instead of redoing it.
// Two lookup tiers run before any quotient walk:
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
// to one pin object (an immutable snapshot version, or a version vector), a
// publish starts a cold cache for the new pin, and pinned readers keep their
// warm cache alive exactly as long as their pin. Everything here follows the
// statically enforced concurrency/lifetime layers: annotated qpgc::Mutex per
// cache shard (no raw atomics), pins held by value, bounded memory with
// clock-style overwrite eviction. Counters come back through CacheStats.

#ifndef QPGC_SERVE_ANSWER_CACHE_H_
#define QPGC_SERVE_ANSWER_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
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

  /// Hard bounds, in entries: the exact reach table and the negative match
  /// cache never allocate past them (overwrite eviction, not growth).
  static constexpr size_t kReachCapacity = size_t{1} << 16;
  static constexpr size_t kMatchCapacity = size_t{1} << 10;

  explicit VersionAnswerCache(uint64_t version_id);

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
  static constexpr size_t kSlotsPerShard = kReachCapacity / kNumShards;
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
  Shard shards_[kNumShards];
};

/// The cache bank a cached service owns: per-version caches created on
/// demand, at most kMaxVersions live at once. Thread-safe.
class AnswerCache {
 public:
  /// Creating a cache past this many live ones retires the oldest. Pinned
  /// readers holding its handle keep using it until they unpin; its counters
  /// freeze into Stats() at retirement.
  static constexpr size_t kMaxVersions = 4;

  /// The cache attached to `version_id`, creating a cold one on first use
  /// (and retiring the oldest live version past the bound).
  std::shared_ptr<VersionAnswerCache> ForVersion(uint64_t version_id);

  /// Aggregated counters: all live versions plus retired versions' final
  /// snapshots.
  CacheStats Stats() const;

 private:
  mutable Mutex mu_;
  std::vector<std::shared_ptr<VersionAnswerCache>> live_ QPGC_GUARDED_BY(mu_);
  CacheStats retired_ QPGC_GUARDED_BY(mu_);
};

/// The canonical reach key of node u under a pinned backend, the one
/// decision the two backends make differently. Unsharded: u's
/// reach-quotient block, so one entry serves every pair of nodes in the
/// same blocks. Routed: u itself, because a node's global reach class is
/// not its home-shard block (see file comment).
inline uint64_t ReachKey(const ServingSnapshot& snap, NodeId u) {
  return snap.reach_map()[u];
}
inline uint64_t ReachKey(const PinnedShards& /*pins*/, NodeId u) { return u; }

/// A pinned backend (a ServingSnapshot or a PinnedShards) plus its cache,
/// with the backend's query surface (what CachedService::Pin() returns —
/// duck-compatible with RunReaderLoad). Owns shared handles; share freely.
template <typename Pinned>
class CachedPin {
 public:
  CachedPin(std::shared_ptr<const Pinned> pinned,
            std::shared_ptr<VersionAnswerCache> cache)
      : pinned_(std::move(pinned)), cache_(std::move(cache)) {}

  size_t original_num_nodes() const { return pinned_->original_num_nodes(); }

  /// QR(u, v) through the exact tier. The cached fact is non-empty-path
  /// reachability between the endpoints' reach keys: every (u, v, mode) but
  /// the reflexive diagonal reduces to it, the kNonEmpty diagonal (a cycle
  /// through u) included, so one entry covers all equivalent probes.
  bool Reach(NodeId u, NodeId v, PathMode mode = PathMode::kReflexive) const {
    // Same range check and abort as the uncached Reach, ahead of both the
    // reflexive shortcut and the key lookup.
    const size_t n = pinned_->original_num_nodes();
    QPGC_CHECK(u < n && v < n);
    if (mode == PathMode::kReflexive && u == v) return true;
    const uint64_t cu = ReachKey(*pinned_, u);
    const uint64_t cv = ReachKey(*pinned_, v);
    const VersionAnswerCache::ReachHit hit = cache_->LookupReach(cu, cv);
    if (hit != VersionAnswerCache::ReachHit::kMiss) {
      return hit == VersionAnswerCache::ReachHit::kTrue;
    }
    const bool answer = pinned_->Reach(u, v, PathMode::kNonEmpty);
    cache_->InsertReach(cu, cv, answer);
    return answer;
  }

  /// Full matches are not memoized (answer sets are large); pass-through.
  MatchResult Match(const PatternQuery& q) const { return pinned_->Match(q); }

  /// BooleanMatch through the negative cache.
  bool BooleanMatch(const PatternQuery& q) const {
    const std::string key = CanonicalPatternKey(q);
    if (cache_->LookupNegativeMatch(key)) return false;
    const bool matched = pinned_->BooleanMatch(q);
    cache_->InsertMatchOutcome(key, matched);
    return matched;
  }

  /// The pinned backend itself.
  const Pinned& snapshot() const { return *pinned_; }

 private:
  std::shared_ptr<const Pinned> pinned_;
  std::shared_ptr<VersionAnswerCache> cache_;
};

/// Caching decorator over an uncached service (QueryService or
/// ShardedQueryService): its Pin() / Reach / Match / BooleanMatch surface
/// plus cache_stats(). Each distinct pin object the service hands out gets a
/// cache of its own. A SnapshotManager hands out one snapshot per version,
/// and a ShardedQueryService one PinnedShards per version vector (vectors
/// are not totally ordered, so aliasing two to one cache would be unsound);
/// the worst case is a cold cache.
template <typename Service>
class CachedService {
 public:
  using Pinned = std::remove_cvref_t<decltype(*std::declval<Service>().Pin())>;

  /// `manager` is what the wrapped service is built from (a SnapshotManager
  /// or a ShardedSnapshotManager); it must outlive this service.
  template <typename Manager>
  explicit CachedService(const Manager& manager) : inner_(manager) {}

  /// Pins the current snapshot or version vector together with its cache.
  std::shared_ptr<const CachedPin<Pinned>> Pin() const {
    auto pinned = inner_.Pin();
    MutexLock lock(pin_mu_);
    // pin_ holds its backend alive, so an equal address is the same pin.
    if (pin_ == nullptr || &pin_->snapshot() != pinned.get()) {
      pin_ = std::make_shared<const CachedPin<Pinned>>(
          std::move(pinned), cache_.ForVersion(next_cache_id_++));
    }
    return pin_;
  }

  bool Reach(NodeId u, NodeId v, PathMode mode = PathMode::kReflexive) const {
    return Pin()->Reach(u, v, mode);
  }
  MatchResult Match(const PatternQuery& q) const { return Pin()->Match(q); }
  bool BooleanMatch(const PatternQuery& q) const {
    return Pin()->BooleanMatch(q);
  }

  CacheStats cache_stats() const { return cache_.Stats(); }

 private:
  Service inner_;
  mutable AnswerCache cache_;
  // Guards the cached pin wrapper (one allocation per pin object, not per
  // Pin call) and the cache-id allocator; queries run outside it.
  mutable Mutex pin_mu_;
  mutable std::shared_ptr<const CachedPin<Pinned>> pin_
      QPGC_GUARDED_BY(pin_mu_);
  mutable uint64_t next_cache_id_ QPGC_GUARDED_BY(pin_mu_) = 1;
};

using CachedQueryService = CachedService<QueryService>;
using CachedShardedQueryService = CachedService<ShardedQueryService>;

}  // namespace qpgc

#endif  // QPGC_SERVE_ANSWER_CACHE_H_
