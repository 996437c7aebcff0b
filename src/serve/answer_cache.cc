// Copyright 2026 The QPGC Authors.

#include "serve/answer_cache.h"

#include <algorithm>
#include <cstring>

#include "util/hash.h"

namespace qpgc {
namespace {

uint64_t PairHash64(uint64_t cu, uint64_t cv) {
  return Mix64(HashCombine(Mix64(cu), cv));
}

size_t RoundUpPow2(size_t x) {
  size_t p = 1;
  while (p < x) p <<= 1;
  return p;
}

void AppendU32(std::string& out, uint32_t v) {
  char buf[sizeof(v)];
  std::memcpy(buf, &v, sizeof(v));
  out.append(buf, sizeof(v));
}

}  // namespace

CacheStats& CacheStats::operator+=(const CacheStats& other) {
  reach_exact_hits += other.reach_exact_hits;
  reach_subsumption_hits += other.reach_subsumption_hits;
  reach_misses += other.reach_misses;
  reach_inserts += other.reach_inserts;
  reach_evictions += other.reach_evictions;
  match_negative_hits += other.match_negative_hits;
  match_misses += other.match_misses;
  match_inserts += other.match_inserts;
  match_evictions += other.match_evictions;
  return *this;
}

std::string CanonicalPatternKey(const PatternQuery& q) {
  std::string key;
  key.reserve(8 + 4 * q.num_nodes() + 12 * q.num_edges());
  AppendU32(key, static_cast<uint32_t>(q.num_nodes()));
  for (uint32_t u = 0; u < q.num_nodes(); ++u) AppendU32(key, q.label(u));
  AppendU32(key, static_cast<uint32_t>(q.num_edges()));
  for (const PatternEdge& e : q.edges()) {
    AppendU32(key, e.from);
    AppendU32(key, e.to);
    AppendU32(key, e.bound);
  }
  return key;
}

// --- VersionAnswerCache -----------------------------------------------------

VersionAnswerCache::VersionAnswerCache(uint64_t version_id,
                                       const AnswerCacheOptions& options)
    : version_id_(version_id),
      options_(options),
      slots_per_shard_(std::max(
          kProbeWindow,
          RoundUpPow2(std::max<size_t>(1, options.reach_capacity) /
                      kNumShards))) {
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    shard.slots.resize(slots_per_shard_);
  }
}

bool VersionAnswerCache::FactSet::Contains(uint64_t x) const {
  return std::find(items.begin(), items.end(), x) != items.end();
}

bool VersionAnswerCache::FactSet::Add(uint64_t x, size_t cap) {
  if (Contains(x) || cap == 0) return false;
  if (items.size() < cap) {
    items.push_back(x);
    return false;
  }
  items[cursor] = x;
  cursor = (cursor + 1) % cap;
  return true;
}

VersionAnswerCache::Shard& VersionAnswerCache::PairShard(uint64_t cu,
                                                         uint64_t cv) {
  return shards_[PairHash64(cu, cv) % kNumShards];
}

VersionAnswerCache::Shard& VersionAnswerCache::EndpointShard(uint64_t c) {
  return shards_[Mix64(c) % kNumShards];
}

VersionAnswerCache::Shard& VersionAnswerCache::KeyShard(
    const std::string& key) {
  return shards_[HashBytes(key) % kNumShards];
}

VersionAnswerCache::EndpointFacts VersionAnswerCache::SnapshotFacts(
    uint64_t c) {
  Shard& shard = EndpointShard(c);
  MutexLock lock(shard.mu);
  const auto it = shard.facts.find(c);
  return it == shard.facts.end() ? EndpointFacts{} : it->second;
}

VersionAnswerCache::ReachHit VersionAnswerCache::LookupReach(uint64_t cu,
                                                             uint64_t cv) {
  // Tier 1: exact probe. The table is open-addressing with a short linear
  // window; a hit refreshes the entry's stamp (clock-style recency).
  {
    Shard& shard = PairShard(cu, cv);
    MutexLock lock(shard.mu);
    const size_t mask = slots_per_shard_ - 1;
    const size_t base = PairHash64(cu, cv) & mask;
    for (size_t i = 0; i < kProbeWindow; ++i) {
      ReachEntry& e = shard.slots[(base + i) & mask];
      if (e.state != 0 && e.cu == cu && e.cv == cv) {
        e.stamp = ++shard.tick;
        ++shard.stats.reach_exact_hits;
        return e.state == 2 ? ReachHit::kTrue : ReachHit::kFalse;
      }
    }
  }

  // Tier 2: subsumption by transitivity over cached facts. Fact sets are
  // copied out under their endpoint shards' locks (never nested), then
  // intersected lock-free.
  if (options_.subsumption) {
    const EndpointFacts u_facts = SnapshotFacts(cu);
    const EndpointFacts v_facts = SnapshotFacts(cv);
    const auto intersects = [](const FactSet& a, const FactSet& b) {
      for (uint64_t x : a.items) {
        if (b.Contains(x)) return true;
      }
      return false;
    };
    ReachHit hit = ReachHit::kMiss;
    // true(cu -> w) and true(w -> cv)  =>  true(cu -> cv).
    if (intersects(u_facts.true_out, v_facts.true_in)) {
      hit = ReachHit::kSubsumedTrue;
    } else if (
        // false(cu -> d) and true(cv -> d)  =>  false(cu -> cv),
        // else cu -> cv -> d would be a path.
        intersects(u_facts.false_out, v_facts.true_out) ||
        // true(a -> cu) and false(a -> cv)  =>  false(cu -> cv),
        // else a -> cu -> cv would be a path.
        intersects(u_facts.true_in, v_facts.false_in)) {
      hit = ReachHit::kSubsumedFalse;
    }
    if (hit != ReachHit::kMiss) {
      {
        Shard& shard = PairShard(cu, cv);
        MutexLock lock(shard.mu);
        ++shard.stats.reach_subsumption_hits;
      }
      // Promote: the derived fact becomes an exact entry (and a new
      // subsumption fact), so repeats take the tier-1 path.
      InsertReach(cu, cv, hit == ReachHit::kSubsumedTrue);
      return hit;
    }
  }

  {
    Shard& shard = PairShard(cu, cv);
    MutexLock lock(shard.mu);
    ++shard.stats.reach_misses;
  }
  return ReachHit::kMiss;
}

void VersionAnswerCache::RecordFact(uint64_t endpoint, uint64_t other,
                                    bool answer, bool out) {
  Shard& shard = EndpointShard(endpoint);
  MutexLock lock(shard.mu);
  auto it = shard.facts.find(endpoint);
  if (it == shard.facts.end()) {
    // Bound the endpoint universe: past the cap, recycle an arbitrary
    // tracked endpoint (dropping facts is always sound).
    const size_t cap =
        std::max<size_t>(1, options_.subsumption_endpoints / kNumShards);
    if (shard.facts.size() >= cap && !shard.facts.empty()) {
      shard.facts.erase(shard.facts.begin());
      ++shard.stats.reach_evictions;
    }
    it = shard.facts.emplace(endpoint, EndpointFacts{}).first;
  }
  EndpointFacts& facts = it->second;
  FactSet& set = answer ? (out ? facts.true_out : facts.true_in)
                        : (out ? facts.false_out : facts.false_in);
  if (set.Add(other, options_.facts_per_endpoint)) {
    ++shard.stats.reach_evictions;
  }
}

void VersionAnswerCache::InsertReach(uint64_t cu, uint64_t cv, bool answer) {
  {
    Shard& shard = PairShard(cu, cv);
    MutexLock lock(shard.mu);
    const size_t mask = slots_per_shard_ - 1;
    const size_t base = PairHash64(cu, cv) & mask;
    ReachEntry* victim = nullptr;
    for (size_t i = 0; i < kProbeWindow; ++i) {
      ReachEntry& e = shard.slots[(base + i) & mask];
      if (e.state != 0 && e.cu == cu && e.cv == cv) {
        e.state = answer ? 2 : 1;  // immutable per version in practice
        e.stamp = ++shard.tick;
        return;
      }
      if (e.state == 0) {
        if (victim == nullptr || victim->state != 0) victim = &e;
      } else if (victim == nullptr ||
                 (victim->state != 0 && e.stamp < victim->stamp)) {
        victim = &e;
      }
    }
    if (victim->state != 0) ++shard.stats.reach_evictions;
    victim->cu = cu;
    victim->cv = cv;
    victim->state = answer ? 2 : 1;
    victim->stamp = ++shard.tick;
    ++shard.stats.reach_inserts;
  }
  if (options_.subsumption) {
    RecordFact(cu, cv, answer, /*out=*/true);
    RecordFact(cv, cu, answer, /*out=*/false);
  }
}

bool VersionAnswerCache::LookupNegativeMatch(const std::string& key) {
  Shard& shard = KeyShard(key);
  MutexLock lock(shard.mu);
  const auto it = shard.negative.find(key);
  if (it == shard.negative.end()) return false;
  it->second = ++shard.tick;
  ++shard.stats.match_negative_hits;
  return true;
}

void VersionAnswerCache::InsertMatchOutcome(const std::string& key,
                                            bool matched) {
  Shard& shard = KeyShard(key);
  MutexLock lock(shard.mu);
  ++shard.stats.match_misses;
  if (matched) return;  // negative cache: only misses are remembered
  const size_t cap = std::max<size_t>(1, options_.match_capacity / kNumShards);
  if (shard.negative.size() >= cap &&
      shard.negative.find(key) == shard.negative.end()) {
    // Evict the least-recently-touched key (caps are small; linear scan).
    auto oldest = shard.negative.begin();
    for (auto it = shard.negative.begin(); it != shard.negative.end(); ++it) {
      if (it->second < oldest->second) oldest = it;
    }
    shard.negative.erase(oldest);
    ++shard.stats.match_evictions;
  }
  if (shard.negative.emplace(key, ++shard.tick).second) {
    ++shard.stats.match_inserts;
  }
}

CacheStats VersionAnswerCache::Stats() const {
  CacheStats total;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    total += shard.stats;
  }
  return total;
}

// --- AnswerCache ------------------------------------------------------------

AnswerCache::AnswerCache(AnswerCacheOptions options) : options_(options) {}

std::shared_ptr<VersionAnswerCache> AnswerCache::ForVersion(
    uint64_t version_id) {
  MutexLock lock(mu_);
  for (const auto& cache : live_) {
    if (cache->version_id() == version_id) return cache;
  }
  auto cache = std::make_shared<VersionAnswerCache>(version_id, options_);
  live_.push_back(cache);
  const size_t max_live = std::max<size_t>(1, options_.max_versions);
  while (live_.size() > max_live) {
    // Version ids are allocated monotonically; the smallest is the oldest.
    size_t oldest = 0;
    for (size_t i = 1; i < live_.size(); ++i) {
      if (live_[i]->version_id() < live_[oldest]->version_id()) oldest = i;
    }
    retired_ += live_[oldest]->Stats();
    live_.erase(live_.begin() + static_cast<ptrdiff_t>(oldest));
  }
  return cache;
}

CacheStats AnswerCache::Stats() const {
  MutexLock lock(mu_);
  CacheStats total = retired_;
  for (const auto& cache : live_) total += cache->Stats();
  return total;
}

// --- Cached read surfaces ---------------------------------------------------

bool CachedSnapshot::Reach(NodeId u, NodeId v, PathMode mode,
                           ReachAlgorithm algo) const {
  // Same range check and abort as the uncached ServingSnapshot::Reach, ahead
  // of both the reflexive shortcut and the node-map lookup.
  const std::vector<NodeId>& map = snap_->reach_map();
  QPGC_CHECK(u < map.size() && v < map.size());
  if (mode == PathMode::kReflexive && u == v) return true;
  // Canonical fact: non-empty-path reachability between reach-quotient
  // blocks. Every remaining (u, v, mode) combination reduces to it —
  // including the kNonEmpty diagonal, which asks for a cycle through u's
  // block — so one cached answer covers all equivalent probes.
  const uint64_t cu = map[u];
  const uint64_t cv = map[v];
  switch (cache_->LookupReach(cu, cv)) {
    case VersionAnswerCache::ReachHit::kTrue:
    case VersionAnswerCache::ReachHit::kSubsumedTrue:
      return true;
    case VersionAnswerCache::ReachHit::kFalse:
    case VersionAnswerCache::ReachHit::kSubsumedFalse:
      return false;
    case VersionAnswerCache::ReachHit::kMiss:
      break;
  }
  const bool answer = snap_->Reach(u, v, PathMode::kNonEmpty, algo);
  cache_->InsertReach(cu, cv, answer);
  return answer;
}

bool CachedSnapshot::BooleanMatch(const PatternQuery& q) const {
  if (!cache_->options().negative_match) return snap_->BooleanMatch(q);
  const std::string key = CanonicalPatternKey(q);
  if (cache_->LookupNegativeMatch(key)) return false;
  const bool matched = snap_->BooleanMatch(q);
  cache_->InsertMatchOutcome(key, matched);
  return matched;
}

std::shared_ptr<const CachedSnapshot> CachedQueryService::Pin() const {
  const auto snap = manager_.Acquire();
  MutexLock lock(pin_mu_);
  if (pin_ == nullptr || pin_->version() != snap->version()) {
    pin_ = std::make_shared<const CachedSnapshot>(
        snap, cache_.ForVersion(snap->version()));
  }
  return pin_;
}

bool CachedPinnedShards::Reach(NodeId u, NodeId v, PathMode mode) const {
  // Same range check and abort as the uncached PinnedShards::Reach.
  const size_t n = pins_->original_num_nodes();
  QPGC_CHECK(u < n && v < n);
  if (mode == PathMode::kReflexive && u == v) return true;
  // Sharded canonical keys are the original node ids (see header): a node's
  // global reach identity depends on its block in EVERY shard that has
  // in-edges to it, not just its home shard, so block-level transfer is
  // reserved for the unsharded path. The cached fact is global
  // non-empty-path reachability.
  const uint64_t cu = u;
  const uint64_t cv = v;
  switch (cache_->LookupReach(cu, cv)) {
    case VersionAnswerCache::ReachHit::kTrue:
    case VersionAnswerCache::ReachHit::kSubsumedTrue:
      return true;
    case VersionAnswerCache::ReachHit::kFalse:
    case VersionAnswerCache::ReachHit::kSubsumedFalse:
      return false;
    case VersionAnswerCache::ReachHit::kMiss:
      break;
  }
  const bool answer = pins_->Reach(u, v, PathMode::kNonEmpty);
  cache_->InsertReach(cu, cv, answer);
  return answer;
}

bool CachedPinnedShards::BooleanMatch(const PatternQuery& q) const {
  if (!cache_->options().negative_match) return pins_->BooleanMatch(q);
  const std::string key = CanonicalPatternKey(q);
  if (cache_->LookupNegativeMatch(key)) return false;
  const bool matched = pins_->BooleanMatch(q);
  cache_->InsertMatchOutcome(key, matched);
  return matched;
}

std::shared_ptr<const CachedPinnedShards> CachedShardedQueryService::Pin()
    const {
  const auto pins = inner_.Pin();
  MutexLock lock(pin_mu_);
  // PinnedShards wrappers are freshly allocated per version vector (never
  // pooled), so pointer identity is version-vector identity.
  if (pin_ == nullptr || &pin_->pins() != pins.get()) {
    pin_ = std::make_shared<const CachedPinnedShards>(
        pins, cache_.ForVersion(next_cache_id_++));
  }
  return pin_;
}

}  // namespace qpgc
