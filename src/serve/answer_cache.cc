// Copyright 2026 The QPGC Authors.

#include "serve/answer_cache.h"

#include <cstring>

#include "util/hash.h"

namespace qpgc {
namespace {

uint64_t PairHash64(uint64_t cu, uint64_t cv) {
  return Mix64(HashCombine(Mix64(cu), cv));
}

void AppendU32(std::string& out, uint32_t v) {
  char buf[sizeof(v)];
  std::memcpy(buf, &v, sizeof(v));
  out.append(buf, sizeof(v));
}

}  // namespace

CacheStats& CacheStats::operator+=(const CacheStats& other) {
  reach_exact_hits += other.reach_exact_hits;
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

VersionAnswerCache::VersionAnswerCache(uint64_t version_id)
    : version_id_(version_id) {
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    shard.slots.resize(kSlotsPerShard);
  }
}

VersionAnswerCache::Shard& VersionAnswerCache::PairShard(uint64_t cu,
                                                         uint64_t cv) {
  return shards_[PairHash64(cu, cv) % kNumShards];
}

VersionAnswerCache::Shard& VersionAnswerCache::KeyShard(
    const std::string& key) {
  return shards_[HashBytes(key) % kNumShards];
}

VersionAnswerCache::ReachHit VersionAnswerCache::LookupReach(uint64_t cu,
                                                             uint64_t cv) {
  // The table is open-addressing with a short linear window; a hit
  // refreshes the entry's stamp (clock-style recency).
  Shard& shard = PairShard(cu, cv);
  MutexLock lock(shard.mu);
  const size_t mask = kSlotsPerShard - 1;
  const size_t base = PairHash64(cu, cv) & mask;
  for (size_t i = 0; i < kProbeWindow; ++i) {
    ReachEntry& e = shard.slots[(base + i) & mask];
    if (e.state != 0 && e.cu == cu && e.cv == cv) {
      e.stamp = ++shard.tick;
      ++shard.stats.reach_exact_hits;
      return e.state == 2 ? ReachHit::kTrue : ReachHit::kFalse;
    }
  }
  ++shard.stats.reach_misses;
  return ReachHit::kMiss;
}

void VersionAnswerCache::InsertReach(uint64_t cu, uint64_t cv, bool answer) {
  Shard& shard = PairShard(cu, cv);
  MutexLock lock(shard.mu);
  const size_t mask = kSlotsPerShard - 1;
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
  if (shard.negative.size() >= kMatchCapacity / kNumShards &&
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

std::shared_ptr<VersionAnswerCache> AnswerCache::ForVersion(
    uint64_t version_id) {
  MutexLock lock(mu_);
  for (const auto& cache : live_) {
    if (cache->version_id() == version_id) return cache;
  }
  auto cache = std::make_shared<VersionAnswerCache>(version_id);
  live_.push_back(cache);
  if (live_.size() > kMaxVersions) {
    // Ids are allocated monotonically; the smallest is the oldest.
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

}  // namespace qpgc
