// Copyright 2026 The QPGC Authors.
//
// Allocation guard: a counting global operator new, and the reads that must
// not allocate once warm. It is a binary of its own because the replacement
// operator new applies to the whole program.
//
// Guarded: the routed read through ShardedQueryService (the pin check and
// the boundary search over thread-local scratch) and the exact cache hits
// of both cached services. The heap and mapped snapshots' Reach and Match
// still build their search state per query (ROADMAP.md, item 14), so they
// are not guarded here.
//
// The count is per thread: it measures what the calling thread's reads
// allocate, whatever a background thread does meanwhile.

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "gen/random_models.h"
#include "gen/uniform.h"
#include "serve/answer_cache.h"
#include "serve/query_service.h"
#include "serve/router.h"
#include "serve/sharded_manager.h"
#include "serve/snapshot_manager.h"
#include "util/rng.h"

namespace {

thread_local constinit uint64_t t_allocations = 0;

void* CountedAlloc(std::size_t size) noexcept {
  ++t_allocations;
  return std::malloc(size == 0 ? 1 : size);
}

// Not inlined: GCC matches deallocations to operator new by name, and would
// report a std::free inlined into a caller as a mismatch
// (-Wmismatched-new-delete), though both halves here are malloc and free.
[[gnu::noinline]] void Free(void* p) noexcept { std::free(p); }

}  // namespace

// Every replaceable non-aligned form, so that each block allocated here is
// also freed here (the aligned forms keep the runtime's own pair).
void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { Free(p); }
void operator delete[](void* p) noexcept { Free(p); }
void operator delete(void* p, std::size_t) noexcept { Free(p); }
void operator delete[](void* p, std::size_t) noexcept { Free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { Free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { Free(p); }

namespace qpgc {
namespace {

constexpr size_t kPairs = 200;
constexpr size_t kCalls = 1000;

Graph LabeledGraph() {
  Graph g = PreferentialAttachment(2000, 3, 0.45, 13);
  AssignZipfLabels(g, 4, 1.1, 14);
  return g;
}

// Off-diagonal pairs, so that every call on a warm cache is an exact hit.
std::vector<std::pair<NodeId, NodeId>> Pairs(size_t n) {
  Rng rng(29);
  std::vector<std::pair<NodeId, NodeId>> pairs(kPairs);
  for (auto& [u, v] : pairs) {
    u = static_cast<NodeId>(rng.Uniform(n));
    do {
      v = static_cast<NodeId>(rng.Uniform(n));
    } while (v == u);
  }
  return pairs;
}

// Answers every pair once: scratch grows, and lazy tables and cache entries
// are built.
template <typename Service>
void Warm(const Service& service,
          const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  for (const auto& [u, v] : pairs) (void)service.Reach(u, v);
}

// Makes kCalls calls over the warmed pairs and returns how many allocations
// this thread made during them.
template <typename Service>
uint64_t MeasuredAllocations(
    const Service& service,
    const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  const uint64_t before = t_allocations;
  for (size_t i = 0; i < kCalls; ++i) {
    const auto& [u, v] = pairs[i % pairs.size()];
    (void)service.Reach(u, v);
  }
  return t_allocations - before;
}

TEST(AllocGuardTest, CounterSeesAnAllocation) {
  static std::vector<std::unique_ptr<int>> sink;
  const uint64_t before = t_allocations;
  sink.push_back(std::make_unique<int>(1));
  EXPECT_GT(t_allocations, before);
}

TEST(AllocGuardTest, RoutedReachAllocatesNothing) {
  const Graph g = LabeledGraph();
  ShardedManagerOptions opts;
  opts.num_shards = 2;
  const ShardedSnapshotManager mgr(g, opts);
  const ShardedQueryService service(mgr);
  const auto pairs = Pairs(g.num_nodes());
  Warm(service, pairs);
  EXPECT_EQ(MeasuredAllocations(service, pairs), 0u);
}

TEST(AllocGuardTest, RoutedCachedReachHitAllocatesNothing) {
  const Graph g = LabeledGraph();
  ShardedManagerOptions opts;
  opts.num_shards = 2;
  const ShardedSnapshotManager mgr(g, opts);
  const CachedShardedQueryService service(mgr);
  const auto pairs = Pairs(g.num_nodes());
  Warm(service, pairs);
  const uint64_t hits = service.cache_stats().reach_exact_hits;
  EXPECT_EQ(MeasuredAllocations(service, pairs), 0u);
  EXPECT_EQ(service.cache_stats().reach_exact_hits - hits, kCalls);
}

TEST(AllocGuardTest, CachedReachHitAllocatesNothing) {
  const Graph g = LabeledGraph();
  const SnapshotManager mgr(g);
  const CachedQueryService service(mgr);
  const auto pairs = Pairs(g.num_nodes());
  Warm(service, pairs);
  const uint64_t hits = service.cache_stats().reach_exact_hits;
  EXPECT_EQ(MeasuredAllocations(service, pairs), 0u);
  EXPECT_EQ(service.cache_stats().reach_exact_hits - hits, kCalls);
}

}  // namespace
}  // namespace qpgc
