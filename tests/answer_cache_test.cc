// Copyright 2026 The QPGC Authors.
//
// The answer-caching serving tier (serve/answer_cache.h). The heart of the
// suite is differential: every answer a cached facade returns — exact hit,
// negative-cached, or freshly evaluated — must be bit-identical to the
// uncached oracle for the exact version the query pinned, across publish
// cycles, on every generator family, and under eviction pressure. The
// stress test drives multi-reader/one-writer load through the cached facade
// and oracle-checks every observation (suite names carry the
// "QueryService"/"Serving"/"Shard" prefixes CI's TSan job filters on).

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "gen/adversarial.h"
#include "gen/random_models.h"
#include "gen/uniform.h"
#include "gen/update_gen.h"
#include "pattern/match.h"
#include "serve/answer_cache.h"
#include "serve/load_gen.h"
#include "serve/sharded_manager.h"
#include "util/rng.h"

namespace qpgc {
namespace {

// One representative per generator family (the corpus the sharded suite
// uses, labeled where the family supports it).
std::vector<std::pair<const char*, Graph>> FamilyCorpus() {
  std::vector<std::pair<const char*, Graph>> corpus;
  corpus.emplace_back("uniform", GenerateUniform(90, 300, 4, 7));
  {
    Graph g = PreferentialAttachment(110, 3, 0.5, 11);
    AssignZipfLabels(g, 3, 1.1, 12);
    corpus.emplace_back("social", std::move(g));
  }
  corpus.emplace_back("chain", LongChain(120, 2));
  corpus.emplace_back("layered", LayeredDag(24, 5, 3, 42));
  corpus.emplace_back("broom", Broom(40, 50));
  corpus.emplace_back("grid", DirectedGrid(9, 9));
  corpus.emplace_back("tree", CompleteBinaryTree(7));
  return corpus;
}

// Issues `count` random reach probes (both path modes) and every pattern
// twice (second time from the cache) against one pinned cached snapshot,
// comparing each answer with direct evaluation on `truth`.
template <typename CachedPin>
void ExpectPinMatchesOracle(const CachedPin& pin, const Graph& truth,
                            const std::vector<PatternQuery>& patterns,
                            size_t count, uint64_t seed, const char* what) {
  Rng rng(seed);
  const size_t n = truth.num_nodes();
  for (size_t i = 0; i < count; ++i) {
    const NodeId u = static_cast<NodeId>(rng.Uniform(n));
    const NodeId v = static_cast<NodeId>(rng.Uniform(n));
    const PathMode mode =
        rng.Chance(0.5) ? PathMode::kReflexive : PathMode::kNonEmpty;
    ASSERT_EQ(pin->Reach(u, v, mode), BfsReaches(truth, u, v, mode))
        << what << " reach(" << u << ", " << v << ") mode "
        << static_cast<int>(mode);
  }
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t p = 0; p < patterns.size(); ++p) {
      const MatchResult want = Match(truth, patterns[p]);
      ASSERT_EQ(pin->BooleanMatch(patterns[p]), want.matched)
          << what << " boolean pattern " << p << " pass " << pass;
      ASSERT_EQ(pin->Match(patterns[p]).match_sets, want.match_sets)
          << what << " pattern " << p << " pass " << pass;
    }
  }
}

// ---------------------------------------------------------------------------
// Differential correctness across publish cycles, all families. Two query
// passes per version: the first fills the cache, the second answers from it
// — both must equal the uncached oracle.
// ---------------------------------------------------------------------------

TEST(CachedQueryServiceTest, DifferentialAcrossPublishCyclesAllFamilies) {
  for (auto& [name, initial] : FamilyCorpus()) {
    SnapshotManager mgr(initial);
    CachedQueryService cached(mgr);
    const std::vector<PatternQuery> patterns =
        ServeLoadPatterns(initial, 5, 77);
    Graph mirror = initial;

    for (size_t round = 0; round < 4; ++round) {  // version 1 + 3 publishes
      const auto pin = cached.Pin();
      // Two identical passes: pass 2 re-probes what pass 1 cached.
      ExpectPinMatchesOracle(pin, mirror, patterns, 150, 500 + round, name);
      ExpectPinMatchesOracle(pin, mirror, patterns, 150, 500 + round, name);
      const UpdateBatch batch =
          RandomMixed(mgr.graph(), 12, 0.55, 900 + 17 * round);
      mgr.Apply(batch);
      ApplyBatch(mirror, batch);
      mgr.Publish();
    }
    const CacheStats stats = cached.cache_stats();
    EXPECT_GT(stats.reach_exact_hits, 0u) << name;
    EXPECT_GT(stats.reach_inserts, 0u) << name;
  }
}

// ---------------------------------------------------------------------------
// A reach lookup is one exact probe: a pair the table has not seen is a
// counted miss and is evaluated, even when cached answers about its
// endpoints decide it by transitivity.
// ---------------------------------------------------------------------------

TEST(CachedQueryServiceTest, TransitiveProbesAreCountedMisses) {
  // A long chain: i reaches j iff i < j (non-empty), so every probe below
  // follows from its two seeds.
  const Graph g = LongChain(60, 2);
  SnapshotManager mgr(g);
  CachedQueryService cached(mgr);
  const auto pin = cached.Pin();

  const auto expect_counted_miss = [&](NodeId u, NodeId v, bool want) {
    SCOPED_TRACE(::testing::Message() << u << " -> " << v);
    const CacheStats before = cached.cache_stats();
    EXPECT_EQ(pin->Reach(u, v), want);
    const CacheStats after = cached.cache_stats();
    EXPECT_EQ(after.reach_misses, before.reach_misses + 1);
    EXPECT_EQ(after.reach_inserts, before.reach_inserts + 1);
    EXPECT_EQ(after.reach_exact_hits, before.reach_exact_hits);
    EXPECT_EQ(after.reach_subsumption_hits, 0u);
  };

  // true(5 -> 15) and true(15 -> 25) imply true(5 -> 25).
  ASSERT_TRUE(pin->Reach(5, 15));
  ASSERT_TRUE(pin->Reach(15, 25));
  expect_counted_miss(5, 25, true);

  // true(10 -> 20) and false(40 -> 20) imply false(40 -> 10).
  ASSERT_TRUE(pin->Reach(10, 20));
  ASSERT_FALSE(pin->Reach(40, 20));
  expect_counted_miss(40, 10, false);

  // true(30 -> 45) and false(30 -> 28) imply false(45 -> 28).
  ASSERT_TRUE(pin->Reach(30, 45));
  ASSERT_FALSE(pin->Reach(30, 28));
  expect_counted_miss(45, 28, false);
}

// ---------------------------------------------------------------------------
// Eviction under pressure: tiny capacities, sustained load — evictions must
// happen and answers must stay oracle-exact throughout.
// ---------------------------------------------------------------------------

TEST(CachedQueryServiceTest, EvictionUnderPressureStaysExact) {
  const Graph g = GenerateUniform(200, 520, 4, 29);
  SnapshotManager mgr(g);
  AnswerCacheOptions options;
  options.reach_capacity = 64;
  options.match_capacity = 4;
  CachedQueryService cached(mgr, options);
  const std::vector<PatternQuery> patterns = ServeLoadPatterns(g, 24, 31);
  ASSERT_FALSE(patterns.empty());

  const auto pin = cached.Pin();
  Rng rng(90);
  for (size_t i = 0; i < 4000; ++i) {
    const NodeId u = static_cast<NodeId>(rng.Uniform(g.num_nodes()));
    const NodeId v = static_cast<NodeId>(rng.Uniform(g.num_nodes()));
    ASSERT_EQ(pin->Reach(u, v), BfsReaches(g, u, v));
    if (i % 8 == 0) {
      const PatternQuery& p = patterns[rng.Uniform(patterns.size())];
      ASSERT_EQ(pin->BooleanMatch(p), Match(g, p).matched);
    }
  }
  const CacheStats stats = cached.cache_stats();
  EXPECT_GT(stats.reach_evictions, 0u);
  EXPECT_GT(stats.reach_exact_hits, 0u);
}

// ---------------------------------------------------------------------------
// Version attachment: a publish cold-starts the new version's cache; a
// reader still pinning a retired version keeps its warm cache and stays
// correct against that version's graph.
// ---------------------------------------------------------------------------

TEST(CachedQueryServiceTest, RetiredVersionPinStaysWarmAndCorrect) {
  const Graph initial = GenerateUniform(80, 220, 4, 13);
  SnapshotManager mgr(initial);
  AnswerCacheOptions options;
  options.max_versions = 2;
  CachedQueryService cached(mgr, options);

  const auto old_pin = cached.Pin();
  const Graph old_graph = mgr.graph();
  ExpectPinMatchesOracle(old_pin, old_graph, {}, 100, 1, "warmup");
  Graph mirror = old_graph;

  // Publish well past max_versions: the version-1 cache is retired from the
  // bank, but old_pin's handle keeps it alive and warm.
  for (size_t round = 0; round < 5; ++round) {
    const UpdateBatch batch = RandomMixed(mgr.graph(), 10, 0.5, 600 + round);
    mgr.Apply(batch);
    ApplyBatch(mirror, batch);
    mgr.Publish();
  }
  const auto new_pin = cached.Pin();
  EXPECT_NE(old_pin->version(), new_pin->version());
  ExpectPinMatchesOracle(new_pin, mirror, {}, 150, 2, "post-publish");
  // The retired-version pin must still answer for ITS graph, not the
  // current one.
  ExpectPinMatchesOracle(old_pin, old_graph, {}, 150, 3, "retired-pin");
}

// ---------------------------------------------------------------------------
// Negative match cache: misses are remembered (and only misses), hits are
// re-evaluated, answers stay oracle-exact.
// ---------------------------------------------------------------------------

TEST(CachedQueryServiceTest, NegativeMatchCacheRemembersOnlyMisses) {
  const Graph g = GenerateUniform(60, 160, 4, 11);
  SnapshotManager mgr(g);
  CachedQueryService cached(mgr);
  const auto pin = cached.Pin();

  // A pattern whose label does not occur in g can never match.
  PatternQuery never;
  never.AddNode(static_cast<Label>(999));
  ASSERT_FALSE(Match(g, never).matched);
  EXPECT_FALSE(pin->BooleanMatch(never));
  const CacheStats after_first = cached.cache_stats();
  EXPECT_EQ(after_first.match_negative_hits, 0u);
  EXPECT_EQ(after_first.match_inserts, 1u);
  EXPECT_FALSE(pin->BooleanMatch(never));
  const CacheStats after_second = cached.cache_stats();
  EXPECT_EQ(after_second.match_negative_hits, 1u);

  // A pattern that matches is never stored: both probes evaluate.
  PatternQuery always;
  always.AddNode(g.label(0));
  ASSERT_TRUE(Match(g, always).matched);
  EXPECT_TRUE(pin->BooleanMatch(always));
  EXPECT_TRUE(pin->BooleanMatch(always));
  const CacheStats after_hits = cached.cache_stats();
  EXPECT_EQ(after_hits.match_inserts, 1u);  // still just the negative one
  EXPECT_EQ(after_hits.match_misses, after_second.match_misses + 2);
}

// ---------------------------------------------------------------------------
// Sharded facade: cached routed answers equal the unsharded oracle across
// per-shard publish cycles, for several K.
// ---------------------------------------------------------------------------

TEST(CachedShardedServiceTest, RoutedCachedDifferentialAcrossPublishes) {
  const Graph initial = GenerateUniform(90, 300, 4, 7);
  for (const uint32_t k : {1u, 2u, 3u}) {
    ShardedManagerOptions opts;
    opts.num_shards = k;
    ShardedSnapshotManager mgr(initial, opts);
    CachedShardedQueryService cached(mgr);
    const std::vector<PatternQuery> patterns =
        ServeLoadPatterns(initial, 5, 55);
    Graph mirror = initial;

    for (size_t round = 0; round < 3; ++round) {
      const auto pin = cached.Pin();
      ExpectPinMatchesOracle(pin, mirror, patterns, 120, 700 + round,
                             "sharded");
      ExpectPinMatchesOracle(pin, mirror, patterns, 120, 700 + round,
                             "sharded");
      const UpdateBatch batch =
          RandomMixed(mirror, 16, 0.55, 800 + 13 * round);
      mgr.Apply(batch);
      ApplyBatch(mirror, batch);
      mgr.PublishAll();
    }
    const CacheStats stats = cached.cache_stats();
    EXPECT_GT(stats.reach_exact_hits, 0u) << "K=" << k;
  }
}

// ---------------------------------------------------------------------------
// Out-of-range node ids abort through a warm cached facade exactly as
// through the uncached one, on the reflexive diagonal too. (Threadsafe
// style: the child re-runs the test from the start instead of forking a
// process that may hold locks or threads.)
// ---------------------------------------------------------------------------

// Warms `cached` with Reach(0, v) for every v < n, then probes past n.
template <typename CachedService>
void ExpectOutOfRangeReachAborts(const CachedService& cached, NodeId n) {
  for (NodeId v = 0; v < n; ++v) (void)cached.Reach(0, v);
  EXPECT_DEATH((void)cached.Reach(n, 0), "QPGC_CHECK failed");
  EXPECT_DEATH((void)cached.Reach(0, n), "QPGC_CHECK failed");
  EXPECT_DEATH((void)cached.Reach(1000000, 1000000), "QPGC_CHECK failed");
}

TEST(CachedQueryServiceDeathTest, OutOfRangeReachAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const Graph g = GenerateUniform(200, 600, 3, 5);
  SnapshotManager mgr(g);
  ExpectOutOfRangeReachAborts(CachedQueryService(mgr), 200);
  EXPECT_DEATH((void)QueryService(mgr).Reach(1000000, 1000000),
               "QPGC_CHECK failed");
}

TEST(CachedShardedQueryServiceDeathTest, OutOfRangeReachAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const Graph g = GenerateUniform(200, 600, 3, 5);
  ShardedManagerOptions opts;
  opts.num_shards = 2;
  ShardedSnapshotManager mgr(g, opts);
  ExpectOutOfRangeReachAborts(CachedShardedQueryService(mgr), 200);
  EXPECT_DEATH((void)ShardedQueryService(mgr).Reach(1000000, 1000000),
               "QPGC_CHECK failed");
}

// ---------------------------------------------------------------------------
// Workload sampler: the hot set is a pure function of the workload seed, so
// independent readers (and A/B phases) replay the same hot pairs.
// ---------------------------------------------------------------------------

TEST(ServingWorkloadTest, ZipfHotSetIsSharedAcrossSamplers) {
  const ReaderWorkload w = ReaderWorkload::ZipfHotSet(1.1, 64);
  const WorkloadSampler a(w, 500);
  const WorkloadSampler b(w, 500);
  Rng rng_a(123);
  Rng rng_b(123);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.SampleReachPair(rng_a), b.SampleReachPair(rng_b));
  }
  // Skew sanity: rank 0's pair dominates a long sample.
  Rng rng(7);
  std::unordered_map<uint64_t, size_t> freq;
  for (int i = 0; i < 4000; ++i) {
    const auto [u, v] = a.SampleReachPair(rng);
    ++freq[(static_cast<uint64_t>(u) << 32) | v];
  }
  size_t top = 0;
  for (const auto& [pair, count] : freq) top = std::max(top, count);
  EXPECT_LE(freq.size(), 64u);
  EXPECT_GT(top, 4000u / 16);  // far above uniform's 4000/64
}

// ---------------------------------------------------------------------------
// TSan stress: N cached readers under Zipf repetition + 1 publishing
// writer; every observation oracle-checked for the exact pinned version.
// ---------------------------------------------------------------------------

struct CacheObservation {
  uint64_t version = 0;
  bool is_reach = false;
  NodeId u = 0;
  NodeId v = 0;
  size_t pattern = 0;
  bool answer = false;
};

TEST(ServingCacheStressTest, ConcurrentCachedQueriesMatchOracle) {
  constexpr size_t kReaders = 3;
  constexpr size_t kVersions = 8;
  constexpr size_t kMaxObservationsPerReader = 1200;

  const Graph initial = GenerateUniform(200, 460, 4, 41);
  const std::vector<PatternQuery> patterns =
      ServeLoadPatterns(initial, 6, 61);
  ASSERT_FALSE(patterns.empty());

  SnapshotManager mgr(initial);
  CachedQueryService cached(mgr);
  std::unordered_map<uint64_t, Graph> version_graph;
  version_graph.emplace(1, initial);

  std::atomic<bool> done{false};
  std::atomic<size_t> requests{0};
  std::vector<std::vector<CacheObservation>> observed(kReaders);

  const ReaderWorkload workload = ReaderWorkload::ZipfHotSet(1.1, 128);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(7000 + r);
      const WorkloadSampler sampler(workload, initial.num_nodes());
      auto& log = observed[r];
      while (!done.load(std::memory_order_relaxed) &&
             log.size() < kMaxObservationsPerReader) {
        const auto pin = cached.Pin();
        CacheObservation ob;
        ob.version = pin->version();
        if (rng.Uniform(8) == 0) {
          ob.pattern = sampler.SamplePatternIndex(rng, patterns.size());
          ob.answer = pin->BooleanMatch(patterns[ob.pattern]);
        } else {
          ob.is_reach = true;
          const std::pair<NodeId, NodeId> uv = sampler.SampleReachPair(rng);
          ob.u = uv.first;
          ob.v = uv.second;
          ob.answer = pin->Reach(ob.u, ob.v);
        }
        log.push_back(ob);
        requests.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // The readers repeat hot pairs on version 1 before the writer starts, so
  // the exact tier sees hits however the threads happen to be scheduled.
  while (requests.load(std::memory_order_relaxed) < kReaders * 64) {
    std::this_thread::yield();
  }

  for (size_t round = 2; round <= kVersions; ++round) {
    mgr.Apply(RandomMixed(mgr.graph(), 8, 0.55, 9000 + round));
    const PublishStats stats = mgr.Publish();
    version_graph.emplace(stats.version, mgr.graph());
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  std::unordered_map<uint64_t, std::vector<MatchResult>> match_oracle;
  size_t checked = 0;
  for (const auto& log : observed) {
    for (const CacheObservation& ob : log) {
      const auto it = version_graph.find(ob.version);
      ASSERT_NE(it, version_graph.end());
      const Graph& truth = it->second;
      if (ob.is_reach) {
        ASSERT_EQ(ob.answer, BfsReaches(truth, ob.u, ob.v))
            << "version " << ob.version << " reach(" << ob.u << ", " << ob.v
            << ")";
      } else {
        auto& oracle = match_oracle[ob.version];
        if (oracle.empty()) {
          oracle.reserve(patterns.size());
          for (const PatternQuery& p : patterns) {
            oracle.push_back(Match(truth, p));
          }
        }
        ASSERT_EQ(ob.answer, oracle[ob.pattern].matched)
            << "version " << ob.version << " pattern " << ob.pattern;
      }
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
  EXPECT_GT(cached.cache_stats().reach_exact_hits, 0u);
}

}  // namespace
}  // namespace qpgc
