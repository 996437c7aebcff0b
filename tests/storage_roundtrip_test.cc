// Copyright 2026 The QPGC Authors.
//
// Round-trip differential suite for the on-disk snapshot format
// (storage/snapshot_io.h) and the mmap serving path
// (storage/mmap_snapshot.h). The contract under test: save → load (full
// deserialize) and save → Open (mmap, both trusted and fully-verified)
// answer every query class identically to the live in-RAM snapshot the
// artifact was written from — for every generator family (including the
// adversarial deep topologies), every index/adjacency encoding, and
// sharded serving with K in {1, 2, 7} via LoadShardSet + PinnedShards.
// Also covers SnapshotManager adoption of reconstructed artifacts: after
// a load, incremental maintenance must continue exactly.

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "gen/adversarial.h"
#include "gen/random_models.h"
#include "gen/uniform.h"
#include "gen/update_gen.h"
#include "graph/graph.h"
#include "graph/traversal.h"
#include "pattern/match.h"
#include "pattern/pattern_gen.h"
#include "serve/router.h"
#include "serve/sharded_manager.h"
#include "serve/snapshot_manager.h"
#include "storage/mmap_snapshot.h"
#include "storage/snapshot_io.h"
#include "util/rng.h"

namespace qpgc::storage {
namespace {

// One representative per generator family (mirrors the serving suites'
// corpus): two random models plus the five adversarial deep topologies.
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

std::vector<PatternQuery> TestPatterns(const Graph& g, size_t count,
                                       uint64_t seed) {
  if (g.CountDistinctLabels() <= 1) return {};
  PatternGenOptions opts;
  opts.num_nodes = 3;
  opts.num_edges = 3;
  opts.max_bound = 2;
  std::vector<PatternQuery> patterns;
  const std::vector<Label> labels = DistinctLabels(g);
  for (size_t i = 0; i < count; ++i) {
    patterns.push_back(RandomPattern(labels, opts, seed + i));
  }
  return patterns;
}

// A fresh artifact path under the test's temp dir; the file is replaced by
// every save, so collisions across tests are avoided by name.
std::string ArtifactPath(const std::string& name) {
  return ::testing::TempDir() + "qpgc_" + name + ".snap";
}

// Asserts that `reach` / `match` / `boolean_match` (any object exposing the
// snapshot query surface) answer exactly like direct evaluation on the
// original graph AND like the live snapshot `truth`.
template <typename Queryable>
void ExpectAnswersMatch(const Queryable& got, const ServingSnapshot& truth,
                        const Graph& oracle, uint64_t seed,
                        const char* context) {
  SCOPED_TRACE(context);
  Rng rng(seed);
  const size_t n = oracle.num_nodes();
  for (int i = 0; i < 200; ++i) {
    const NodeId u = static_cast<NodeId>(rng.Uniform(n));
    const NodeId v = static_cast<NodeId>(rng.Uniform(n));
    const PathMode mode =
        rng.Chance(0.5) ? PathMode::kReflexive : PathMode::kNonEmpty;
    const bool want = truth.Reach(u, v, mode);
    ASSERT_EQ(got.Reach(u, v, mode), want)
        << "reach(" << u << ", " << v << ") mode " << static_cast<int>(mode);
    ASSERT_EQ(want, BfsReaches(oracle, u, v, mode)) << "oracle disagrees";
  }
  // The diagonal under non-empty semantics (cycle detection) is where a
  // mis-wired self-loop section would first show.
  for (int i = 0; i < 40; ++i) {
    const NodeId u = static_cast<NodeId>(rng.Uniform(n));
    ASSERT_EQ(got.Reach(u, u, PathMode::kNonEmpty),
              truth.Reach(u, u, PathMode::kNonEmpty))
        << "cycle through " << u;
  }
  for (const PatternQuery& q : TestPatterns(oracle, 5, seed + 991)) {
    const MatchResult want = truth.Match(q);
    const MatchResult got_match = got.Match(q);
    ASSERT_EQ(got_match.matched, want.matched);
    ASSERT_EQ(got_match.match_sets, want.match_sets);
    ASSERT_EQ(got.BooleanMatch(q), want.matched);
  }
}

// ---------------------------------------------------------------------------
// Unsharded round trips, all families, all encodings.
// ---------------------------------------------------------------------------

TEST(StorageRoundTripTest, LoadedAndMmapAnswersEqualLiveOnAllFamilies) {
  for (auto& [name, g] : FamilyCorpus()) {
    const Graph oracle = g;
    SnapshotManager mgr(std::move(g));
    const auto live = mgr.Acquire();
    const std::string path = ArtifactPath(std::string("rt_") + name);
    ASSERT_TRUE(SaveSnapshot(*live, path).ok()) << name;

    // Full deserialize, everything verified (the untrusted default).
    const Result<LoadedSnapshot> loaded = LoadServingSnapshot(path);
    ASSERT_TRUE(loaded.ok()) << name << ": " << loaded.status().message();
    EXPECT_EQ(loaded.value().num_shards, 1u);
    EXPECT_EQ(loaded.value().snapshot->version(), live->version());
    ExpectAnswersMatch(*loaded.value().snapshot, *live, oracle, 71,
                       (std::string(name) + "/deserialized").c_str());

    // Mmap, trusted fast path (default options).
    const Result<MmapSnapshot> fast = MmapSnapshot::Open(path);
    ASSERT_TRUE(fast.ok()) << name << ": " << fast.status().message();
    EXPECT_EQ(fast.value().version(), live->version());
    EXPECT_EQ(fast.value().original_num_nodes(), oracle.num_nodes());
    EXPECT_EQ(fast.value().num_shards(), 1u);
    ExpectAnswersMatch(fast.value(), *live, oracle, 72,
                       (std::string(name) + "/mmap-trusted").c_str());

    // Mmap, fully verified + validated.
    const Result<MmapSnapshot> checked =
        MmapSnapshot::Open(path, LoadOptions{/*verify=*/true});
    ASSERT_TRUE(checked.ok()) << name << ": " << checked.status().message();
    ExpectAnswersMatch(checked.value(), *live, oracle, 73,
                       (std::string(name) + "/mmap-verified").c_str());

    std::remove(path.c_str());
  }
}

// An unsharded save always writes an empty cross-edge section, and an
// edgeless graph empties the adjacency sections too. Their payloads have a
// null data(); copying them into the file must not hand that to memcpy
// (UBSan reports it under -DQPGC_SANITIZE=undefined).
TEST(StorageRoundTripTest, UnshardedSaveWithEmptySectionsReloads) {
  Graph path_graph(std::vector<Label>{0, 1, 0});
  path_graph.AddEdge(0, 1);
  path_graph.AddEdge(1, 2);
  std::vector<std::pair<const char*, Graph>> graphs;
  graphs.emplace_back("path", std::move(path_graph));
  graphs.emplace_back("edgeless", Graph(std::vector<Label>{0, 1, 1}));
  for (auto& [name, g] : graphs) {
    const Graph oracle = g;
    SnapshotManager mgr(std::move(g));
    const auto live = mgr.Acquire();
    ASSERT_TRUE(live->pattern_cross_edges().empty());
    const std::string path = ArtifactPath(std::string("rt_empty_") + name);
    ASSERT_TRUE(SaveSnapshot(*live, path).ok()) << name;
    const Result<LoadedSnapshot> loaded = LoadServingSnapshot(path);
    ASSERT_TRUE(loaded.ok()) << name << ": " << loaded.status().message();
    ExpectAnswersMatch(*loaded.value().snapshot, *live, oracle, 74,
                       (std::string(name) + "/deserialized").c_str());
    const Result<MmapSnapshot> mapped = MmapSnapshot::Open(
        path, LoadOptions{/*verify=*/true});
    ASSERT_TRUE(mapped.ok()) << name << ": " << mapped.status().message();
    ExpectAnswersMatch(mapped.value(), *live, oracle, 75,
                       (std::string(name) + "/mmap").c_str());
    std::remove(path.c_str());
  }
}

TEST(StorageRoundTripTest, EncodingVariantsAgree) {
  for (auto& [name, g] : FamilyCorpus()) {
    const Graph oracle = g;
    SnapshotManager mgr(std::move(g));
    const auto live = mgr.Acquire();

    // Pinned 8-byte offsets (the compatibility / worst-case layout).
    SaveOptions raw64;
    raw64.index_encoding = IndexEncoding::kRaw64;
    // Compact index + varint adjacency (the cold-shard layout).
    SaveOptions varint;
    varint.varint_adjacency = true;

    const std::string p64 = ArtifactPath(std::string("enc64_") + name);
    const std::string pv = ArtifactPath(std::string("encv_") + name);
    ASSERT_TRUE(SaveSnapshot(*live, p64, raw64).ok()) << name;
    ASSERT_TRUE(SaveSnapshot(*live, pv, varint).ok()) << name;

    const Result<MmapSnapshot> m64 = MmapSnapshot::Open(
        p64, LoadOptions{/*verify=*/true});
    ASSERT_TRUE(m64.ok()) << name << ": " << m64.status().message();
    // Raw layouts serve fully in place: no decode heap.
    EXPECT_EQ(m64.value().DecodedHeapBytes(), 0u) << name;
    ExpectAnswersMatch(m64.value(), *live, oracle, 81,
                       (std::string(name) + "/raw64").c_str());

    const Result<MmapSnapshot> mv = MmapSnapshot::Open(
        pv, LoadOptions{/*verify=*/true});
    ASSERT_TRUE(mv.ok()) << name << ": " << mv.status().message();
    // Varint adjacency cannot be served in place; it decodes at Open.
    if (oracle.num_edges() > 0) {
      EXPECT_GT(mv.value().DecodedHeapBytes(), 0u) << name;
    }
    ExpectAnswersMatch(mv.value(), *live, oracle, 82,
                       (std::string(name) + "/varint").c_str());

    const Result<LoadedSnapshot> lv = LoadServingSnapshot(pv);
    ASSERT_TRUE(lv.ok()) << name << ": " << lv.status().message();
    ExpectAnswersMatch(*lv.value().snapshot, *live, oracle, 83,
                       (std::string(name) + "/varint-deserialized").c_str());

    std::remove(p64.c_str());
    std::remove(pv.c_str());
  }
}

// ---------------------------------------------------------------------------
// Sharded round trips: LoadShardSet must reassemble a serving state whose
// routed answers are identical to the live sharded service's.
// ---------------------------------------------------------------------------

TEST(StorageRoundTripTest, ShardSetRoundTripMatchesLiveService) {
  for (const uint32_t k : {1u, 2u, 7u}) {
    for (auto& [name, g] : FamilyCorpus()) {
      SCOPED_TRACE(std::string(name) + " K=" + std::to_string(k));
      ShardedManagerOptions opts;
      opts.num_shards = k;
      const ShardedSnapshotManager mgr(g, opts);
      const auto live_snaps = mgr.AcquireAll();

      std::vector<std::string> paths;
      for (uint32_t s = 0; s < k; ++s) {
        SaveOptions save;
        save.shard = s;
        save.num_shards = k;
        if (k > 1) save.partition = &mgr.partition();
        paths.push_back(ArtifactPath(std::string("sh_") + name + "_" +
                                     std::to_string(k) + "_" +
                                     std::to_string(s)));
        ASSERT_TRUE(SaveSnapshot(*live_snaps[s], paths.back(), save).ok());
      }

      const Result<LoadedShardSet> set = LoadShardSet(paths);
      ASSERT_TRUE(set.ok()) << set.status().message();
      ASSERT_EQ(set.value().snapshots.size(), k);
      ASSERT_EQ(set.value().partition->num_shards, k);

      const PinnedShards loaded_pins(set.value().partition,
                                     set.value().snapshots);
      const ShardedQueryService live(mgr);
      const auto live_pins = live.Pin();

      Rng rng(600 + k);
      const size_t n = g.num_nodes();
      for (int i = 0; i < 200; ++i) {
        const NodeId u = static_cast<NodeId>(rng.Uniform(n));
        const NodeId v = static_cast<NodeId>(rng.Uniform(n));
        const PathMode mode =
            rng.Chance(0.5) ? PathMode::kReflexive : PathMode::kNonEmpty;
        ASSERT_EQ(loaded_pins.Reach(u, v, mode),
                  live_pins->Reach(u, v, mode))
            << "reach(" << u << ", " << v << ")";
        ASSERT_EQ(live_pins->Reach(u, v, mode), BfsReaches(g, u, v, mode))
            << "oracle disagrees with live service";
      }
      for (const PatternQuery& q : TestPatterns(g, 5, 700 + k)) {
        const MatchResult want = live_pins->Match(q);
        const MatchResult got = loaded_pins.Match(q);
        ASSERT_EQ(got.matched, want.matched);
        ASSERT_EQ(got.match_sets, want.match_sets);
        ASSERT_EQ(loaded_pins.BooleanMatch(q), live_pins->BooleanMatch(q));
      }

      for (const std::string& p : paths) std::remove(p.c_str());
    }
  }
}

TEST(StorageRoundTripTest, ShardSetRejectsInconsistentSets) {
  Graph g = GenerateUniform(60, 180, 3, 5);
  ShardedManagerOptions opts;
  opts.num_shards = 2;
  const ShardedSnapshotManager mgr(g, opts);
  const auto snaps = mgr.AcquireAll();

  std::vector<std::string> paths;
  for (uint32_t s = 0; s < 2; ++s) {
    SaveOptions save;
    save.shard = s;
    save.num_shards = 2;
    save.partition = &mgr.partition();
    paths.push_back(ArtifactPath("bad_set_" + std::to_string(s)));
    ASSERT_TRUE(SaveSnapshot(*snaps[s], paths.back(), save).ok());
  }

  // Wrong path count.
  EXPECT_FALSE(LoadShardSet({paths[0]}).ok());
  // The same shard twice is not a set.
  EXPECT_FALSE(LoadShardSet({paths[0], paths[0]}).ok());
  // Order independence: reversed paths still assemble correctly.
  const Result<LoadedShardSet> reversed = LoadShardSet({paths[1], paths[0]});
  ASSERT_TRUE(reversed.ok()) << reversed.status().message();
  EXPECT_EQ(reversed.value().snapshots.size(), 2u);

  for (const std::string& p : paths) std::remove(p.c_str());
}

// ---------------------------------------------------------------------------
// Manager adoption: reconstructed artifacts must support exact incremental
// maintenance, as if the adopting manager had compressed the graph itself.
// ---------------------------------------------------------------------------

TEST(StorageRoundTripTest, AdoptedManagerStaysExactUnderUpdates) {
  for (auto& [name, g] : FamilyCorpus()) {
    SCOPED_TRACE(name);
    SnapshotManager original(g);
    const std::string path = ArtifactPath(std::string("adopt_") + name);
    {
      const auto live = original.Acquire();
      ASSERT_TRUE(SaveSnapshot(*live, path).ok());
    }

    const Result<LoadedSnapshot> loaded = LoadServingSnapshot(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    Result<ReconstructedArtifacts> rebuilt =
        ReconstructArtifacts(g, *loaded.value().snapshot);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().message();

    SnapshotManager adopted(g, std::move(rebuilt.value().rc),
                            std::move(rebuilt.value().pc));
    Graph mirror = g;
    for (size_t round = 0; round < 3; ++round) {
      {
        const auto pin = adopted.Acquire();
        ExpectAnswersMatch(*pin, *pin, mirror, 900 + round,
                           "adopted manager");
      }
      const UpdateBatch batch =
          RandomMixed(adopted.graph(), 12, 0.55, 1300 + 17 * round);
      adopted.Apply(batch);
      ApplyBatch(mirror, batch);
      adopted.Publish();
    }
    std::remove(path.c_str());
  }
}

// A 2000-node path with one 2-cycle: its reach quotient merges two nodes
// (ratio 0.9995), so the reach side is served and saved as G itself, and
// the saved reach graph has a cycle without self-loops — no quotient has
// one. The warm start compresses that side from the graph instead.
TEST(StorageRoundTripTest, WarmStartFromIdentityReachSideWithACycle) {
  constexpr NodeId kN = 2000;
  std::vector<Label> labels(kN);
  for (NodeId v = 0; v < kN; ++v) labels[v] = v % 3;
  Graph g(std::move(labels));
  for (NodeId v = 0; v + 1 < kN; ++v) g.AddEdge(v, v + 1);
  g.AddEdge(1001, 1000);
  SnapshotManager original(g);
  ASSERT_EQ(original.reach_representation(), SideRepresentation::kIdentity);
  const std::string path = ArtifactPath("identity_reach_cycle");
  {
    const auto live = original.Acquire();
    ASSERT_TRUE(SaveSnapshot(*live, path).ok());
  }
  const Result<LoadedSnapshot> loaded = LoadServingSnapshot(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  Result<ReconstructedArtifacts> rebuilt =
      ReconstructArtifacts(g, *loaded.value().snapshot);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().message();
  EXPECT_EQ(rebuilt.value().rc.gr.num_nodes(), kN - 1);

  SnapshotManager adopted(g, std::move(rebuilt.value().rc),
                          std::move(rebuilt.value().pc));
  EXPECT_EQ(adopted.reach_representation(), SideRepresentation::kIdentity);
  Graph mirror = g;
  for (size_t round = 0; round < 2; ++round) {
    const UpdateBatch batch =
        RandomMixed(adopted.graph(), 8, 0.5, 1500 + round);
    adopted.Apply(batch);
    ApplyBatch(mirror, batch);
    adopted.Publish();
    const auto pin = adopted.Acquire();
    ExpectAnswersMatch(*pin, *pin, mirror, 910 + round, "adopted");
  }
}

// A reach side with a cycle that is not G itself is neither a quotient nor
// an identity side: a status, not an abort in the topological ranking.
TEST(StorageRoundTripTest, ReconstructRejectsCyclicReachSide) {
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  Graph other = g;
  other.AddEdge(3, 2);
  const auto snapshot_with_reach_graph = [&g](const Graph& reach_graph) {
    auto reach = std::make_shared<FrozenReachSide>();
    reach->FillIdentity(std::make_shared<const CsrGraph>(reach_graph));
    auto pattern = std::make_shared<FrozenPatternSide>();
    pattern->Fill(CompressB(g));
    return ServingSnapshot(1, std::move(reach), std::move(pattern));
  };
  const std::string path = ArtifactPath("cyclic_reach_side");
  for (const bool identity : {true, false}) {
    SCOPED_TRACE(identity ? "identity image" : "another graph");
    ASSERT_TRUE(
        SaveSnapshot(snapshot_with_reach_graph(identity ? g : other), path)
            .ok());
    const Result<LoadedSnapshot> loaded = LoadServingSnapshot(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    const Result<ReconstructedArtifacts> rebuilt =
        ReconstructArtifacts(g, *loaded.value().snapshot);
    if (!identity) {
      ASSERT_FALSE(rebuilt.ok());
      EXPECT_EQ(rebuilt.status().code(), StatusCode::kInvalidArgument);
      continue;
    }
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().message();
    const ReachCompression want = CompressR(g);
    EXPECT_EQ(rebuilt.value().rc.node_map, want.node_map);
    EXPECT_TRUE(rebuilt.value().rc.gr == want.gr);
  }
  std::remove(path.c_str());
}

TEST(StorageRoundTripTest, ReconstructRejectsMismatchedGraph) {
  Graph g = GenerateUniform(50, 150, 3, 5);
  SnapshotManager mgr(g);
  const std::string path = ArtifactPath("mismatch");
  {
    const auto live = mgr.Acquire();
    ASSERT_TRUE(SaveSnapshot(*live, path).ok());
  }
  const Result<LoadedSnapshot> loaded = LoadServingSnapshot(path);
  ASSERT_TRUE(loaded.ok());

  // Wrong node count.
  const Graph smaller = GenerateUniform(49, 140, 3, 5);
  EXPECT_FALSE(ReconstructArtifacts(smaller, *loaded.value().snapshot).ok());

  // Same shape, one label changed: the consistency probe must notice.
  Graph relabeled = g;
  relabeled.set_label(0, relabeled.label(0) + 1);
  EXPECT_FALSE(
      ReconstructArtifacts(relabeled, *loaded.value().snapshot).ok());

  std::remove(path.c_str());
}

}  // namespace
}  // namespace qpgc::storage
