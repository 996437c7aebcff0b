// Copyright 2026 The QPGC Authors.
//
// Sharded serving: shard materialization, per-shard snapshot managers,
// and the routing query service. The heart of the suite is differential:
// routed Reach / Match / BooleanMatch over K pinned per-shard snapshots
// must be bit-identical to direct evaluation on the unsharded graph, for
// every generator family (including the adversarial deep topologies) and
// K in {1, 2, 7}, before and after update batches flow through the
// per-shard incremental pipelines. The stress test drives one writer
// thread per shard concurrently with routed readers and checks every
// observation against a graph reconstructed for the exact version vector
// the query pinned (legitimate because shards own disjoint edge sets).
// The "Sharded" prefix is what CI's TSan job filters on.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <string>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "gen/adversarial.h"
#include "gen/random_models.h"
#include "gen/uniform.h"
#include "gen/update_gen.h"
#include "graph/builder.h"
#include "graph/scc.h"
#include "graph/shard_view.h"
#include "pattern/pattern_gen.h"
#include "serve/boundary_summary.h"
#include "serve/load_gen.h"
#include "serve/router.h"
#include "serve/sharded_manager.h"
#include "util/memory.h"
#include "util/rng.h"

namespace qpgc {
namespace {

// One representative per generator family, labeled where the family
// supports it (mirrors tests/graph_view_test.cc's corpus, sized down: the
// differential suite compresses every graph K times per K).
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

// Checks every query class of `service` against direct evaluation on the
// oracle graph.
void ExpectServiceMatchesOracle(const ShardedQueryService& service,
                                const Graph& oracle, uint64_t seed,
                                const char* context) {
  SCOPED_TRACE(context);
  const size_t n = oracle.num_nodes();
  Rng rng(seed);
  const auto pins = service.Pin();
  ASSERT_EQ(pins->original_num_nodes(), n);
  for (int i = 0; i < 120; ++i) {
    const NodeId u = static_cast<NodeId>(rng.Uniform(n));
    const NodeId v = static_cast<NodeId>(rng.Uniform(n));
    EXPECT_EQ(pins->Reach(u, v, PathMode::kReflexive),
              BfsReaches(oracle, u, v, PathMode::kReflexive))
        << "reflexive reach(" << u << ", " << v << ")";
    EXPECT_EQ(pins->Reach(u, v, PathMode::kNonEmpty),
              BfsReaches(oracle, u, v, PathMode::kNonEmpty))
        << "non-empty reach(" << u << ", " << v << ")";
  }
  // The diagonal under non-empty semantics (cycle detection) gets explicit
  // coverage — it is where ghost-hop bookkeeping would first go wrong.
  for (int i = 0; i < 30; ++i) {
    const NodeId u = static_cast<NodeId>(rng.Uniform(n));
    EXPECT_EQ(pins->Reach(u, u, PathMode::kNonEmpty),
              BfsReaches(oracle, u, u, PathMode::kNonEmpty))
        << "cycle through " << u;
  }
  for (const PatternQuery& q : TestPatterns(oracle, 5, seed + 991)) {
    const MatchResult want = Match(oracle, q);
    const MatchResult got = pins->Match(q);
    EXPECT_EQ(got.matched, want.matched);
    EXPECT_EQ(got.match_sets, want.match_sets);
    EXPECT_EQ(pins->BooleanMatch(q), want.matched);
  }
}

// ---------------------------------------------------------------------------
// Shard materialization and partition plumbing.
// ---------------------------------------------------------------------------

// A shard is G's owned out-runs over the whole node universe: owned nodes
// keep their out-edges and labels, ghosts have no out-edges and carry
// GhostLabel(v), so the shards' edge sets partition G's.
TEST(ShardViewTest, MaterializedShardsPartitionTheGraph) {
  for (const auto& [name, g] : FamilyCorpus()) {
    SCOPED_TRACE(name);
    const ShardPartition part = ShardPartition::Hash(g.num_nodes(), 3, 5);
    size_t shard_edges = 0;
    for (uint32_t s = 0; s < part.num_shards; ++s) {
      const Graph mat = MaterializeShard(g, part, s);
      ASSERT_EQ(mat.num_nodes(), g.num_nodes());
      shard_edges += mat.num_edges();
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        const auto mo = mat.OutNeighbors(v);
        if (part.shard_of[v] == s) {
          EXPECT_EQ(mat.label(v), g.label(v));
          const auto go = g.OutNeighbors(v);
          EXPECT_TRUE(std::equal(mo.begin(), mo.end(), go.begin(), go.end()));
        } else {
          EXPECT_EQ(mat.label(v), GhostLabel(v));
          EXPECT_TRUE(mo.empty());
        }
      }
    }
    EXPECT_EQ(shard_edges, g.num_edges());
  }
}

TEST(ShardViewTest, GhostLabelsDistinguishEveryNonOwnedNode) {
  const Graph g = GenerateUniform(50, 150, 3, 3);
  const ShardPartition part = ShardPartition::Hash(g.num_nodes(), 2, 9);
  const Graph shard = MaterializeShard(g, part, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (part.shard_of[v] == 0) {
      EXPECT_EQ(shard.label(v), g.label(v));
      EXPECT_LT(shard.label(v), kGhostLabelBase);
    } else {
      EXPECT_EQ(shard.label(v), GhostLabel(v));
      EXPECT_GE(shard.label(v), kGhostLabelBase);
      EXPECT_NE(shard.label(v), kNoLabel);
    }
  }
}

TEST(ShardPartitionTest, SplitBatchRoutesBySourceAndKeepsOrder) {
  const ShardPartition part = ShardPartition::Hash(40, 3, 2);
  UpdateBatch batch;
  Rng rng(4);
  for (int i = 0; i < 60; ++i) {
    const NodeId u = static_cast<NodeId>(rng.Uniform(40));
    const NodeId v = static_cast<NodeId>(rng.Uniform(40));
    if (rng.Chance(0.5)) {
      batch.Insert(u, v);
    } else {
      batch.Delete(u, v);
    }
  }
  const std::vector<UpdateBatch> split = SplitBatchByShard(batch, part);
  ASSERT_EQ(split.size(), 3u);
  size_t total = 0;
  for (uint32_t s = 0; s < 3; ++s) {
    total += split[s].size();
    for (const EdgeUpdate& up : split[s].updates) {
      EXPECT_EQ(part.shard_of[up.u], s);
    }
  }
  EXPECT_EQ(total, batch.size());
  // Order preserved per shard: the sub-batch is a subsequence of the batch.
  for (uint32_t s = 0; s < 3; ++s) {
    size_t cursor = 0;
    for (const EdgeUpdate& up : batch.updates) {
      if (cursor < split[s].size() && split[s].updates[cursor] == up) {
        ++cursor;
      }
    }
    EXPECT_EQ(cursor, split[s].size());
  }
}

TEST(ShardPartitionTest, StructurePartitionKeepsSccsTogether) {
  // Three 30-node cycles chained head-to-tail: sizable SCCs the structure
  // partitioner must never split, in a graph whose node ids happen to be
  // laid out in SCC order already. A second copy with scrambled ids checks
  // the partitioner actually derives the layout from the condensation
  // rather than inheriting it from the id space.
  const auto build = [](const std::vector<NodeId>& perm) {
    GraphBuilder builder(90);
    for (NodeId c = 0; c < 3; ++c) {
      const NodeId base = 30 * c;
      for (NodeId i = 0; i < 30; ++i) {
        builder.AddEdge(perm[base + i], perm[base + (i + 1) % 30]);
      }
      if (c > 0) builder.AddEdge(perm[base - 1], perm[base]);
    }
    return builder.Build();
  };

  std::vector<NodeId> identity(90);
  for (NodeId v = 0; v < 90; ++v) identity[v] = v;
  std::vector<NodeId> scrambled = identity;
  Rng rng(77);
  for (size_t i = scrambled.size(); i > 1; --i) {
    std::swap(scrambled[i - 1], scrambled[rng.Uniform(i)]);
  }

  const std::pair<const char*, const std::vector<NodeId>*> cases[] = {
      {"identity", &identity}, {"scrambled", &scrambled}};
  for (const auto& [name, perm] : cases) {
    SCOPED_TRACE(name);
    const Graph g = build(*perm);
    const ShardPartition part = ShardPartition::Structure(g, 3);
    ASSERT_EQ(part.num_shards, 3u);
    ASSERT_EQ(part.num_nodes(), g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_LT(part.shard_of[v], 3u);
    }
    // No SCC is split across shards.
    const SccResult scc = ComputeScc(g);
    ASSERT_EQ(scc.num_components, 3u);
    for (size_t c = 0; c < scc.num_components; ++c) {
      const uint32_t home = part.shard_of[scc.members[c].front()];
      for (const NodeId v : scc.members[c]) {
        EXPECT_EQ(part.shard_of[v], home) << "SCC " << c << " node " << v;
      }
    }
    // With three equal SCCs and k = 3 the balanced cut lands exactly on the
    // SCC boundaries: one cycle per shard, zero cross edges beyond the two
    // chain links.
    for (uint32_t s = 0; s < 3; ++s) {
      EXPECT_EQ(part.OwnedNodes(s).size(), 30u) << "shard " << s;
    }
  }
}

// ---------------------------------------------------------------------------
// Differential correctness of routed queries, every family, K in {1, 2, 7},
// hash and structure partitioners, through update rounds.
// ---------------------------------------------------------------------------

class ShardedServingDifferentialTest
    : public ::testing::TestWithParam<std::tuple<int, PartitionerKind>> {};

TEST_P(ShardedServingDifferentialTest, RoutedAnswersEqualUnshardedOracle) {
  const uint32_t k = static_cast<uint32_t>(std::get<0>(GetParam()));
  const PartitionerKind partitioner = std::get<1>(GetParam());
  for (const auto& [name, initial] : FamilyCorpus()) {
    SCOPED_TRACE(PartitionerKindName(partitioner));
    ShardedManagerOptions opts;
    opts.num_shards = k;
    opts.partition_seed = 29;
    opts.partitioner = partitioner;
    ShardedSnapshotManager mgr(initial, opts);
    const ShardedQueryService service(mgr);
    EXPECT_EQ(mgr.num_shards(), k);

    // Fresh snapshots.
    Graph mirror = initial;
    ExpectServiceMatchesOracle(service, mirror, 1000 + k, name);

    // Three rounds of mixed updates through the per-shard incremental
    // pipelines (the mirror takes the same raw batch; per-shard edge sets
    // are disjoint by source, so the final edge sets agree).
    for (int round = 0; round < 3; ++round) {
      const UpdateBatch batch =
          RandomMixed(mirror, 24, 0.55, 7000 + 31 * k + round);
      mgr.Apply(batch);
      ApplyBatch(mirror, batch);
      mgr.PublishAll();
      ExpectServiceMatchesOracle(service, mirror, 2000 + 10 * k + round,
                                 name);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllShardCountsAndPartitioners, ShardedServingDifferentialTest,
    ::testing::Combine(::testing::Values(1, 2, 7),
                       ::testing::Values(PartitionerKind::kHash,
                                         PartitionerKind::kStructure)),
    [](const ::testing::TestParamInfo<std::tuple<int, PartitionerKind>>&
           info) {
      return "K" + std::to_string(std::get<0>(info.param)) + "_" +
             PartitionerKindName(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Boundary-exit bookkeeping.
// ---------------------------------------------------------------------------

TEST(ShardedServingTest, BoundaryExitsTrackCrossShardEdges) {
  const Graph g = GenerateUniform(60, 180, 3, 13);
  ShardedManagerOptions opts;
  opts.num_shards = 2;
  ShardedSnapshotManager mgr(g, opts);
  const ShardPartition& part = mgr.partition();

  // The published exit set of shard s is exactly the set of non-owned
  // nodes with at least one in-edge inside s.
  for (uint32_t s = 0; s < 2; ++s) {
    const auto snap = mgr.shard(s).Acquire();
    std::vector<NodeId> want;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (part.shard_of[v] == s) continue;
      bool has_in = false;
      for (const NodeId w : g.InNeighbors(v)) {
        if (part.shard_of[w] == s) {
          has_in = true;
          break;
        }
      }
      if (has_in) want.push_back(v);
    }
    EXPECT_EQ(snap->boundary_exits(), want) << "shard " << s;
    EXPECT_EQ(mgr.BoundaryExitCount(s), want.size());
  }

  // Deleting every cross-shard edge into one ghost removes it from the
  // exits of the next published version; re-inserting one brings it back.
  const auto snap0 = mgr.shard(0).Acquire();
  ASSERT_FALSE(snap0->boundary_exits().empty());
  const NodeId ghost = snap0->boundary_exits().front();
  UpdateBatch wipe;
  for (const NodeId w : g.InNeighbors(ghost)) {
    if (part.shard_of[w] == 0) wipe.Delete(w, ghost);
  }
  mgr.Apply(wipe);
  mgr.PublishAll();
  {
    const auto snap = mgr.shard(0).Acquire();
    const auto& exits = snap->boundary_exits();
    EXPECT_FALSE(std::binary_search(exits.begin(), exits.end(), ghost));
  }
  UpdateBatch relink;
  relink.Insert(wipe.updates.front().u, ghost);
  mgr.Apply(relink);
  mgr.PublishAll();
  {
    const auto snap = mgr.shard(0).Acquire();
    const auto& exits = snap->boundary_exits();
    EXPECT_TRUE(std::binary_search(exits.begin(), exits.end(), ghost));
  }
}

// ---------------------------------------------------------------------------
// Frozen boundary summaries.
// ---------------------------------------------------------------------------

// The summary node `summary` records for `entry` (kNoSummaryNode when its
// block was pruned), or nullopt when `entry` was no boundary entry at freeze
// time: the facts the router's route tables read through entries_ptr() and
// entry_summary_nodes().
std::optional<NodeId> SummaryNodeOfEntry(const FrozenBoundarySummary& summary,
                                         NodeId entry) {
  const std::vector<NodeId>& entries = *summary.entries_ptr();
  const auto it = std::lower_bound(entries.begin(), entries.end(), entry);
  if (it == entries.end() || *it != entry) return std::nullopt;
  return summary.entry_summary_nodes()[it - entries.begin()];
}

// For every boundary entry, the exit set read off the frozen summary (a BFS
// over summary nodes collecting ExitsAt) must equal non-empty BFS
// reachability from the entry to each exit on the materialized shard
// subgraph. This pins the whole pipeline: quotient exactness, the
// forward/backward pruning, and the entry/exit row layout.
TEST(ShardedServingTest, BoundarySummaryMatchesShardReachabilityOracle) {
  const Graph g = GenerateUniform(80, 260, 3, 33);
  ShardedManagerOptions opts;
  opts.num_shards = 3;
  ShardedSnapshotManager mgr(g, opts);
  const ShardPartition& part = mgr.partition();
  const auto snaps = mgr.AcquireAll();
  size_t entries_checked = 0;
  for (uint32_t s = 0; s < 3; ++s) {
    SCOPED_TRACE(s);
    const FrozenBoundarySummary* summary = snaps[s]->boundary_summary();
    ASSERT_NE(summary, nullptr);
    const Graph shard_graph = MaterializeShard(g, part, s);
    const std::vector<NodeId>& exits = *summary->exits_ptr();
    EXPECT_EQ(exits, snaps[s]->boundary_exits());
    const std::vector<NodeId>& entries = *summary->entries_ptr();
    ASSERT_EQ(summary->entry_summary_nodes().size(), entries.size());
    for (size_t i = 0; i < entries.size(); ++i) {
      const NodeId entry = entries[i];
      ++entries_checked;
      std::unordered_set<NodeId> got;
      const NodeId node = summary->entry_summary_nodes()[i];
      ASSERT_EQ(SummaryNodeOfEntry(*summary, entry), node);
      if (node != FrozenBoundarySummary::kNoSummaryNode) {
        std::vector<char> seen(summary->num_nodes(), 0);
        std::vector<NodeId> stack;
        const auto push = [&](NodeId w) {
          if (!seen[w]) {
            seen[w] = 1;
            stack.push_back(w);
          }
        };
        // Seed with out-neighbors, not the entry's own node: non-empty
        // semantics, matching the router (a cyclic entry block has a
        // self-loop and re-enters).
        for (const NodeId w : summary->OutNeighbors(node)) push(w);
        while (!stack.empty()) {
          const NodeId w = stack.back();
          stack.pop_back();
          for (const NodeId x : summary->ExitsAt(w)) got.insert(x);
          for (const NodeId y : summary->OutNeighbors(w)) push(y);
        }
      }
      for (const NodeId exit : exits) {
        EXPECT_EQ(got.count(exit) > 0,
                  BfsReaches(shard_graph, entry, exit, PathMode::kNonEmpty))
            << "entry " << entry << " exit " << exit;
      }
    }
    // An unknown node (here: a ghost, never an owned entry) is absent from
    // the entries, not listed with an empty row — the router's fallback
    // trigger.
    if (!exits.empty()) {
      EXPECT_EQ(SummaryNodeOfEntry(*summary, exits.front()), std::nullopt);
    }
  }
  EXPECT_GT(entries_checked, 0u);
}

// ServingSnapshot::MemoryBytes counts each held byte once: the sides (a
// graph both share counted once), the exit set, the exit index and the
// boundary summary, which leaves out the exit set it shares with the
// snapshot. An unsharded snapshot holds none of the boundary arrays.
TEST(ShardedServingTest, SnapshotMemoryBytesCountsEachHeldByteOnce) {
  Graph g = PreferentialAttachment(400, 3, 0.45, 13);
  AssignZipfLabels(g, 4, 1.1, 14);
  const auto side_bytes = [](const ServingSnapshot& snap) {
    const size_t shared = snap.reach_side()->gr == snap.pattern_side()->gr
                              ? snap.reach_gr().MemoryBytes()
                              : 0;
    return snap.reach_side()->MemoryBytes() +
           snap.pattern_side()->MemoryBytes() - shared;
  };
  ShardedManagerOptions opts;
  opts.num_shards = 2;
  ShardedSnapshotManager mgr(g, opts);
  for (uint32_t s = 0; s < opts.num_shards; ++s) {
    SCOPED_TRACE(s);
    const auto snap = mgr.Acquire(s);
    const FrozenBoundarySummary* summary = snap->boundary_summary();
    ASSERT_NE(summary, nullptr);
    const std::vector<NodeId>& exits = snap->boundary_exits();
    ASSERT_FALSE(exits.empty());
    // Block offsets over the reach quotient, then one index per exit.
    const size_t exit_index =
        (snap->reach_gr().num_nodes() + 1) * sizeof(uint32_t) +
        exits.size() * sizeof(NodeId);
    EXPECT_EQ(snap->MemoryBytes(), side_bytes(*snap) + VectorBytes(exits) +
                                       exit_index + summary->MemoryBytes());
    // Rebuilding the summary over a copy of the exits with spare capacity
    // leaves its bytes unchanged: it does not count the exit set.
    auto roomy = std::make_shared<std::vector<NodeId>>(exits);
    roomy->reserve(exits.size() + 4096);
    FrozenBoundarySummary rebuilt;
    rebuilt.Build(snap->reach_gr(), snap->reach_map(), std::move(roomy),
                  summary->entries_ptr());
    EXPECT_EQ(rebuilt.MemoryBytes(), summary->MemoryBytes());
  }
  const SnapshotManager single(g);
  const auto snap = single.Acquire();
  EXPECT_EQ(snap->boundary_summary(), nullptr);
  EXPECT_EQ(snap->MemoryBytes(), side_bytes(*snap));
}

// A cross-shard edge whose target had no prior cross in-edges creates a
// boundary entry the target shard's frozen summary has never seen. Routed
// Reach must stay exact by falling back to a live sweep of that shard,
// regardless of publish order.
TEST(ShardedServingTest, RoutedReachExactForEntriesNewerThanTargetPublish) {
  // Two contiguous shards over a six-node path split 0-2 / 3-5, with no
  // cross edges at all initially.
  GraphBuilder builder(6);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(3, 4);
  builder.AddEdge(4, 5);
  const Graph g = builder.Build();
  ShardedManagerOptions opts;
  opts.num_shards = 2;
  opts.partitioner = PartitionerKind::kContiguous;
  ShardedSnapshotManager mgr(g, opts);
  ASSERT_EQ(mgr.partition().shard_of[2], 0u);
  ASSERT_EQ(mgr.partition().shard_of[3], 1u);
  const ShardedQueryService service(mgr);
  EXPECT_FALSE(service.Reach(0, 5));
  EXPECT_EQ(mgr.BoundaryEntryCount(1), 0u);

  // Insert the bridge 2 -> 3 and republish ONLY shard 0. Shard 1 still
  // serves its initial version, whose summary has no row for entry 3.
  UpdateBatch bridge;
  bridge.Insert(2, 3);
  mgr.ApplyToShard(0, bridge);
  mgr.PublishShard(0, FreezeMode::kFull);
  EXPECT_EQ(mgr.BoundaryEntryCount(1), 1u);
  {
    const auto stale = mgr.shard(1).Acquire();
    ASSERT_NE(stale->boundary_summary(), nullptr);
    EXPECT_EQ(SummaryNodeOfEntry(*stale->boundary_summary(), 3), std::nullopt);
  }
  EXPECT_TRUE(service.Reach(0, 5));
  EXPECT_TRUE(service.Reach(0, 3));
  EXPECT_TRUE(service.Reach(2, 5, PathMode::kNonEmpty));
  EXPECT_FALSE(service.Reach(5, 0));
  EXPECT_FALSE(service.Reach(3, 3, PathMode::kNonEmpty));

  // Once shard 1 republishes, the entry is summarized and answers are
  // unchanged.
  mgr.PublishShard(1, FreezeMode::kFull);
  {
    const auto fresh = mgr.shard(1).Acquire();
    EXPECT_NE(SummaryNodeOfEntry(*fresh->boundary_summary(), 3), std::nullopt);
  }
  EXPECT_TRUE(service.Reach(0, 5));
  EXPECT_FALSE(service.Reach(5, 0));
}

// DirectedGrid(141, 141) in two shards: no shard's bisimulation quotient
// merges a node (pattern ratio 1.00), while each shard's unreferenced ghosts
// collapse into one reach class (reach ratio about 0.90). Every shard serves
// its pattern side as G itself through the ghost-dropping freeze, cross
// edges included, keeps its reach quotient, and routed reach and stitched
// match stay exact across batches.
TEST(ShardedServingTest, GridShardsServePatternSidesAsTheGraph) {
  Graph g = DirectedGrid(141, 141);
  AssignZipfLabels(g, 4, 1.1, 14);
  ShardedManagerOptions opts;
  opts.num_shards = 2;
  ShardedSnapshotManager mgr(g, opts);
  const ShardedQueryService service(mgr);
  const auto expect_representations = [&mgr] {
    for (uint32_t s = 0; s < mgr.num_shards(); ++s) {
      EXPECT_EQ(mgr.shard(s).pattern_representation(),
                SideRepresentation::kIdentity);
      EXPECT_EQ(mgr.shard(s).reach_representation(),
                SideRepresentation::kQuotient);
      const auto snap = mgr.shard(s).Acquire();
      EXPECT_EQ(snap->pattern_representation(),
                SideRepresentation::kIdentity);
      EXPECT_FALSE(snap->pattern_cross_edges().empty());
      EXPECT_NE(&snap->reach_gr(), &snap->pattern_gr());
    }
  };
  for (uint32_t s = 0; s < mgr.num_shards(); ++s) {
    EXPECT_LT(mgr.shard(s).reach_artifact().CompressionRatio(),
              kIdentityRatio);
  }
  expect_representations();
  Graph mirror = g;
  ExpectServiceMatchesOracle(service, mirror, 3100, "fresh");
  // Deletions keep every shard's pattern side as G; the mixed round may
  // close cycles, which merge classes on both sides.
  for (int round = 0; round < 3; ++round) {
    const UpdateBatch batch =
        round < 2 ? RandomDeletions(mirror, 24, 3200 + round)
                  : RandomMixed(mirror, 24, 0.55, 3200 + round);
    mgr.Apply(batch);
    ApplyBatch(mirror, batch);
    mgr.PublishAll();
    if (round < 2) expect_representations();
    ExpectServiceMatchesOracle(service, mirror, 3300 + round, "after batch");
  }
}

TEST(ShardedServingTest, StitchedQuotientCoversExactlyOwnedBlocks) {
  const Graph g = GenerateUniform(80, 260, 4, 19);
  ShardedManagerOptions opts;
  opts.num_shards = 3;
  ShardedSnapshotManager mgr(g, opts);
  const auto snaps = mgr.AcquireAll();
  const StitchedPatternQuotient st =
      BuildStitchedPatternQuotient(mgr.partition(), snaps);
  // Every node is owned by exactly one shard, so the stitched member lists
  // partition the node universe.
  std::vector<char> seen(g.num_nodes(), 0);
  for (NodeId b = 0; b < st.gr.num_nodes(); ++b) {
    EXPECT_LT(st.gr.label(b), kGhostLabelBase);
    const auto& [s, c] = st.origin[b];
    for (const NodeId v : snaps[s]->pattern_block_members(c)) {
      EXPECT_EQ(mgr.partition().shard_of[v], s);
      EXPECT_EQ(seen[v], 0);
      seen[v] = 1;
    }
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) EXPECT_EQ(seen[v], 1);
}

TEST(ShardedServingTest, PinCacheFollowsPublishes) {
  ShardedManagerOptions opts;
  opts.num_shards = 2;
  ShardedSnapshotManager mgr(GenerateUniform(50, 140, 3, 23), opts);
  const ShardedQueryService service(mgr);
  const auto pins1 = service.Pin();
  const auto pins2 = service.Pin();
  EXPECT_EQ(pins1.get(), pins2.get());  // cached: same version vector

  mgr.Apply(RandomInsertions(mgr.shard(0).graph(), 2, 31));
  mgr.PublishAll();
  const auto pins3 = service.Pin();
  EXPECT_NE(pins1.get(), pins3.get());
  EXPECT_NE(pins1->versions(), pins3->versions());
}

// One stitch per pinned version vector: a cold pin builds, a repeated pin of
// the same vector is the same pin object and builds nothing, and a
// one-shard republish makes a new vector that builds once more. No
// quotient is reused across vectors, so the reuse counters stay 0.
TEST(ShardedServingTest, StitchCacheBuildsOncePerVersionVector) {
  const Graph g = GenerateUniform(80, 260, 3, 17);
  ShardedManagerOptions opts;
  opts.num_shards = 3;
  ShardedSnapshotManager mgr(g, opts);
  const ShardedQueryService service(mgr);

  const auto cold = service.Pin();
  (void)cold->stitched();
  EXPECT_EQ(service.stitch_stats().builds, 1u);
  const auto again = service.Pin();
  EXPECT_EQ(again.get(), cold.get());
  (void)again->stitched();
  EXPECT_EQ(service.stitch_stats().builds, 1u);

  // Republish only shard 1 after a guaranteed-effective insert.
  const std::vector<NodeId> owned = mgr.partition().OwnedNodes(1);
  UpdateBatch batch;
  [&] {
    for (const NodeId u : owned) {
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (u != v && !g.HasEdge(u, v)) {
          batch.Insert(u, v);
          return;
        }
      }
    }
  }();
  ASSERT_EQ(batch.size(), 1u);
  mgr.ApplyToShard(1, batch);
  mgr.PublishShard(1, FreezeMode::kFull);
  const auto moved = service.Pin();
  EXPECT_NE(moved.get(), cold.get());
  (void)moved->stitched();
  (void)moved->stitched();
  const StitchCache::Stats stats = service.stitch_stats();
  EXPECT_EQ(stats.builds, 2u);
  EXPECT_EQ(stats.full_reuses, 0u);
  EXPECT_EQ(stats.segments_total, 0u);
  EXPECT_EQ(stats.segments_reused, 0u);
  EXPECT_EQ(stats.reuse_ratio(), 0.0);
}

// ---------------------------------------------------------------------------
// Multi-shard reader/writer stress: one writer thread per shard publishing
// independently, routed readers pinning version vectors. Every observation
// is checked against a graph reconstructed for its exact version vector —
// legitimate because shards own disjoint edge sets, so any combination of
// per-shard versions is a real global state. TSan-gated in CI. Since the
// writers freeze boundary summaries inside every publish and mutate each
// other's entry tables while readers run the summary search, this is also
// the race coverage for serve/boundary_summary.h and the router's
// stale-entry fallback.
// ---------------------------------------------------------------------------

TEST(ShardedServingStressTest, ConcurrentShardWritersMatchVersionVectorOracle) {
  constexpr uint32_t kShards = 3;
  constexpr size_t kReaders = 2;
  constexpr size_t kWriterRounds = 8;
  constexpr size_t kMaxObservationsPerReader = 300;

  const Graph initial = GenerateUniform(80, 220, 3, 17);
  const std::vector<PatternQuery> patterns = TestPatterns(initial, 3, 61);
  ShardedManagerOptions opts;
  opts.num_shards = kShards;
  ShardedSnapshotManager mgr(initial, opts);
  const ShardedQueryService service(mgr);

  // Per-shard, per-version edge lists (edges of the shard's local graph,
  // which are exactly the global edges with sources owned by the shard).
  // Written only by that shard's writer thread; read after join.
  std::vector<std::map<uint64_t, std::vector<std::pair<NodeId, NodeId>>>>
      history(kShards);
  std::vector<std::vector<NodeId>> owned(kShards);
  for (uint32_t s = 0; s < kShards; ++s) {
    owned[s] = mgr.partition().OwnedNodes(s);
    history[s][1] = mgr.shard(s).graph().EdgeList();
  }

  struct Observation {
    std::vector<uint64_t> versions;
    bool is_reach = true;
    NodeId u = 0;
    NodeId v = 0;
    size_t pattern = 0;
    bool answer = false;
  };

  std::atomic<bool> done{false};
  std::vector<std::vector<Observation>> observed(kReaders);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(8000 + r);
      auto& log = observed[r];
      const size_t n = initial.num_nodes();
      while (!done.load(std::memory_order_relaxed) &&
             log.size() < kMaxObservationsPerReader) {
        const auto pins = service.Pin();
        Observation ob;
        ob.versions = pins->versions();
        if (!patterns.empty() && rng.Uniform(8) == 0) {
          ob.is_reach = false;
          ob.pattern = rng.Uniform(patterns.size());
          ob.answer = pins->BooleanMatch(patterns[ob.pattern]);
        } else {
          ob.u = static_cast<NodeId>(rng.Uniform(n));
          ob.v = static_cast<NodeId>(rng.Uniform(n));
          ob.answer = pins->Reach(ob.u, ob.v);
        }
        log.push_back(std::move(ob));
      }
    });
  }

  // One independent writer per shard: apply shard-local batches, publish,
  // record the published version's edge list.
  std::vector<std::thread> writers;
  for (uint32_t s = 0; s < kShards; ++s) {
    writers.emplace_back([&, s] {
      for (size_t round = 0; round < kWriterRounds; ++round) {
        const UpdateBatch batch =
            RandomShardLocalBatch(mgr.shard(s).graph(), owned[s], 5, 0.6,
                                  9000 + 100 * s + round);
        mgr.ApplyToShard(s, batch);
        const PublishStats stats = mgr.PublishShard(s);
        history[s][stats.version] = mgr.shard(s).graph().EdgeList();
        std::this_thread::yield();
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  // Oracle pass: rebuild the global graph of every observed version vector
  // (union of the shards' edge lists at their pinned versions, original
  // labels) and recompute the answer.
  std::map<std::vector<uint64_t>, Graph> graph_cache;
  std::map<std::pair<std::vector<uint64_t>, size_t>, bool> match_cache;
  size_t checked = 0;
  for (const auto& log : observed) {
    for (const Observation& ob : log) {
      auto it = graph_cache.find(ob.versions);
      if (it == graph_cache.end()) {
        GraphBuilder builder(initial.num_nodes());
        for (NodeId v = 0; v < initial.num_nodes(); ++v) {
          builder.SetLabel(v, initial.label(v));
        }
        for (uint32_t s = 0; s < kShards; ++s) {
          const auto hist = history[s].find(ob.versions[s]);
          ASSERT_NE(hist, history[s].end())
              << "reader pinned unknown version " << ob.versions[s]
              << " of shard " << s;
          for (const auto& [u, v] : hist->second) builder.AddEdge(u, v);
        }
        it = graph_cache.emplace(ob.versions, builder.Build()).first;
      }
      const Graph& truth = it->second;
      if (ob.is_reach) {
        ASSERT_EQ(ob.answer, BfsReaches(truth, ob.u, ob.v))
            << "reach(" << ob.u << ", " << ob.v << ")";
      } else {
        const auto key = std::make_pair(ob.versions, ob.pattern);
        auto cached = match_cache.find(key);
        if (cached == match_cache.end()) {
          cached =
              match_cache
                  .emplace(key, BooleanMatch(truth, patterns[ob.pattern]))
                  .first;
        }
        ASSERT_EQ(ob.answer, cached->second) << "pattern " << ob.pattern;
      }
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace qpgc
