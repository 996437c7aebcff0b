// Copyright 2026 The QPGC Authors.
//
// The serving layer: ServingSnapshot correctness against the batch
// artifacts, refilled sides, SnapshotManager version/retirement lifecycle
// and publish policies, and the multi-threaded stress test (N readers, 1
// writer) that pins every query to a version and checks it against a
// recompute oracle for exactly that version. The stress suites are what
// the CI TSan job gates on (test names carry the "Serving"/"Snapshot"
// prefix the job's ctest -R filter selects).

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "gen/adversarial.h"
#include "gen/uniform.h"
#include "gen/update_gen.h"
#include "graph/shard_view.h"
#include "pattern/pattern_gen.h"
#include "serve/query_service.h"
#include "serve/snapshot.h"
#include "serve/snapshot_manager.h"
#include "util/rng.h"

namespace qpgc {
namespace {

Graph SmallLabeledGraph() {
  Graph g = GenerateUniform(/*num_nodes=*/60, /*num_edges=*/140,
                            /*num_labels=*/4, /*seed=*/11);
  return g;
}

std::vector<PatternQuery> TestPatterns(const Graph& g, size_t count,
                                       uint64_t seed) {
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

// ---------------------------------------------------------------------------
// ServingSnapshot: frozen queries equal the unfrozen artifact paths and the
// direct evaluation on the original graph.
// ---------------------------------------------------------------------------

TEST(ServingSnapshotTest, FreezeAnswersLikeArtifactsAndOriginal) {
  const Graph g = SmallLabeledGraph();
  const ReachCompression rc = CompressR(g);
  const PatternCompression pc = CompressB(g);

  auto reach = std::make_shared<FrozenReachSide>();
  reach->Fill(rc);
  auto pattern = std::make_shared<FrozenPatternSide>();
  pattern->Fill(pc);
  const ServingSnapshot snap(7, std::move(reach), std::move(pattern));
  EXPECT_EQ(snap.version(), 7u);
  EXPECT_EQ(snap.original_num_nodes(), g.num_nodes());
  EXPECT_GT(snap.MemoryBytes(), 0u);

  for (const ReachQuery& q : RandomReachQueries(g.num_nodes(), 200, 5)) {
    for (const PathMode mode : {PathMode::kReflexive, PathMode::kNonEmpty}) {
      const bool direct = BfsReaches(g, q.u, q.v, mode);
      EXPECT_EQ(snap.Reach(q.u, q.v, mode), direct);
      EXPECT_EQ(snap.Reach(q.u, q.v, mode, ReachAlgorithm::kBiBfs), direct);
      EXPECT_EQ(AnswerOnCompressed(rc, q, mode, ReachAlgorithm::kBfs), direct);
    }
  }

  for (const PatternQuery& q : TestPatterns(g, 6, 23)) {
    const MatchResult direct = Match(g, q);
    const MatchResult served = snap.Match(q);
    EXPECT_EQ(served.matched, direct.matched);
    EXPECT_EQ(served.match_sets, direct.match_sets);
    EXPECT_EQ(snap.BooleanMatch(q), direct.matched);
    EXPECT_EQ(MatchOnCompressed(pc, q).match_sets, direct.match_sets);
  }
}

void ExpectSameCsr(const CsrGraph& a, const CsrGraph& b) {
  EXPECT_TRUE(std::ranges::equal(a.out_offsets(), b.out_offsets()));
  EXPECT_TRUE(std::ranges::equal(a.out_targets(), b.out_targets()));
  EXPECT_TRUE(std::ranges::equal(a.in_offsets(), b.in_offsets()));
  EXPECT_TRUE(std::ranges::equal(a.in_targets(), b.in_targets()));
  EXPECT_EQ(a.labels(), b.labels());
}

// Fill stays callable on a side that was already filled: a refilled side
// equals a freshly filled one field by field, so nothing of what it held
// before survives — not the larger arrays of a bigger graph, and not the
// cross edges of a shard's ghost-dropping freeze.
TEST(ServingSnapshotTest, RefreezeCarriesNoResidueAcrossVersions) {
  const Graph g = SmallLabeledGraph();
  const Graph big = GenerateUniform(/*num_nodes=*/90, /*num_edges=*/260,
                                    /*num_labels=*/4, /*seed=*/12);
  const Graph shard =
      MaterializeShard(big, ShardPartition::Hash(big.num_nodes(), 2, 5), 0);

  FrozenReachSide reach;
  FrozenPatternSide pattern;
  reach.Fill(CompressR(shard));
  pattern.Fill(CompressB(shard));
  ASSERT_FALSE(pattern.cross_edges.empty());  // the ghost-dropping path ran
  reach.Fill(CompressR(g));
  pattern.Fill(CompressB(g));

  FrozenReachSide fresh_reach;
  fresh_reach.Fill(CompressR(g));
  FrozenPatternSide fresh_pattern;
  fresh_pattern.Fill(CompressB(g));
  ExpectSameCsr(*reach.gr, *fresh_reach.gr);
  EXPECT_EQ(reach.node_map, fresh_reach.node_map);
  ExpectSameCsr(*pattern.gr, *fresh_pattern.gr);
  EXPECT_EQ(pattern.node_map, fresh_pattern.node_map);
  EXPECT_EQ(pattern.member_offsets, fresh_pattern.member_offsets);
  EXPECT_EQ(pattern.member_flat, fresh_pattern.member_flat);
  EXPECT_EQ(pattern.cross_edges, fresh_pattern.cross_edges);

  const ServingSnapshot snap(
      2, std::make_shared<const FrozenReachSide>(std::move(reach)),
      std::make_shared<const FrozenPatternSide>(std::move(pattern)));
  for (const ReachQuery& q : RandomReachQueries(g.num_nodes(), 200, 9)) {
    EXPECT_EQ(snap.Reach(q.u, q.v), BfsReaches(g, q.u, q.v));
  }
}

TEST(ServingSnapshotDeathTest, NullSideAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const Graph g = SmallLabeledGraph();
  auto reach = std::make_shared<FrozenReachSide>();
  reach->Fill(CompressR(g));
  auto pattern = std::make_shared<FrozenPatternSide>();
  pattern->Fill(CompressB(g));
  EXPECT_DEATH((void)ServingSnapshot(1, nullptr, pattern), "QPGC_CHECK failed");
  EXPECT_DEATH((void)ServingSnapshot(1, reach, nullptr), "QPGC_CHECK failed");
}

// ---------------------------------------------------------------------------
// SnapshotManager lifecycle.
// ---------------------------------------------------------------------------

TEST(SnapshotManagerTest, ConstructionPublishesVersionOne) {
  SnapshotManager mgr(SmallLabeledGraph());
  const auto snap = mgr.Acquire();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version(), 1u);
  EXPECT_EQ(mgr.published_version(), 1u);
  EXPECT_EQ(mgr.pending_updates(), 0u);
}

TEST(SnapshotManagerTest, PinnedSnapshotSurvivesLaterPublishes) {
  const Graph initial = SmallLabeledGraph();
  SnapshotManager mgr(initial);
  const auto pinned = mgr.Acquire();

  // Find a pair that flips when we add an edge.
  NodeId u = 0, v = 0;
  for (NodeId cand = 1; cand < initial.num_nodes(); ++cand) {
    if (!BfsReaches(initial, 0, cand)) {
      v = cand;
      break;
    }
  }
  ASSERT_NE(v, 0u) << "graph unexpectedly reaches everything from 0";

  UpdateBatch batch;
  batch.Insert(u, v);
  const ApplyStats applied = mgr.Apply(batch);
  EXPECT_EQ(applied.effective_updates, 1u);
  EXPECT_FALSE(applied.published);  // manual policy
  EXPECT_EQ(mgr.pending_updates(), 1u);

  // Readers still see version 1 until the writer publishes.
  EXPECT_EQ(mgr.Acquire()->version(), 1u);
  EXPECT_FALSE(mgr.Acquire()->Reach(u, v, PathMode::kNonEmpty));

  const PublishStats published = mgr.Publish();
  EXPECT_EQ(published.version, 2u);
  EXPECT_EQ(published.updates_included, 1u);
  EXPECT_EQ(mgr.pending_updates(), 0u);

  // New acquires see the new truth; the old pin is immutable history.
  EXPECT_TRUE(mgr.Acquire()->Reach(u, v, PathMode::kNonEmpty));
  EXPECT_EQ(pinned->version(), 1u);
  EXPECT_FALSE(pinned->Reach(u, v, PathMode::kNonEmpty));
}

// ---------------------------------------------------------------------------
// Per-artifact freezing: a side whose accumulated incremental stats kept no
// updates is shared from the previous snapshot instead of refrozen.
// ---------------------------------------------------------------------------

TEST(SnapshotManagerTest, PublishWithNoUpdatesSharesBothSides) {
  SnapshotManager mgr(SmallLabeledGraph());
  const auto v1 = mgr.Acquire();
  const PublishStats stats = mgr.Publish();  // nothing pending
  EXPECT_FALSE(stats.froze_reach);
  EXPECT_FALSE(stats.froze_pattern);
  const auto v2 = mgr.Acquire();
  EXPECT_EQ(v2->version(), 2u);
  // Same frozen sides, new snapshot.
  EXPECT_EQ(v1->reach_side().get(), v2->reach_side().get());
  EXPECT_EQ(v1->pattern_side().get(), v2->pattern_side().get());
  EXPECT_NE(v1.get(), v2.get());
}

// Appends a cycle of `length` fresh nodes labeled `label`. Each quotient
// collapses it into one class, so both sides of a tiny test graph pay as
// quotients instead of being served as G itself.
Graph WithCollapsingCycle(Graph g, size_t length, Label label) {
  const NodeId first = static_cast<NodeId>(g.num_nodes());
  for (size_t i = 0; i < length; ++i) g.AddNode(label);
  for (size_t i = 0; i < length; ++i) {
    g.AddEdge(first + static_cast<NodeId>(i),
              first + static_cast<NodeId>((i + 1) % length));
  }
  return g;
}

TEST(SnapshotManagerTest, PatternOnlyRedundantUpdateSkipsPatternFreeze) {
  // u (label 0) -> w1; w1 and w2 are bisimilar sinks (label 1). Inserting
  // (u, w2) is redundant for the bisimulation quotient (u keeps child w1 in
  // w2's block: minDelta drops it) but changes reachability (u did not
  // reach w2), so a publish must refreeze the reach side only. The cycle
  // makes both quotients pay: only a maintained quotient can skip a freeze.
  Graph g(std::vector<Label>{0, 1, 1});
  g.AddEdge(0, 1);
  SnapshotManager mgr(WithCollapsingCycle(std::move(g), 20, 2));
  ASSERT_EQ(mgr.reach_representation(), SideRepresentation::kQuotient);
  ASSERT_EQ(mgr.pattern_representation(), SideRepresentation::kQuotient);
  const auto v1 = mgr.Acquire();
  EXPECT_FALSE(v1->Reach(0, 2));

  UpdateBatch batch;
  batch.Insert(0, 2);
  const ApplyStats applied = mgr.Apply(batch);
  EXPECT_EQ(applied.effective_updates, 1u);
  EXPECT_GT(applied.rcm.kept_updates, 0u);
  EXPECT_EQ(applied.pcm.kept_updates, 0u);

  const PublishStats stats = mgr.Publish();
  EXPECT_TRUE(stats.froze_reach);
  EXPECT_FALSE(stats.froze_pattern);
  const auto v2 = mgr.Acquire();
  EXPECT_EQ(v1->pattern_side().get(), v2->pattern_side().get());
  EXPECT_NE(v1->reach_side().get(), v2->reach_side().get());
  // The shared-pattern snapshot still answers exactly like the post-update
  // graph on both query classes.
  EXPECT_TRUE(v2->Reach(0, 2));
  const Graph& truth = mgr.graph();
  for (const PatternQuery& q : TestPatterns(truth, 4, 77)) {
    EXPECT_EQ(v2->Match(q).match_sets, Match(truth, q).match_sets);
  }
}

TEST(SnapshotManagerTest, ReachOnlyRedundantUpdateSkipsReachFreeze) {
  // Chain u -> x -> v with distinct labels. Inserting the shortcut (u, v)
  // changes no reachability (the Gr-closure redundancy rule drops it) but
  // adds a new successor block to u, so the publish must refreeze the
  // pattern side only. The cycle makes both quotients pay, as above.
  Graph g(std::vector<Label>{0, 1, 2});
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  SnapshotManager mgr(WithCollapsingCycle(std::move(g), 20, 3));
  ASSERT_EQ(mgr.reach_representation(), SideRepresentation::kQuotient);
  ASSERT_EQ(mgr.pattern_representation(), SideRepresentation::kQuotient);
  const auto v1 = mgr.Acquire();

  UpdateBatch batch;
  batch.Insert(0, 2);
  const ApplyStats applied = mgr.Apply(batch);
  EXPECT_EQ(applied.effective_updates, 1u);
  EXPECT_EQ(applied.rcm.kept_updates, 0u);
  EXPECT_GT(applied.pcm.kept_updates, 0u);

  const PublishStats stats = mgr.Publish();
  EXPECT_FALSE(stats.froze_reach);
  EXPECT_TRUE(stats.froze_pattern);
  const auto v2 = mgr.Acquire();
  EXPECT_EQ(v1->reach_side().get(), v2->reach_side().get());
  EXPECT_NE(v1->pattern_side().get(), v2->pattern_side().get());
  const Graph& truth = mgr.graph();
  for (NodeId u = 0; u < truth.num_nodes(); ++u) {
    for (NodeId v = 0; v < truth.num_nodes(); ++v) {
      EXPECT_EQ(v2->Reach(u, v), BfsReaches(truth, u, v));
    }
  }
}

// ---------------------------------------------------------------------------
// Sides served as G itself: a quotient that merges (almost) nothing is not
// maintained; the side is a freeze of G, shared by both sides.
// ---------------------------------------------------------------------------

// A path 0 -> 1 -> ... -> n-1. Reachability merges nothing on a path, and
// neither does bisimulation (each node's distance to the end differs), so
// both sides are served as G itself for any labeling.
Graph PathGraph(size_t n, bool one_label) {
  std::vector<Label> labels(n, 0);
  if (!one_label) {
    for (size_t v = 0; v < n; ++v) labels[v] = static_cast<Label>(v % 3);
  }
  Graph g(std::move(labels));
  for (NodeId v = 0; v + 1 < n; ++v) g.AddEdge(v, v + 1);
  return g;
}

void ExpectAnswersLikeGraph(const ServingSnapshot& snap, const Graph& truth,
                            uint64_t seed) {
  for (const ReachQuery& q : RandomReachQueries(truth.num_nodes(), 200, seed)) {
    for (const PathMode mode : {PathMode::kReflexive, PathMode::kNonEmpty}) {
      EXPECT_EQ(snap.Reach(q.u, q.v, mode), BfsReaches(truth, q.u, q.v, mode))
          << "reach(" << q.u << ", " << q.v << ")";
    }
  }
  for (const PatternQuery& q : TestPatterns(truth, 4, seed + 1)) {
    const MatchResult want = Match(truth, q);
    EXPECT_EQ(snap.Match(q).match_sets, want.match_sets);
    EXPECT_EQ(snap.BooleanMatch(q), want.matched);
  }
}

TEST(SnapshotManagerTest, IdentitySidesShareOneFrozenGraph) {
  const Graph g = PathGraph(200, /*one_label=*/false);
  SnapshotManager mgr(g);
  EXPECT_EQ(mgr.reach_representation(), SideRepresentation::kIdentity);
  EXPECT_EQ(mgr.pattern_representation(), SideRepresentation::kIdentity);
  const auto snap = mgr.Acquire();
  EXPECT_EQ(snap->reach_representation(), SideRepresentation::kIdentity);
  EXPECT_EQ(snap->pattern_representation(), SideRepresentation::kIdentity);
  // One CsrGraph behind both sides, and it is G.
  EXPECT_EQ(&snap->reach_gr(), &snap->pattern_gr());
  EXPECT_EQ(snap->reach_side()->gr, snap->pattern_side()->gr);
  EXPECT_EQ(snap->reach_gr().EdgeList(), g.EdgeList());
  EXPECT_EQ(snap->pattern_gr().labels(), g.labels());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(snap->reach_map()[v], v);
    EXPECT_EQ(snap->pattern_map()[v], v);
    ASSERT_EQ(snap->pattern_block_members(v).size(), 1u);
    EXPECT_EQ(snap->pattern_block_members(v)[0], v);
  }
  // MemoryBytes counts the shared graph once.
  const size_t graph_bytes = snap->reach_gr().MemoryBytes();
  EXPECT_EQ(snap->MemoryBytes(), snap->reach_side()->MemoryBytes() +
                                     snap->pattern_side()->MemoryBytes() -
                                     graph_bytes);
  EXPECT_LT(snap->MemoryBytes(), snap->reach_side()->MemoryBytes() +
                                     snap->pattern_side()->MemoryBytes());
  ExpectAnswersLikeGraph(*snap, g, 41);
}

TEST(SnapshotManagerTest, IdentitySideRefreezesOnEveryEffectiveUpdate) {
  SnapshotManager mgr(PathGraph(200, /*one_label=*/false));
  const auto v1 = mgr.Acquire();

  // The shortcut (0, 2) is redundant for reachability, and a maintained
  // reach quotient would skip its freeze; an identity side is G, and G
  // moved. No incremental maintenance runs for either side.
  UpdateBatch batch;
  batch.Insert(0, 2);
  const ApplyStats applied = mgr.Apply(batch);
  EXPECT_EQ(applied.effective_updates, 1u);
  EXPECT_EQ(applied.rcm.kept_updates + applied.rcm.reduced_updates, 0u);
  EXPECT_EQ(applied.pcm.kept_updates + applied.pcm.reduced_updates, 0u);
  EXPECT_EQ(applied.reach_representation, SideRepresentation::kIdentity);
  EXPECT_EQ(applied.pattern_representation, SideRepresentation::kIdentity);

  const PublishStats stats = mgr.Publish();
  EXPECT_TRUE(stats.froze_reach);
  EXPECT_TRUE(stats.froze_pattern);
  EXPECT_EQ(stats.reach_representation, SideRepresentation::kIdentity);
  EXPECT_EQ(stats.pattern_representation, SideRepresentation::kIdentity);
  const auto v2 = mgr.Acquire();
  EXPECT_NE(v1->reach_side().get(), v2->reach_side().get());
  EXPECT_NE(v1->pattern_side().get(), v2->pattern_side().get());
  EXPECT_EQ(&v2->reach_gr(), &v2->pattern_gr());
  EXPECT_TRUE(v2->Reach(0, 2, PathMode::kNonEmpty));
  ExpectAnswersLikeGraph(*v2, mgr.graph(), 43);

  // An ineffective batch leaves G where it was: both sides are shared.
  UpdateBatch noop;
  noop.Insert(0, 1);
  EXPECT_EQ(mgr.Apply(noop).effective_updates, 0u);
  const PublishStats shared = mgr.Publish();
  EXPECT_FALSE(shared.froze_reach);
  EXPECT_FALSE(shared.froze_pattern);
  const auto v3 = mgr.Acquire();
  EXPECT_EQ(v2->reach_side().get(), v3->reach_side().get());
  EXPECT_EQ(v2->pattern_side().get(), v3->pattern_side().get());
}

// One inserted edge can collapse a graph the quotients did not pay on: it
// is answered exactly at once from G itself, and the re-check that the
// publish starts brings both quotients back.
TEST(SnapshotManagerTest, ClosingALongPathIntoACycleSwitchesBothSidesBack) {
  constexpr NodeId kN = 300;
  SnapshotManager mgr(PathGraph(kN, /*one_label=*/true));
  ASSERT_EQ(mgr.reach_representation(), SideRepresentation::kIdentity);
  ASSERT_EQ(mgr.pattern_representation(), SideRepresentation::kIdentity);
  EXPECT_FALSE(mgr.Acquire()->Reach(kN - 1, 0));

  UpdateBatch close;
  close.Insert(kN - 1, 0);
  EXPECT_EQ(mgr.Apply(close).reach_representation,
            SideRepresentation::kIdentity);
  mgr.Publish();
  {
    const auto snap = mgr.Acquire();
    EXPECT_EQ(snap->reach_representation(), SideRepresentation::kIdentity);
    EXPECT_TRUE(snap->Reach(kN - 1, 0));
    EXPECT_TRUE(snap->Reach(200, 5, PathMode::kNonEmpty));
    ExpectAnswersLikeGraph(*snap, mgr.graph(), 47);
  }

  // The cycle merges every node into one class and one block.
  mgr.WaitForRecheck();
  EXPECT_EQ(mgr.reach_representation(), SideRepresentation::kQuotient);
  EXPECT_EQ(mgr.pattern_representation(), SideRepresentation::kQuotient);
  EXPECT_EQ(mgr.reach_artifact().gr.num_nodes(), 1u);
  EXPECT_EQ(mgr.pattern_artifact().gr.num_nodes(), 1u);
  const PublishStats back = mgr.Publish();
  EXPECT_TRUE(back.froze_reach);
  EXPECT_TRUE(back.froze_pattern);
  EXPECT_EQ(back.reach_representation, SideRepresentation::kQuotient);
  EXPECT_EQ(back.pattern_representation, SideRepresentation::kQuotient);
  ExpectAnswersLikeGraph(*mgr.Acquire(), mgr.graph(), 53);

  // Cutting the cycle open again leaves a path: the maintained quotients
  // stop paying, and the same Apply serves both sides as G again.
  UpdateBatch cut;
  cut.Delete(kN / 2, kN / 2 + 1);
  const ApplyStats opened = mgr.Apply(cut);
  EXPECT_GT(opened.rcm.kept_updates, 0u);
  EXPECT_EQ(opened.reach_representation, SideRepresentation::kIdentity);
  EXPECT_EQ(opened.pattern_representation, SideRepresentation::kIdentity);
  const PublishStats again = mgr.Publish();
  EXPECT_EQ(again.reach_representation, SideRepresentation::kIdentity);
  EXPECT_EQ(again.pattern_representation, SideRepresentation::kIdentity);
  ExpectAnswersLikeGraph(*mgr.Acquire(), mgr.graph(), 59);
}

TEST(SnapshotManagerTest, SnapshotOutlivesManager) {
  std::shared_ptr<const ServingSnapshot> snap;
  Graph g = SmallLabeledGraph();
  {
    SnapshotManager mgr(g);
    snap = mgr.Acquire();
  }
  // The manager is gone; the pinned snapshot owns its sides and lives on.
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version(), 1u);
  for (const ReachQuery& q : RandomReachQueries(g.num_nodes(), 50, 3)) {
    EXPECT_EQ(snap->Reach(q.u, q.v), BfsReaches(g, q.u, q.v));
  }
}

// The manager's artifacts equal, field by field, those of a mirror that
// maintains the two sides one after the other: running them concurrently
// must not move a single class id.
void ExpectSameArtifacts(const SnapshotManager& mgr,
                         const ReachCompression& rc,
                         const PatternCompression& pc) {
  const ReachCompression& reach = mgr.reach_artifact();
  EXPECT_EQ(reach.node_map, rc.node_map);
  EXPECT_EQ(reach.members, rc.members);
  EXPECT_TRUE(reach.gr == rc.gr);
  EXPECT_TRUE(reach.quotient == rc.quotient);
  EXPECT_EQ(reach.cyclic, rc.cyclic);
  EXPECT_EQ(reach.ranks, rc.ranks);
  EXPECT_EQ(reach.original_size, rc.original_size);
  const PatternCompression& pattern = mgr.pattern_artifact();
  EXPECT_TRUE(pattern.gr == pc.gr);
  EXPECT_EQ(pattern.node_map, pc.node_map);
  EXPECT_EQ(pattern.members, pc.members);
  EXPECT_EQ(pattern.original_size, pc.original_size);
}

void ExpectSameStats(const IncRcmStats& a, const IncRcmStats& b) {
  EXPECT_EQ(a.kept_updates, b.kept_updates);
  EXPECT_EQ(a.reduced_updates, b.reduced_updates);
  EXPECT_EQ(a.dissolved_classes, b.dissolved_classes);
  EXPECT_EQ(a.aggregated_classes, b.aggregated_classes);
  EXPECT_EQ(a.dissolved_nodes, b.dissolved_nodes);
  EXPECT_EQ(a.hybrid_vertices, b.hybrid_vertices);
  EXPECT_EQ(a.hybrid_edges, b.hybrid_edges);
}

void ExpectSameStats(const IncPcmStats& a, const IncPcmStats& b) {
  EXPECT_EQ(a.kept_updates, b.kept_updates);
  EXPECT_EQ(a.reduced_updates, b.reduced_updates);
  EXPECT_EQ(a.dissolved_blocks, b.dissolved_blocks);
  EXPECT_EQ(a.dissolved_nodes, b.dissolved_nodes);
  EXPECT_EQ(a.hybrid_vertices, b.hybrid_vertices);
  EXPECT_EQ(a.hybrid_edges, b.hybrid_edges);
}

// One insert IncRCM drops: u already reaches v without the new edge.
UpdateBatch ReachRedundantInsert(const Graph& g) {
  UpdateBatch batch;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (u != v && !g.HasEdge(u, v) && BfsReaches(g, u, v)) {
        batch.Insert(u, v);
        return batch;
      }
    }
  }
  return batch;
}

// One insert IncPCM drops: u already has a child in w's block.
UpdateBatch PatternRedundantInsert(const Graph& g,
                                   const PatternCompression& pc) {
  UpdateBatch batch;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const NodeId child : g.OutNeighbors(u)) {
      for (const NodeId w : pc.members[pc.node_map[child]]) {
        if (!g.HasEdge(u, w)) {
          batch.Insert(u, w);
          return batch;
        }
      }
    }
  }
  return batch;
}

TEST(SnapshotManagerTest, ApplyMaintainsArtifactsExactly) {
  Graph g = GenerateUniform(120, 300, 3, 29);
  SnapshotManager mgr(g);
  Graph mirror = g;
  ReachCompression rc = CompressR(mirror);
  PatternCompression pc = CompressB(mirror);
  ExpectSameArtifacts(mgr, rc, pc);
  // Six random rounds, then one round whose only update the reach side
  // drops and one whose only update the pattern side drops.
  constexpr int kReachKeepsNone = 6;
  constexpr int kPatternKeepsNone = 7;
  for (int round = 0; round < 8; ++round) {
    UpdateBatch batch;
    if (round == kReachKeepsNone) {
      batch = ReachRedundantInsert(mirror);
    } else if (round == kPatternKeepsNone) {
      batch = PatternRedundantInsert(mirror, pc);
    } else {
      batch = RandomMixed(mirror, 12, 0.6, 1000 + round);
    }
    ASSERT_FALSE(batch.empty());
    const ApplyStats applied = mgr.Apply(batch);
    const UpdateBatch effective = ApplyBatch(mirror, batch);
    const IncRcmStats rcm = IncRCM(mirror, effective, rc);
    const IncPcmStats pcm = IncPCM(mirror, effective, pc);
    EXPECT_EQ(applied.effective_updates, effective.size());
    ExpectSameStats(applied.rcm, rcm);
    ExpectSameStats(applied.pcm, pcm);
    ASSERT_TRUE(mgr.graph() == mirror);
    ExpectSameArtifacts(mgr, rc, pc);
    if (round == kReachKeepsNone) {
      EXPECT_EQ(rcm.kept_updates, 0u);
    }
    if (round == kPatternKeepsNone) {
      EXPECT_EQ(pcm.kept_updates, 0u);
    }

    const PublishStats published = mgr.Publish();
    EXPECT_EQ(published.froze_reach, rcm.kept_updates > 0);
    EXPECT_EQ(published.froze_pattern, pcm.kept_updates > 0);
    const auto snap = mgr.Acquire();
    // The snapshot must answer exactly like direct evaluation on the
    // post-update graph (writer-side mirror).
    const Graph& truth = mgr.graph();
    for (const ReachQuery& q :
         RandomReachQueries(truth.num_nodes(), 60, 7 + round)) {
      EXPECT_EQ(snap->Reach(q.u, q.v), BfsReaches(truth, q.u, q.v));
    }
    for (const PatternQuery& q : TestPatterns(truth, 3, 50 + round)) {
      EXPECT_EQ(snap->Match(q).match_sets, Match(truth, q).match_sets);
    }
  }
}

// ---------------------------------------------------------------------------
// Publish policies.
// ---------------------------------------------------------------------------

TEST(SnapshotManagerTest, EveryNUpdatesPolicyAutoPublishes) {
  SnapshotManagerOptions options;
  options.policy = PublishPolicy::EveryNUpdates(4);
  SnapshotManager mgr(SmallLabeledGraph(), options);

  size_t applied = 0;
  uint64_t publishes = 0;
  Rng rng(5);
  while (publishes < 3) {
    const UpdateBatch batch = RandomMixed(mgr.graph(), 3, 0.5, 300 + applied);
    const ApplyStats stats = mgr.Apply(batch);
    ++applied;
    if (stats.published) {
      ++publishes;
      EXPECT_GE(stats.publish.updates_included, 4u);
      EXPECT_EQ(mgr.pending_updates(), 0u);
    } else {
      EXPECT_LT(mgr.pending_updates(), 4u);
    }
    ASSERT_LT(applied, 100u) << "policy never fired";
  }
  EXPECT_EQ(mgr.published_version(), 1u + publishes);
}

TEST(SnapshotManagerTest, StalenessBoundedPolicyPublishesWhenBehind) {
  SnapshotManagerOptions options;
  options.policy = PublishPolicy::StalenessBounded(0.0);  // always stale
  SnapshotManager mgr(SmallLabeledGraph(), options);

  // An ineffective batch leaves nothing pending: no publish.
  UpdateBatch noop;
  noop.Insert(0, 1);
  noop.Delete(0, 1);
  EXPECT_FALSE(mgr.Apply(noop).published);
  EXPECT_EQ(mgr.published_version(), 1u);

  // One effective update while stale: publish fires inside Apply.
  const UpdateBatch batch = RandomInsertions(mgr.graph(), 1, 17);
  const ApplyStats stats = mgr.Apply(batch);
  EXPECT_TRUE(stats.published);
  EXPECT_EQ(mgr.published_version(), 2u);
}

// ---------------------------------------------------------------------------
// QueryService facade.
// ---------------------------------------------------------------------------

TEST(QueryServiceTest, RoutesAgainstCurrentSnapshot) {
  SnapshotManager mgr(SmallLabeledGraph());
  const QueryService service(mgr);

  const auto snap = service.Pin();
  EXPECT_EQ(snap->version(), 1u);
  for (const ReachQuery& q :
       RandomReachQueries(mgr.graph().num_nodes(), 40, 13)) {
    EXPECT_EQ(service.Reach(q.u, q.v), snap->Reach(q.u, q.v));
  }
  for (const PatternQuery& q : TestPatterns(mgr.graph(), 2, 99)) {
    EXPECT_EQ(service.BooleanMatch(q), snap->BooleanMatch(q));
    EXPECT_EQ(service.Match(q).match_sets, snap->Match(q).match_sets);
  }

  // After a publish, the facade follows the slot; the old pin does not.
  mgr.Apply(RandomInsertions(mgr.graph(), 2, 31));
  mgr.Publish();
  EXPECT_EQ(service.Pin()->version(), 2u);
  EXPECT_EQ(snap->version(), 1u);
}

// ---------------------------------------------------------------------------
// Multi-threaded stress: every concurrently-issued query must equal the
// recompute oracle for the snapshot version it pinned.
// ---------------------------------------------------------------------------

struct Observation {
  enum class Kind { kReach, kBooleanMatch, kMatch };
  Kind kind = Kind::kReach;
  uint64_t version = 0;
  NodeId u = 0;
  NodeId v = 0;
  size_t pattern = 0;
  bool answer = false;
  std::vector<std::vector<NodeId>> match_sets;  // kMatch only
};

TEST(ServingStressTest, ConcurrentQueriesMatchOracleForPinnedVersion) {
  constexpr size_t kReaders = 3;
  constexpr size_t kVersions = 10;
  constexpr size_t kBatchSize = 8;
  constexpr size_t kMaxObservationsPerReader = 1500;

  const Graph initial = GenerateUniform(200, 460, 4, 41);
  const std::vector<PatternQuery> patterns = TestPatterns(initial, 4, 61);

  SnapshotManager mgr(initial);
  // Writer-side history: the exact graph every published version was
  // compressed from. Written only by the writer thread, read only after
  // join (join provides the happens-before edge).
  std::unordered_map<uint64_t, Graph> version_graph;
  version_graph.emplace(1, initial);

  std::atomic<bool> done{false};
  std::vector<std::vector<Observation>> observed(kReaders);

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(7000 + r);
      auto& log = observed[r];
      const size_t n = initial.num_nodes();
      while (!done.load(std::memory_order_relaxed) &&
             log.size() < kMaxObservationsPerReader) {
        const auto snap = mgr.Acquire();
        Observation ob;
        ob.version = snap->version();
        const uint64_t dice = rng.Uniform(16);
        if (dice == 0) {
          ob.kind = Observation::Kind::kMatch;
          ob.pattern = rng.Uniform(patterns.size());
          const MatchResult m = snap->Match(patterns[ob.pattern]);
          ob.answer = m.matched;
          ob.match_sets = m.match_sets;
        } else if (dice <= 4) {
          ob.kind = Observation::Kind::kBooleanMatch;
          ob.pattern = rng.Uniform(patterns.size());
          ob.answer = snap->BooleanMatch(patterns[ob.pattern]);
        } else {
          ob.kind = Observation::Kind::kReach;
          ob.u = static_cast<NodeId>(rng.Uniform(n));
          ob.v = static_cast<NodeId>(rng.Uniform(n));
          ob.answer = snap->Reach(ob.u, ob.v);
        }
        log.push_back(std::move(ob));
      }
    });
  }

  // Single writer: apply a batch, publish, remember the version's graph.
  for (size_t round = 2; round <= kVersions; ++round) {
    const UpdateBatch batch =
        RandomMixed(mgr.graph(), kBatchSize, 0.55, 9000 + round);
    mgr.Apply(batch);
    const PublishStats stats = mgr.Publish();
    version_graph.emplace(stats.version, mgr.graph());
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  // Oracle pass: recompute every answer on the graph of the pinned version.
  std::unordered_map<uint64_t, std::vector<MatchResult>> match_oracle;
  size_t checked = 0;
  for (const auto& log : observed) {
    for (const Observation& ob : log) {
      auto it = version_graph.find(ob.version);
      ASSERT_NE(it, version_graph.end())
          << "reader observed unknown version " << ob.version;
      const Graph& truth = it->second;
      switch (ob.kind) {
        case Observation::Kind::kReach:
          ASSERT_EQ(ob.answer, BfsReaches(truth, ob.u, ob.v))
              << "version " << ob.version << " reach(" << ob.u << ", "
              << ob.v << ")";
          break;
        case Observation::Kind::kBooleanMatch:
        case Observation::Kind::kMatch: {
          auto& cached = match_oracle[ob.version];
          if (cached.empty()) {
            cached.reserve(patterns.size());
            for (const PatternQuery& p : patterns) {
              cached.push_back(Match(truth, p));
            }
          }
          const MatchResult& want = cached[ob.pattern];
          ASSERT_EQ(ob.answer, want.matched)
              << "version " << ob.version << " pattern " << ob.pattern;
          if (ob.kind == Observation::Kind::kMatch) {
            ASSERT_EQ(ob.match_sets, want.match_sets)
                << "version " << ob.version << " pattern " << ob.pattern;
          }
          break;
        }
      }
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(ServingStressTest, VersionsAreMonotoneUnderAutoPublish) {
  constexpr size_t kReaders = 2;
  constexpr size_t kRounds = 30;

  SnapshotManagerOptions options;
  options.policy = PublishPolicy::EveryNUpdates(6);
  SnapshotManager mgr(GenerateUniform(150, 340, 3, 53), options);

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  std::vector<uint64_t> max_seen(kReaders, 0);
  // Per-reader flags, one byte each: vector<bool> would bit-pack the
  // readers' concurrent writes into one shared byte (a data race).
  std::vector<char> monotone(kReaders, 1);
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      uint64_t last = 0;
      Rng rng(300 + r);
      while (!done.load(std::memory_order_relaxed)) {
        const auto snap = mgr.Acquire();
        const uint64_t version = snap->version();
        if (version < last) monotone[r] = 0;
        last = version;
        // Keep the snapshot busy so retirement overlaps publishes.
        const NodeId u =
            static_cast<NodeId>(rng.Uniform(snap->original_num_nodes()));
        const NodeId v =
            static_cast<NodeId>(rng.Uniform(snap->original_num_nodes()));
        (void)snap->Reach(u, v);
      }
      max_seen[r] = last;
    });
  }

  for (size_t round = 0; round < kRounds; ++round) {
    mgr.Apply(RandomMixed(mgr.graph(), 4, 0.5, 5000 + round));
  }
  done.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  EXPECT_GT(mgr.published_version(), 1u);
  for (size_t r = 0; r < kReaders; ++r) {
    EXPECT_TRUE(monotone[r]) << "reader " << r << " saw versions go backwards";
    EXPECT_LE(max_seen[r], mgr.published_version());
  }
}

// Readers pin and query while the writer drives a manager whose sides are
// served as G itself through every change of representation: batches that
// keep a grid acyclic (identity sides, a re-check after each publish), one
// that closes a cycle through it (the re-check's quotients are adopted) and
// one that opens it again (the maintained quotients stop paying).
TEST(ServingIdentityStressTest, ReadersPinWhileRechecksRun) {
  constexpr size_t kReaders = 3;
  constexpr size_t kRounds = 12;
  constexpr size_t kCloseRound = 4;
  constexpr size_t kOpenRound = 8;
  constexpr size_t kMaxObservationsPerReader = 1500;
  constexpr NodeId kSide = 24;

  Graph initial = DirectedGrid(kSide, kSide);
  AssignZipfLabels(initial, 3, 1.1, 5);
  const std::vector<PatternQuery> patterns = TestPatterns(initial, 4, 67);
  SnapshotManager mgr(initial);
  ASSERT_EQ(mgr.reach_representation(), SideRepresentation::kIdentity);
  ASSERT_EQ(mgr.pattern_representation(), SideRepresentation::kIdentity);
  // Written by the writer only, read after join.
  std::unordered_map<uint64_t, Graph> version_graph;
  version_graph.emplace(1, initial);

  std::atomic<bool> done{false};
  std::vector<std::vector<Observation>> observed(kReaders);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(8100 + r);
      auto& log = observed[r];
      const size_t n = initial.num_nodes();
      while (!done.load(std::memory_order_relaxed) &&
             log.size() < kMaxObservationsPerReader) {
        const auto snap = mgr.Acquire();
        Observation ob;
        ob.version = snap->version();
        if (rng.Uniform(8) == 0) {
          ob.kind = Observation::Kind::kMatch;
          ob.pattern = rng.Uniform(patterns.size());
          const MatchResult m = snap->Match(patterns[ob.pattern]);
          ob.answer = m.matched;
          ob.match_sets = m.match_sets;
        } else {
          ob.kind = Observation::Kind::kReach;
          ob.u = static_cast<NodeId>(rng.Uniform(n));
          ob.v = static_cast<NodeId>(rng.Uniform(n));
          ob.answer = snap->Reach(ob.u, ob.v);
        }
        log.push_back(std::move(ob));
      }
    });
  }

  // Single writer. Churn deletes grid edges and reinserts deleted ones, so
  // the graph stays a subgraph of the grid (acyclic) between the closing
  // and the opening round.
  const NodeId corner = kSide * kSide - 1;
  std::vector<std::pair<NodeId, NodeId>> deleted;
  Rng rng(77);
  for (size_t round = 1; round <= kRounds; ++round) {
    UpdateBatch batch;
    if (round == kCloseRound) {
      // With no re-check in flight, the closing publish starts one.
      mgr.WaitForRecheck();
      batch.Insert(corner, 0);
    } else if (round == kOpenRound) {
      batch.Delete(corner, 0);
    } else {
      for (int i = 0; i < 6; ++i) {
        const NodeId u = static_cast<NodeId>(rng.Uniform(corner));
        const std::span<const NodeId> out = mgr.graph().OutNeighbors(u);
        if (out.empty() || (u == corner)) continue;
        const NodeId v = out[rng.Uniform(out.size())];
        if (v == 0) continue;  // the closing edge goes only at kOpenRound
        batch.Delete(u, v);
        deleted.emplace_back(u, v);
      }
      if (deleted.size() > 6) {
        const auto [u, v] = deleted.front();
        deleted.erase(deleted.begin());
        batch.Insert(u, v);
      }
    }
    mgr.Apply(batch);
    const PublishStats stats = mgr.Publish();
    version_graph.emplace(stats.version, mgr.graph());
    if (round == kCloseRound) {
      // Deterministic switch point: the re-check this publish started
      // finds the collapsed grid, and the next publish serves quotients.
      mgr.WaitForRecheck();
      EXPECT_EQ(mgr.reach_representation(), SideRepresentation::kQuotient);
      const PublishStats back = mgr.Publish();
      version_graph.emplace(back.version, mgr.graph());
    }
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  std::unordered_map<uint64_t, std::vector<MatchResult>> match_oracle;
  size_t checked = 0;
  for (const auto& log : observed) {
    for (const Observation& ob : log) {
      auto it = version_graph.find(ob.version);
      ASSERT_NE(it, version_graph.end()) << "unknown version " << ob.version;
      const Graph& truth = it->second;
      if (ob.kind == Observation::Kind::kReach) {
        ASSERT_EQ(ob.answer, BfsReaches(truth, ob.u, ob.v))
            << "version " << ob.version << " reach(" << ob.u << ", " << ob.v
            << ")";
      } else {
        auto& cached = match_oracle[ob.version];
        if (cached.empty()) {
          for (const PatternQuery& p : patterns) {
            cached.push_back(Match(truth, p));
          }
        }
        ASSERT_EQ(ob.match_sets, cached[ob.pattern].match_sets)
            << "version " << ob.version << " pattern " << ob.pattern;
      }
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace qpgc
