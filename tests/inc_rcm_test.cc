// Copyright 2026 The QPGC Authors.

#include "inc/inc_rcm.h"

#include <gtest/gtest.h>

#include "gen/random_models.h"
#include "gen/uniform.h"
#include "gen/update_gen.h"
#include "test_util.h"

namespace qpgc {
namespace {

// Applies a batch and maintains the compression; checks against recompute.
void CheckIncremental(Graph g, const UpdateBatch& batch) {
  ReachCompression rc = CompressR(g);
  const UpdateBatch effective = ApplyBatch(g, batch);
  IncRCM(g, effective, rc);
  const ReachCompression batch_rc = CompressR(g);
  ExpectEquivalentReachCompression(rc, batch_rc);
}

TEST(IncRcmTest, SingleInsertionSplitsEndpointClass) {
  // {0,1} equivalent sources; inserting (0,4) splits 0 away from 1.
  Graph g(5);
  g.AddEdge(0, 2);
  g.AddEdge(0, 3);
  g.AddEdge(1, 2);
  g.AddEdge(1, 3);
  UpdateBatch batch;
  batch.Insert(0, 4);
  CheckIncremental(g, batch);
}

TEST(IncRcmTest, RedundantInsertionLeavesGrUntouched) {
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  ReachCompression rc = CompressR(g);
  const CsrGraph before_gr = *rc.gr;
  UpdateBatch batch;
  batch.Insert(0, 2);  // 0 already reaches 2
  const UpdateBatch effective = ApplyBatch(g, batch);
  const IncRcmStats stats = IncRCM(g, effective, rc);
  EXPECT_EQ(stats.reduced_updates, 1u);
  EXPECT_EQ(stats.kept_updates, 0u);
  EXPECT_TRUE(*rc.gr == before_gr);
  // And it matches the batch recompute (transitive reduction removes the
  // shortcut again).
  ExpectEquivalentReachCompression(rc, CompressR(g));
}

TEST(IncRcmTest, InsertionCreatingCycleMergesClasses) {
  // Chain 0 -> 1 -> 2; inserting (2, 0) makes one SCC.
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  UpdateBatch batch;
  batch.Insert(2, 0);
  CheckIncremental(g, batch);
}

TEST(IncRcmTest, DeletionBreakingCycle) {
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 0);
  UpdateBatch batch;
  batch.Delete(2, 0);
  CheckIncremental(g, batch);
}

TEST(IncRcmTest, DeletionSplitsUpstreamClass) {
  // p -> a -> z, q -> a, q -> z: p ~ q until (a, z) is deleted.
  Graph g(4);
  const NodeId p = 0, q = 1, a = 2, z = 3;
  g.AddEdge(p, a);
  g.AddEdge(a, z);
  g.AddEdge(q, a);
  g.AddEdge(q, z);
  {
    const ReachCompression rc = CompressR(g);
    ASSERT_EQ(rc.node_map[p], rc.node_map[q]);
  }
  UpdateBatch batch;
  batch.Delete(a, z);
  CheckIncremental(g, batch);
}

TEST(IncRcmTest, InsertionMergingDistantClasses) {
  // 0 -> 2, 1 -> 3; inserting (2,4),(3,4) style merges happen globally.
  Graph g(5);
  g.AddEdge(0, 2);
  g.AddEdge(1, 3);
  UpdateBatch batch;
  batch.Insert(2, 4);
  batch.Insert(3, 4);
  CheckIncremental(g, batch);
}

TEST(IncRcmTest, MixedBatch) {
  Graph g(6);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(3, 4);
  g.AddEdge(4, 5);
  UpdateBatch batch;
  batch.Insert(2, 3);
  batch.Delete(1, 2);
  batch.Insert(5, 0);
  CheckIncremental(g, batch);
}

TEST(IncRcmTest, MutuallyJustifyingInsertionsNotBothDropped) {
  // Regression: insertions (u,v) and (x,y) where each would be redundant
  // *given the other*. Pre-graph: u <-> x and y <-> v two-cycles. Each
  // inserted edge has an alternate path only through the other inserted
  // edge; dropping both would miss a real closure change.
  Graph g(4);
  const NodeId u = 0, x = 1, y = 2, v = 3;
  g.AddEdge(u, x);
  g.AddEdge(x, u);
  g.AddEdge(y, v);
  g.AddEdge(v, y);
  UpdateBatch batch;
  batch.Insert(u, v);
  batch.Insert(x, y);
  CheckIncremental(g, batch);
}

TEST(IncRcmTest, ExternalDeletionAggregatesCyclicClass) {
  // A cyclic class whose internal edges are untouched is aggregated, not
  // dissolved: its members cannot diverge.
  Graph g(8);
  // Cycle {0..4}, plus 4 -> 5 -> 6 and 4 -> 6 and 6 -> 7.
  for (NodeId i = 0; i < 5; ++i) g.AddEdge(i, (i + 1) % 5);
  g.AddEdge(4, 5);
  g.AddEdge(5, 6);
  g.AddEdge(4, 6);
  g.AddEdge(6, 7);
  ReachCompression rc = CompressR(g);
  UpdateBatch batch;
  batch.Delete(5, 6);  // external to the cycle; 4 -> 6 survives, 5 diverges
  const UpdateBatch effective = ApplyBatch(g, batch);
  const IncRcmStats stats = IncRCM(g, effective, rc);
  ExpectEquivalentReachCompression(rc, CompressR(g));
  EXPECT_GE(stats.aggregated_classes, 1u);
}

TEST(IncRcmTest, RedundantDeletionInsideScc) {
  // Deleting one edge of a dense SCC leaves every closure intact; the
  // post-graph witness test must discharge it without touching Gr.
  Graph g(5);
  for (NodeId i = 0; i < 5; ++i) {
    for (NodeId j = 0; j < 5; ++j) {
      if (i != j) g.AddEdge(i, j);
    }
  }
  ReachCompression rc = CompressR(g);
  const CsrGraph before_gr = *rc.gr;
  UpdateBatch batch;
  batch.Delete(0, 1);
  const UpdateBatch effective = ApplyBatch(g, batch);
  const IncRcmStats stats = IncRCM(g, effective, rc);
  EXPECT_EQ(stats.reduced_updates, 1u);
  EXPECT_EQ(stats.kept_updates, 0u);
  EXPECT_TRUE(*rc.gr == before_gr);
  ExpectEquivalentReachCompression(rc, CompressR(g));
}

TEST(IncRcmTest, InsertThenDeleteDistinctEdgesInOneBatch) {
  // Mixed batch where the deletion's survival witness runs through the
  // freshly inserted edge.
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  UpdateBatch batch;
  batch.Insert(1, 3);   // new shortcut
  batch.Delete(2, 3);   // 1 -> 3 still holds via the shortcut
  CheckIncremental(g, batch);
}

TEST(IncRcmTest, EmptyBatchNoOp) {
  Graph g(3);
  g.AddEdge(0, 1);
  ReachCompression rc = CompressR(g);
  const IncRcmStats stats = IncRCM(g, UpdateBatch{}, rc);
  EXPECT_EQ(stats.kept_updates, 0u);
  ExpectEquivalentReachCompression(rc, CompressR(g));
}

class IncRcmRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncRcmRandomTest, MatchesBatchRecompute) {
  const uint64_t seed = GetParam();
  Graph g;
  switch (seed % 3) {
    case 0:
      g = GenerateUniform(90, 260, 1, seed);
      break;
    case 1:
      g = PreferentialAttachment(90, 3, 0.4, seed);
      break;
    default:
      g = CitationDag(90, 3, 0.5, seed);
      break;
  }
  UpdateBatch batch;
  switch (seed % 4) {
    case 0:
      batch = RandomInsertions(g, 8, seed * 3);
      break;
    case 1:
      batch = RandomDeletions(g, 8, seed * 3);
      break;
    default:
      batch = RandomMixed(g, 10, 0.5, seed * 3);
      break;
  }
  CheckIncremental(std::move(g), batch);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncRcmRandomTest,
                         ::testing::Range<uint64_t>(1, 25));

TEST(IncRcmTest, SequenceOfBatchesStaysExact) {
  Graph g = GenerateUniform(70, 200, 1, 55);
  ReachCompression rc = CompressR(g);
  for (uint64_t step = 0; step < 6; ++step) {
    const UpdateBatch batch = RandomMixed(g, 6, 0.6, 100 + step);
    const UpdateBatch effective = ApplyBatch(g, batch);
    IncRCM(g, effective, rc);
  }
  ExpectEquivalentReachCompression(rc, CompressR(g));
}

}  // namespace
}  // namespace qpgc
