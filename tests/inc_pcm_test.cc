// Copyright 2026 The QPGC Authors.

#include "inc/inc_pcm.h"

#include <gtest/gtest.h>

#include "gen/random_models.h"
#include "gen/uniform.h"
#include "gen/update_gen.h"
#include "inc/inc_bsim.h"
#include "test_util.h"

namespace qpgc {
namespace {

void CheckIncremental(Graph g, const UpdateBatch& batch) {
  PatternCompression pc = CompressB(g);
  const UpdateBatch effective = ApplyBatch(g, batch);
  IncPCM(g, effective, pc);
  const PatternCompression batch_pc = CompressB(g);
  ExpectEquivalentPatternCompression(pc, batch_pc);
}

TEST(IncPcmTest, InsertionSplitsSourceBlock) {
  // Two bisimilar parents of one leaf; an extra child for one splits them.
  Graph g(std::vector<Label>{1, 1, 2, 3});
  g.AddEdge(0, 2);
  g.AddEdge(1, 2);
  {
    const PatternCompression pc = CompressB(g);
    ASSERT_EQ(pc.node_map[0], pc.node_map[1]);
  }
  UpdateBatch batch;
  batch.Insert(0, 3);
  CheckIncremental(g, batch);
}

TEST(IncPcmTest, RedundantInsertionDropped) {
  // u already has a child in the target's block.
  Graph g(std::vector<Label>{1, 2, 2});
  g.AddEdge(0, 1);  // block of 1 == block of 2 (same-label leaves)
  Graph working = g;
  PatternCompression pc = CompressB(working);
  const CsrGraph before_gr = *pc.gr;
  UpdateBatch batch;
  batch.Insert(0, 2);
  const UpdateBatch effective = ApplyBatch(working, batch);
  const IncPcmStats stats = IncPCM(working, effective, pc);
  EXPECT_EQ(stats.reduced_updates, 1u);
  EXPECT_TRUE(*pc.gr == before_gr);
  ExpectEquivalentPatternCompression(pc, CompressB(working));
}

TEST(IncPcmTest, RedundantDeletionDropped) {
  Graph g(std::vector<Label>{1, 2, 2});
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);  // two children in the same leaf block
  Graph working = g;
  PatternCompression pc = CompressB(working);
  UpdateBatch batch;
  batch.Delete(0, 2);
  const UpdateBatch effective = ApplyBatch(working, batch);
  const IncPcmStats stats = IncPCM(working, effective, pc);
  EXPECT_EQ(stats.reduced_updates, 1u);
  ExpectEquivalentPatternCompression(pc, CompressB(working));
}

TEST(IncPcmTest, DeletionMergesBlocks) {
  // 0 has children {2,3}, 1 has {2}: not bisimilar. Delete (0,3): merge.
  Graph g(std::vector<Label>{1, 1, 2, 3});
  g.AddEdge(0, 2);
  g.AddEdge(0, 3);
  g.AddEdge(1, 2);
  UpdateBatch batch;
  batch.Delete(0, 3);
  CheckIncremental(g, batch);
}

TEST(IncPcmTest, SplitPropagatesUpward) {
  // Grandparents bisimilar through bisimilar parents; a leaf change at one
  // parent must propagate two levels up.
  Graph g(std::vector<Label>{0, 0, 1, 1, 2, 3});
  const NodeId gp1 = 0, gp2 = 1, p1 = 2, p2 = 3, leaf = 4, fresh = 5;
  g.AddEdge(gp1, p1);
  g.AddEdge(gp2, p2);
  g.AddEdge(p1, leaf);
  g.AddEdge(p2, leaf);
  {
    const PatternCompression pc = CompressB(g);
    ASSERT_EQ(pc.node_map[gp1], pc.node_map[gp2]);
    ASSERT_EQ(pc.node_map[p1], pc.node_map[p2]);
  }
  UpdateBatch batch;
  batch.Insert(p1, fresh);
  CheckIncremental(g, batch);
}

TEST(IncPcmTest, CycleFormation) {
  Graph g(std::vector<Label>{0, 0, 0});
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  UpdateBatch batch;
  batch.Insert(2, 0);
  CheckIncremental(g, batch);
}

TEST(IncPcmTest, CycleBreak) {
  Graph g(std::vector<Label>{0, 0, 0, 0});
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 0);
  g.AddEdge(2, 3);
  UpdateBatch batch;
  batch.Delete(1, 2);
  CheckIncremental(g, batch);
}

TEST(IncPcmTest, EmptyBatchNoOp) {
  Graph g(std::vector<Label>{0, 1});
  g.AddEdge(0, 1);
  PatternCompression pc = CompressB(g);
  const IncPcmStats stats = IncPCM(g, UpdateBatch{}, pc);
  EXPECT_EQ(stats.kept_updates, 0u);
  ExpectEquivalentPatternCompression(pc, CompressB(g));
}

class IncPcmRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncPcmRandomTest, MatchesBatchRecompute) {
  const uint64_t seed = GetParam();
  Graph g;
  switch (seed % 3) {
    case 0:
      g = GenerateUniform(90, 260, 3, seed);
      break;
    case 1:
      g = PreferentialAttachment(90, 3, 0.4, seed);
      break;
    default:
      g = CopyingModel(90, 4, 0.6, seed);
      break;
  }
  if (seed % 2 == 0) AssignZipfLabels(g, 4, 0.8, seed);
  UpdateBatch batch;
  switch (seed % 4) {
    case 0:
      batch = RandomInsertions(g, 8, seed * 5);
      break;
    case 1:
      batch = RandomDeletions(g, 8, seed * 5);
      break;
    default:
      batch = RandomMixed(g, 10, 0.5, seed * 5);
      break;
  }
  CheckIncremental(std::move(g), batch);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncPcmRandomTest,
                         ::testing::Range<uint64_t>(1, 25));

TEST(IncPcmTest, SequenceOfBatchesStaysExact) {
  Graph g = GenerateUniform(70, 200, 3, 66);
  PatternCompression pc = CompressB(g);
  for (uint64_t step = 0; step < 6; ++step) {
    const UpdateBatch batch = RandomMixed(g, 6, 0.6, 200 + step);
    const UpdateBatch effective = ApplyBatch(g, batch);
    IncPCM(g, effective, pc);
  }
  ExpectEquivalentPatternCompression(pc, CompressB(g));
}

TEST(IncBsimTest, SingleUpdateLoopMatchesBatch) {
  Graph g = GenerateUniform(80, 220, 3, 71);
  Graph g2 = g;
  PatternCompression pc = CompressB(g);
  const UpdateBatch batch = RandomMixed(g, 8, 0.5, 72);
  IncBsim(g, batch, pc);  // applies updates internally, one at a time
  ApplyBatch(g2, batch);
  EXPECT_EQ(g, g2);
  ExpectEquivalentPatternCompression(pc, CompressB(g));
}

}  // namespace
}  // namespace qpgc
