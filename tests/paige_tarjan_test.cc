// Copyright 2026 The QPGC Authors.
//
// Differential and property suite for the Paige–Tarjan engine:
//   * PT == SignatureBisimulation (the oracle) on every random-model family,
//     on every adversarial deep generator, and on the graphs the end-to-end
//     benchmark serves;
//   * the result is a stable partition refining the label partition;
//   * bounded splitter k-bisimulation == k rounds of RefineOnce;
//   * closed-form block counts on the adversarial topologies.

#include <gtest/gtest.h>

#include "bisim/kbisim.h"
#include "bisim/paige_tarjan.h"
#include "bisim/signature_bisim.h"
#include "gen/adversarial.h"
#include "gen/dataset_catalog.h"
#include "gen/random_models.h"
#include "gen/uniform.h"

namespace qpgc {
namespace {

void ExpectMatchesOracle(const Graph& g, const std::string& what) {
  const Partition oracle = SignatureBisimulation(g);
  const Partition pt = PaigeTarjanBisimulation(g);
  EXPECT_TRUE(SamePartition(pt, oracle))
      << what << ": PT " << pt.num_blocks << " blocks, oracle "
      << oracle.num_blocks;
  EXPECT_TRUE(IsStableBisimulationPartition(g, pt)) << what;
  EXPECT_TRUE(Refines(pt, LabelPartition(g))) << what;
}

TEST(PaigeTarjanTest, TinyGraphs) {
  {
    Graph g(0);
    EXPECT_EQ(PaigeTarjanBisimulation(g).num_blocks, 0u);
  }
  {
    Graph g(std::vector<Label>{7});
    EXPECT_EQ(PaigeTarjanBisimulation(g).num_blocks, 1u);
  }
  {
    // Self loop vs leaf with the same label: not bisimilar.
    Graph g(std::vector<Label>{1, 1});
    g.AddEdge(0, 0);
    const Partition p = PaigeTarjanBisimulation(g);
    EXPECT_EQ(p.num_blocks, 2u);
  }
  {
    // Two disjoint 2-cycles, one label: all four nodes bisimilar. The case
    // where the splitter engine must keep cycles together.
    Graph g(std::vector<Label>{1, 1, 1, 1});
    g.AddEdge(0, 1);
    g.AddEdge(1, 0);
    g.AddEdge(2, 3);
    g.AddEdge(3, 2);
    EXPECT_EQ(PaigeTarjanBisimulation(g).num_blocks, 1u);
  }
}

TEST(PaigeTarjanTest, ChainHasDepthBlocks) {
  // Unlabeled chain: every node is its own block (distance to the sink).
  const Graph g = LongChain(257, 1);
  const Partition p = PaigeTarjanBisimulation(g);
  EXPECT_EQ(p.num_blocks, 257u);
  ExpectMatchesOracle(g, "chain-257");
}

TEST(PaigeTarjanTest, BinaryTreeCollapsesToLevels) {
  const Graph g = CompleteBinaryTree(9);
  const Partition p = PaigeTarjanBisimulation(g);
  EXPECT_EQ(p.num_blocks, 9u);  // one block per level
  ExpectMatchesOracle(g, "tree-9");
}

TEST(PaigeTarjanTest, LayeredDagCollapsesToLayers) {
  // Rotation-symmetric layers: one block per layer, reached only after
  // depth rounds.
  const Graph g = LayeredDag(60, 8, 3, 7);
  const Partition p = PaigeTarjanBisimulation(g);
  EXPECT_EQ(p.num_blocks, 60u);
  ExpectMatchesOracle(g, "layered-60");
}

TEST(PaigeTarjanTest, BroomCollapsesBristles) {
  const Graph g = Broom(101, 500);
  const Partition p = PaigeTarjanBisimulation(g);
  EXPECT_EQ(p.num_blocks, 102u);  // handle nodes + one bristle block
  ExpectMatchesOracle(g, "broom");
}

TEST(PaigeTarjanTest, AdversarialTopologiesMatchOracle) {
  ExpectMatchesOracle(LongChain(300, 3), "chain-labeled");
  ExpectMatchesOracle(LayeredDag(40, 8, 3, 7), "layered-dag");
  ExpectMatchesOracle(DirectedGrid(18, 25), "grid");
  ExpectMatchesOracle(Broom(64, 64), "broom-64");
  ExpectMatchesOracle(CompleteBinaryTree(7), "tree-7");
}

// The graphs bench/e2e serves, at full size (tens of thousands of nodes),
// built the way its workloads build them.
TEST(PaigeTarjanTest, BenchmarkGraphsMatchOracle) {
  {
    Graph g = PreferentialAttachment(20000, 4, 0.45, 13);
    AssignZipfLabels(g, 4, 1.1, 14);
    ExpectMatchesOracle(g, "social");
  }
  {
    Graph g = DirectedGrid(141, 141);
    AssignZipfLabels(g, 4, 1.1, 14);
    ExpectMatchesOracle(g, "grid-141");
  }
  ExpectMatchesOracle(MakeDataset(FindPatternDataset("Citation")), "citation");
}

// Differential fuzz across the random-model families, plus structural
// twins.
class PaigeTarjanAgreement : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PaigeTarjanAgreement, MatchesSignatureOracle) {
  const uint64_t seed = GetParam();
  Graph g;
  switch (seed % 6) {
    case 0:
      g = GenerateUniform(140, 420, 3, seed);
      break;
    case 1:
      g = PreferentialAttachment(140, 3, 0.4, seed);
      break;
    case 2:
      g = CitationDag(140, 4, 0.5, seed, 0.15);
      break;
    case 3:
      g = CopyingModel(140, 4, 0.6, seed);
      break;
    case 4:
      g = InternetTopology(140, 0.2, seed);
      break;
    default:
      g = LayeredRandom(140, 4, 3, 0.1, seed);
      break;
  }
  if (seed % 2 == 0) AssignZipfLabels(g, 5, 0.8, seed);
  if (seed % 3 == 0) CloneOutNeighborhoods(g, 0.25, 0.4, seed ^ 0x5a);
  ExpectMatchesOracle(g, "seed=" + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PaigeTarjanAgreement,
                         ::testing::Range<uint64_t>(1, 25));

// Bounded splitter rounds must equal k literal RefineOnce rounds, for every
// k, as set partitions.
class BoundedSplitterAgreement : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BoundedSplitterAgreement, MatchesGlobalRounds) {
  const uint64_t seed = GetParam();
  Graph g;
  switch (seed % 4) {
    case 0:
      g = GenerateUniform(120, 360, 3, seed);
      break;
    case 1:
      g = LongChain(150, 1 + seed % 4);
      break;
    case 2:
      g = LayeredDag(30, 6, 2, seed);
      break;
    default:
      g = PreferentialAttachment(120, 3, 0.3, seed);
      break;
  }
  for (const size_t k : {size_t{0}, size_t{1}, size_t{2}, size_t{5},
                         size_t{40}}) {
    const Partition fast = KBisimulation(g, k);
    Partition oracle = LabelPartition(g);
    for (size_t i = 0; i < k; ++i) {
      if (!RefineOnce(g, oracle)) break;
    }
    EXPECT_TRUE(SamePartition(fast, oracle))
        << "seed=" << seed << " k=" << k << ": splitter " << fast.num_blocks
        << " blocks, oracle " << oracle.num_blocks;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundedSplitterAgreement,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace qpgc
