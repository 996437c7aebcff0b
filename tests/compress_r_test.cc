// Copyright 2026 The QPGC Authors.

#include "reach/compress_r.h"

#include <cstdint>

#include <gtest/gtest.h>

#include "gen/adversarial.h"
#include "gen/dataset_catalog.h"
#include "gen/random_models.h"
#include "gen/uniform.h"
#include "graph/closure.h"
#include "graph/topology.h"
#include "graph/traversal.h"

namespace qpgc {
namespace {

TEST(CompressRTest, CompressesParallelStructure) {
  Graph g(6);
  // Two equivalent sources {0,1} -> two equivalent middles {2,3} -> two
  // equivalent sinks {4,5}.
  for (NodeId s : {0, 1}) {
    g.AddEdge(s, 2);
    g.AddEdge(s, 3);
  }
  for (NodeId m : {2, 3}) {
    g.AddEdge(m, 4);
    g.AddEdge(m, 5);
  }
  const ReachCompression rc = CompressR(g);
  EXPECT_EQ(rc.gr->num_nodes(), 3u);
  EXPECT_EQ(rc.gr->num_edges(), 2u);
  EXPECT_LT(rc.CompressionRatio(), 0.5);
}

TEST(CompressRTest, SelfLoopMarksCyclicClass) {
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);
  g.AddEdge(1, 2);
  const ReachCompression rc = CompressR(g);
  const NodeId c = rc.node_map[0];
  EXPECT_TRUE(rc.cyclic[c]);
  EXPECT_TRUE(rc.gr->HasEdge(c, c));
  const NodeId sink = rc.node_map[2];
  EXPECT_FALSE(rc.gr->HasEdge(sink, sink));
}

TEST(CompressRTest, QuotientEdgesTransitivelyReduced) {
  // Chain with shortcut: 0 -> 1 -> 2 and 0 -> 2; all nodes distinct classes.
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  const ReachCompression rc = CompressR(g);
  EXPECT_EQ(rc.gr->num_nodes(), 3u);
  EXPECT_EQ(rc.gr->num_edges(), 2u);  // shortcut removed
}

TEST(CompressRTest, QuotientKeepsRedundantEdges) {
  // The quotient is Gr before the transitive reduction: same classes, and
  // the shortcut 0 -> 2 survives there.
  Graph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  const ReachCompression rc = CompressR(g);
  EXPECT_EQ(rc.quotient.num_nodes(), rc.gr->num_nodes());
  EXPECT_EQ(rc.quotient.num_edges(), 3u);
  EXPECT_EQ(rc.gr->num_edges(), 2u);
}

TEST(CompressRTest, NodeMapAndMembersConsistent) {
  const Graph g = GenerateUniform(150, 500, 1, 4);
  const ReachCompression rc = CompressR(g);
  EXPECT_EQ(rc.node_map.size(), g.num_nodes());
  size_t total = 0;
  for (NodeId c = 0; c < rc.gr->num_nodes(); ++c) {
    total += rc.members[c].size();
    for (NodeId v : rc.members[c]) EXPECT_EQ(rc.node_map[v], c);
  }
  EXPECT_EQ(total, g.num_nodes());
  EXPECT_EQ(rc.original_size, g.size());
  EXPECT_LE(rc.size(), g.size());
}

TEST(CompressRTest, RanksMatchMemberRanks) {
  const Graph g = GenerateUniform(100, 320, 1, 5);
  const ReachCompression rc = CompressR(g);
  const auto node_ranks = ReachTopoRanks(g);
  for (NodeId c = 0; c < rc.gr->num_nodes(); ++c) {
    for (NodeId v : rc.members[c]) {
      EXPECT_EQ(rc.ranks[c], node_ranks[v]);
    }
  }
}

// The defining property, exhaustively on small graphs: u reaches v in G
// (non-empty) iff R(u) reaches R(v) in Gr (non-empty).
class CompressRPreservationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompressRPreservationTest, ClosurePreserved) {
  const uint64_t seed = GetParam();
  const Graph g = GenerateUniform(60, 60 + (seed * 37) % 240, 1, seed);
  const ReachCompression rc = CompressR(g);
  const BitMatrix g_closure = FullClosure(g);
  const BitMatrix gr_closure = FullClosure(*rc.gr);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(g_closure.Test(u, v),
                gr_closure.Test(rc.node_map[u], rc.node_map[v]))
          << "seed=" << seed << " pair (" << u << "," << v << ")";
    }
  }
}

// Gr is the unique transitive reduction of the quotient: every Gr edge is a
// quotient edge, and no edge (c, d) has another child w of c reaching d.
TEST_P(CompressRPreservationTest, GrIsMinimal) {
  const uint64_t seed = GetParam();
  const Graph g = GenerateUniform(60, 60 + (seed * 37) % 240, 1, seed);
  const ReachCompression rc = CompressR(g);
  const BitMatrix gr_closure = FullClosure(*rc.gr);
  rc.gr->ForEachEdge([&](NodeId c, NodeId d) {
    EXPECT_TRUE(rc.quotient.HasEdge(c, d)) << "seed=" << seed;
    if (c == d) return;
    for (const NodeId w : rc.gr->OutNeighbors(c)) {
      if (w == c || w == d) continue;
      EXPECT_FALSE(gr_closure.Test(w, d))
          << "seed=" << seed << " edge (" << c << "," << d
          << ") is implied through " << w;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressRPreservationTest,
                         ::testing::Range<uint64_t>(1, 13));

TEST(CompressRTest, EmptyAndEdgeless) {
  Graph empty(0);
  const ReachCompression rc0 = CompressR(empty);
  EXPECT_EQ(rc0.gr->num_nodes(), 0u);
  Graph edgeless(5);
  const ReachCompression rc1 = CompressR(edgeless);
  EXPECT_EQ(rc1.gr->num_nodes(), 1u);  // all nodes equivalent
  EXPECT_EQ(rc1.gr->num_edges(), 0u);
}

// FNV-1a over 64-bit words, written out here so the pinned values below
// depend on nothing but this file.
struct Fnv1a {
  uint64_t h = 0xcbf29ce484222325ull;
  void Add(uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  template <GraphView G>
  void Add(const G& g) {
    Add(g.num_nodes());
    Add(g.num_edges());
    ForEachEdge(g, [&](NodeId u, NodeId v) {
      Add(u);
      Add(v);
    });
  }
};

uint64_t Digest(const ReachCompression& rc) {
  Fnv1a f;
  f.Add(rc.node_map.size());
  for (const NodeId c : rc.node_map) f.Add(c);
  f.Add(*rc.gr);
  f.Add(rc.quotient);
  for (const uint8_t c : rc.cyclic) f.Add(c);
  for (const uint32_t r : rc.ranks) f.Add(r);
  return f.h;
}

// compressR's output, pinned on the served graphs of the end-to-end
// benchmark and on two larger DAGs. The digests were taken with the
// two-pass row-refinement equivalence and the sibling-test reduction that
// the one-pass transitive-reduction pipeline replaced; any change to the
// classes, their numbering, Gr, the quotient or the ranks shows here.
TEST(CompressRTest, OutputDigestsArePinned) {
  struct Case {
    const char* name;
    Graph g;
    uint64_t digest;
  };
  const Case cases[] = {
      {"social", PreferentialAttachment(20000, 4, 0.45, 13),
       0x21d5436bf087e553ull},
      {"grid", DirectedGrid(141, 141), 0xed99bd6ab391c5f7ull},
      {"citation", MakeDataset(FindPatternDataset("Citation")),
       0xca5799ef7681d8f2ull},
      {"citation_dag", CitationDag(20000, 5, 0.5, 3), 0xf570e70beffdd692ull},
      {"layered", LayeredRandom(20000, 6, 3, 0.05, 7), 0xbff6caffc865481full},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(Digest(CompressR(c.g)), c.digest) << c.name;
  }
}

}  // namespace
}  // namespace qpgc
