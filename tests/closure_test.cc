// Copyright 2026 The QPGC Authors.

#include "graph/closure.h"

#include <gtest/gtest.h>

#include "gen/uniform.h"
#include "graph/traversal.h"

namespace qpgc {
namespace {

TEST(ClosureTest, FullClosureNonEmptySemantics) {
  Graph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 0);  // cycle {0,1,2}
  g.AddEdge(2, 3);
  const BitMatrix c = FullClosure(g);
  EXPECT_TRUE(c.Test(0, 0));  // on cycle: reaches itself non-emptily
  EXPECT_TRUE(c.Test(0, 3));
  EXPECT_FALSE(c.Test(3, 3));  // leaf does not reach itself
  EXPECT_FALSE(c.Test(3, 0));
}

TEST(ClosureTest, BackwardClosureIsTranspose) {
  const Graph g = GenerateUniform(60, 150, 1, 5);
  const BitMatrix fwd = FullClosure(g, Direction::kForward);
  const BitMatrix bwd = FullClosure(g, Direction::kBackward);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(fwd.Test(u, v), bwd.Test(v, u));
    }
  }
}

TEST(ClosureTest, FullClosureMatchesBfs) {
  const Graph g = GenerateUniform(50, 120, 1, 6);
  const BitMatrix c = FullClosure(g);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(c.Test(u, v), BfsReaches(g, u, v, PathMode::kNonEmpty))
          << u << " -> " << v;
    }
  }
}

TEST(ClosureTest, SelfLoopEdgeBehavesLikeSeed) {
  // A self-loop puts its node in its own row, as any cycle does; its child
  // stays out of its own row.
  Graph dag(2);
  dag.AddEdge(0, 0);
  dag.AddEdge(0, 1);
  const BitMatrix c = FullClosure(dag);
  EXPECT_TRUE(c.Test(0, 0));
  EXPECT_FALSE(c.Test(1, 1));
}

}  // namespace
}  // namespace qpgc
