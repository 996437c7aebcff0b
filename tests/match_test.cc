// Copyright 2026 The QPGC Authors.

#include "pattern/match.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "gen/adversarial.h"
#include "gen/uniform.h"
#include "graph/csr.h"
#include "graph/traversal.h"
#include "serve/snapshot.h"
#include "storage/mmap_snapshot.h"
#include "storage/snapshot_io.h"
#include "util/rng.h"

namespace qpgc {
namespace {

// Brute-force maximum match for cross-checking: iterate the pruning
// operator on full candidate sets without worklists.
MatchResult BruteForceMatch(const Graph& g, const PatternQuery& q) {
  // S(u) = label candidates.
  std::vector<std::vector<uint8_t>> in_set(q.num_nodes(),
                                           std::vector<uint8_t>(g.num_nodes()));
  for (uint32_t u = 0; u < q.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      in_set[u][v] = (g.label(v) == q.label(u));
    }
  }
  // Distances for bounded checks, recomputed naively.
  bool changed = true;
  while (changed) {
    changed = false;
    for (uint32_t u = 0; u < q.num_nodes(); ++u) {
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (!in_set[u][v]) continue;
        for (uint32_t eid : q.out_edges(u)) {
          const PatternEdge& e = q.edge(eid);
          // Is there a non-empty path of length <= bound from v to some
          // member of S(e.to)?  BFS from v.
          bool ok = false;
          std::vector<uint32_t> dist(g.num_nodes(), kUnreachedDist);
          std::vector<NodeId> queue{v};
          dist[v] = 0;
          for (size_t i = 0; i < queue.size() && !ok; ++i) {
            const NodeId x = queue[i];
            if (dist[x] >= e.bound) continue;
            for (NodeId w : g.OutNeighbors(x)) {
              const uint32_t dw = dist[x] + 1;
              if (in_set[e.to][w]) {
                ok = true;
                break;
              }
              if (dist[w] == kUnreachedDist) {
                dist[w] = dw;
                queue.push_back(w);
              }
            }
          }
          if (!ok) {
            in_set[u][v] = 0;
            changed = true;
            break;
          }
        }
      }
    }
  }
  MatchResult r;
  r.fixpoint_sets.resize(q.num_nodes());
  for (uint32_t u = 0; u < q.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (in_set[u][v]) r.fixpoint_sets[u].push_back(v);
    }
  }
  r.matched = true;
  for (const auto& s : r.fixpoint_sets) {
    if (s.empty()) r.matched = false;
  }
  r.match_sets = r.matched ? r.fixpoint_sets
                           : std::vector<std::vector<NodeId>>(q.num_nodes());
  return r;
}

TEST(MatchTest, SingleEdgeBoundOne) {
  // Data: 0(A) -> 1(B); 2(A) with no B child.
  Graph g(std::vector<Label>{0, 1, 0});
  g.AddEdge(0, 1);
  PatternQuery q;
  const uint32_t a = q.AddNode(0);
  const uint32_t b = q.AddNode(1);
  q.AddEdge(a, b, 1);
  const MatchResult m = Match(g, q);
  ASSERT_TRUE(m.matched);
  EXPECT_EQ(m.match_sets[a], (std::vector<NodeId>{0}));
  EXPECT_EQ(m.match_sets[b], (std::vector<NodeId>{1}));
}

TEST(MatchTest, BoundTwoAllowsTwoHops) {
  // 0(A) -> 1(C) -> 2(B): A-to-B within 2 hops but not 1.
  Graph g(std::vector<Label>{0, 2, 1});
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  PatternQuery q1, q2;
  const uint32_t a1 = q1.AddNode(0);
  const uint32_t b1 = q1.AddNode(1);
  q1.AddEdge(a1, b1, 1);
  EXPECT_FALSE(Match(g, q1).matched);
  const uint32_t a2 = q2.AddNode(0);
  const uint32_t b2 = q2.AddNode(1);
  q2.AddEdge(a2, b2, 2);
  EXPECT_TRUE(Match(g, q2).matched);
}

TEST(MatchTest, StarBoundIsUnbounded) {
  // Long chain A -> x -> x -> ... -> B.
  const size_t n = 50;
  Graph g(n);
  g.set_label(0, 7);
  for (NodeId v = 1; v + 1 < n; ++v) g.set_label(v, 9);
  g.set_label(n - 1, 8);
  for (NodeId v = 0; v + 1 < n; ++v) g.AddEdge(v, v + 1);
  PatternQuery q;
  const uint32_t a = q.AddNode(7);
  const uint32_t b = q.AddNode(8);
  q.AddEdge(a, b, kStarBound);
  EXPECT_TRUE(Match(g, q).matched);
}

TEST(MatchTest, CyclicPatternOnCyclicData) {
  // Pattern A -> B -> A (cycle); data has a 2-cycle with labels A, B.
  Graph g(std::vector<Label>{0, 1});
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);
  PatternQuery q;
  const uint32_t a = q.AddNode(0);
  const uint32_t b = q.AddNode(1);
  q.AddEdge(a, b, 1);
  q.AddEdge(b, a, 1);
  const MatchResult m = Match(g, q);
  ASSERT_TRUE(m.matched);
  EXPECT_EQ(m.match_sets[a], (std::vector<NodeId>{0}));
  EXPECT_EQ(m.match_sets[b], (std::vector<NodeId>{1}));
}

TEST(MatchTest, CyclicPatternPrunesAcyclicData) {
  // Same pattern, but data edge B -> A missing: no match.
  Graph g(std::vector<Label>{0, 1});
  g.AddEdge(0, 1);
  PatternQuery q;
  const uint32_t a = q.AddNode(0);
  const uint32_t b = q.AddNode(1);
  q.AddEdge(a, b, 1);
  q.AddEdge(b, a, 1);
  const MatchResult m = Match(g, q);
  EXPECT_FALSE(m.matched);
  EXPECT_TRUE(m.match_sets[a].empty());
}

TEST(MatchTest, SelfLoopSatisfiesCyclicPattern) {
  Graph g(std::vector<Label>{0});
  g.AddEdge(0, 0);
  PatternQuery q;
  const uint32_t a = q.AddNode(0);
  q.AddEdge(a, a, 1);
  EXPECT_TRUE(Match(g, q).matched);
}

TEST(MatchTest, NonEmptyPathRequired) {
  // Pattern edge A -> A with bound 1 requires a real self-edge, not the
  // trivial empty path.
  Graph g(std::vector<Label>{0});
  PatternQuery q;
  const uint32_t a = q.AddNode(0);
  q.AddEdge(a, a, 1);
  EXPECT_FALSE(Match(g, q).matched);
}

TEST(MatchTest, MissingLabelMeansNoMatch) {
  Graph g(std::vector<Label>{0, 0});
  g.AddEdge(0, 1);
  PatternQuery q;
  q.AddNode(42);
  EXPECT_FALSE(Match(g, q).matched);

  // Frozen views take S(u) from their label index, where an absent label
  // is an empty range: the candidate set is empty and nothing matches.
  const auto frozen = std::make_shared<const CsrGraph>(g);
  EXPECT_TRUE(match_detail::LabelCandidates(*frozen, q)[0].empty());
  EXPECT_FALSE(Match(*frozen, q).matched);
  EXPECT_FALSE(BooleanMatch(*frozen, q));

  // The same on the mapped view of a saved snapshot of g.
  auto reach = std::make_shared<FrozenReachSide>();
  reach->FillIdentity(frozen);
  auto pattern = std::make_shared<FrozenPatternSide>();
  pattern->FillIdentity(frozen);
  const ServingSnapshot snap(1, std::move(reach), std::move(pattern));
  const std::string path =
      ::testing::TempDir() + "qpgc_match_missing_label.snap";
  ASSERT_TRUE(storage::SaveSnapshot(snap, path).ok());
  Result<storage::MmapSnapshot> mapped = storage::MmapSnapshot::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().message();
  const storage::MmapCsrGraph& gr = mapped.value().pattern_gr();
  EXPECT_TRUE(match_detail::LabelCandidates(gr, q)[0].empty());
  EXPECT_FALSE(Match(gr, q).matched);
  EXPECT_FALSE(BooleanMatch(gr, q));
  EXPECT_FALSE(mapped.value().Match(q).matched);
}

TEST(MatchTest, ResultSetsSorted) {
  const Graph g = GenerateUniform(60, 200, 3, 41);
  PatternQuery q;
  const uint32_t a = q.AddNode(0);
  const uint32_t b = q.AddNode(1);
  q.AddEdge(a, b, 2);
  const MatchResult m = Match(g, q);
  for (const auto& s : m.match_sets) {
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
  }
}

class MatchAgainstBruteForce : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MatchAgainstBruteForce, FixpointsAgree) {
  const uint64_t seed = GetParam();
  const Graph g = GenerateUniform(40, 140, 3, seed);
  PatternQuery q;
  const uint32_t a = q.AddNode(0);
  const uint32_t b = q.AddNode(1);
  const uint32_t c = q.AddNode(2);
  q.AddEdge(a, b, 1 + seed % 3);
  q.AddEdge(b, c, seed % 2 == 0 ? kStarBound : 2);
  q.AddEdge(a, c, 2);
  const MatchResult fast = Match(g, q);
  const MatchResult slow = BruteForceMatch(g, q);
  EXPECT_EQ(fast.matched, slow.matched) << "seed=" << seed;
  EXPECT_EQ(fast.fixpoint_sets, slow.fixpoint_sets) << "seed=" << seed;
}

// Random pattern over labels [0, num_labels): 3-5 nodes, a random edge set
// that may hold self-loops and cycles, bounds drawn from `bounds`.
PatternQuery RandomTestPattern(Rng& rng, size_t num_labels,
                               const std::vector<uint32_t>& bounds) {
  PatternQuery q;
  const size_t nodes = 3 + rng.Uniform(3);
  for (size_t u = 0; u < nodes; ++u) {
    q.AddNode(static_cast<Label>(rng.Uniform(num_labels)));
  }
  std::vector<std::vector<uint8_t>> used(nodes, std::vector<uint8_t>(nodes));
  const size_t edges = nodes - 1 + rng.Uniform(nodes);
  for (size_t i = 0; i < edges; ++i) {
    const uint32_t from = static_cast<uint32_t>(rng.Uniform(nodes));
    const uint32_t to = static_cast<uint32_t>(rng.Uniform(nodes));
    if (used[from][to]) continue;
    used[from][to] = 1;
    q.AddEdge(from, to, rng.Pick(bounds));
  }
  return q;
}

// Checks Match, BooleanMatch and a warm-started MatchFrom on both the
// dynamic Graph and its frozen CsrGraph against the brute-force fixpoint.
void ExpectAllAgree(const Graph& g, const PatternQuery& q, Rng& rng) {
  const MatchResult slow = BruteForceMatch(g, q);
  const CsrGraph frozen(g);
  const MatchResult on_graph = Match(g, q);
  const MatchResult on_csr = Match(frozen, q);
  EXPECT_EQ(on_graph.matched, slow.matched);
  EXPECT_EQ(on_graph.fixpoint_sets, slow.fixpoint_sets);
  EXPECT_EQ(on_graph.match_sets, slow.match_sets);
  EXPECT_EQ(on_csr.fixpoint_sets, slow.fixpoint_sets);
  EXPECT_EQ(on_csr.match_sets, slow.match_sets);
  EXPECT_EQ(BooleanMatch(g, q), slow.matched);
  EXPECT_EQ(BooleanMatch(frozen, q), slow.matched);

  // Warm start: the fixpoint plus a random half of the other label matches.
  std::vector<std::vector<NodeId>> warm(q.num_nodes());
  for (uint32_t u = 0; u < q.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (g.label(v) != q.label(u)) continue;
      if (std::binary_search(slow.fixpoint_sets[u].begin(),
                             slow.fixpoint_sets[u].end(), v) ||
          rng.Chance(0.5)) {
        warm[u].push_back(v);
      }
    }
  }
  EXPECT_EQ(MatchFrom(g, q, warm).fixpoint_sets, slow.fixpoint_sets);
  EXPECT_EQ(MatchFrom(frozen, q, std::move(warm)).fixpoint_sets,
            slow.fixpoint_sets);
}

TEST_P(MatchAgainstBruteForce, RandomPatternsAgreeOnGraphAndCsr) {
  const uint64_t seed = GetParam();
  // 60 nodes, so that bound 40 takes the pull path and |V| + 1 the sweep.
  const Graph g = GenerateUniform(60, 200, 3, seed);
  const std::vector<uint32_t> bounds = {
      1, 2, 3, 40, static_cast<uint32_t>(g.num_nodes() + 1), kStarBound};
  Rng rng(seed * 7919);
  for (int i = 0; i < 8; ++i) {
    const PatternQuery q = RandomTestPattern(rng, 3, bounds);
    SCOPED_TRACE("seed=" + std::to_string(seed) + " pattern " +
                 std::to_string(i) + ": " + q.DebugString());
    ExpectAllAgree(g, q, rng);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatchAgainstBruteForce,
                         ::testing::Range<uint64_t>(1, 13));

TEST(MatchTest, LongChainWithDeepBoundNeedsNoRecursion) {
  // 0 -> 1 -> ... -> 5999 with only the last node labelled B: node i
  // reaches it within 5000 hops iff i >= 999. The pull's DFS from node 0
  // holds 5000 frames at once.
  const size_t n = 6000;
  Graph g(std::vector<Label>(n, 0));
  for (NodeId v = 0; v + 1 < n; ++v) g.AddEdge(v, v + 1);
  g.set_label(n - 1, 1);
  PatternQuery q;
  const uint32_t a = q.AddNode(0);
  const uint32_t b = q.AddNode(1);
  q.AddEdge(a, b, 5000);
  std::vector<NodeId> want_a;
  for (NodeId v = 999; v + 1 < n; ++v) want_a.push_back(v);
  for (const MatchResult& m : {Match(g, q), Match(CsrGraph(g), q)}) {
    ASSERT_TRUE(m.matched);
    EXPECT_EQ(m.match_sets[a], want_a);
    EXPECT_EQ(m.match_sets[b], (std::vector<NodeId>{n - 1}));
  }
  EXPECT_TRUE(BooleanMatch(g, q));
}

TEST(MatchTest, PullBudgetExhaustionFallsBackToSweep) {
  // A 20x20 grid, edges right and down, with B only at the bottom-left
  // corner: only column 0 reaches it. The pull from the first candidate
  // walks the whole grid right-first at bound 40, runs out of its |E|
  // budget, and the sweep finishes the prune.
  const size_t side = 20;
  Graph g = DirectedGrid(side, side);
  const NodeId corner = static_cast<NodeId>((side - 1) * side);
  g.set_label(corner, 1);
  PatternQuery q;
  const uint32_t a = q.AddNode(0);
  const uint32_t b = q.AddNode(1);
  q.AddEdge(a, b, 40);

  // The first prune of (a, b) does exhaust the pull budget.
  match_detail::PullScratch scratch;
  const NodeId targets[] = {corner};
  scratch.Begin(g.num_nodes(), targets);
  size_t budget = g.num_edges();
  bool exhausted = false;
  for (NodeId v = 0; v < g.num_nodes() && !exhausted; ++v) {
    if (v == corner) continue;
    exhausted = match_detail::PullReaches(g, v, 40, scratch, budget) ==
                match_detail::PullVerdict::kOverBudget;
  }
  EXPECT_TRUE(exhausted);

  Rng rng(5);
  ExpectAllAgree(g, q, rng);
  // Exactly column 0 above the corner reaches it.
  const MatchResult m = Match(g, q);
  ASSERT_TRUE(m.matched);
  std::vector<NodeId> want_a;
  for (NodeId r = 0; r + 1 < side; ++r) want_a.push_back(r * side);
  EXPECT_EQ(m.match_sets[a], want_a);
}

TEST(MatchTest, SelfLoopPruneFallsBackFromHalfCompactedSet) {
  // Pattern A -> A (bound 40), so S(u') is S(u) itself. Data: A nodes 0 <-> 1
  // (kept by the pull), A sink 2 (dropped by the pull), then A node 3 whose
  // only way on is a 20x20 grid of B nodes whose far corner leads back to 2,
  // 40 edges away. The pull spends its budget inside the grid on node 3.
  // The sweep then runs from the half-compacted set, which still holds the
  // dropped node 2, so node 3 survives one round; the re-check drops it.
  const size_t side = 20;
  const NodeId grid0 = 4;
  Graph g(std::vector<Label>(grid0 + side * side, 1));
  for (NodeId v = 0; v < grid0; ++v) g.set_label(v, 0);
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);
  g.AddEdge(3, grid0);
  for (NodeId r = 0; r < side; ++r) {
    for (NodeId c = 0; c < side; ++c) {
      const NodeId x = grid0 + r * side + c;
      if (r + 1 < side) g.AddEdge(x, x + side);
      if (c + 1 < side) g.AddEdge(x, x + 1);
    }
  }
  g.AddEdge(grid0 + side * side - 1, 2);
  PatternQuery q;
  const uint32_t a = q.AddNode(0);
  q.AddEdge(a, a, 40);
  Rng rng(6);
  ExpectAllAgree(g, q, rng);
  const MatchResult m = Match(g, q);
  ASSERT_TRUE(m.matched);
  EXPECT_EQ(m.match_sets[a], (std::vector<NodeId>{0, 1}));
}

TEST(MatchTest, BooleanMatchStopsAtFirstEmptySet) {
  // A -> B -> C where no B reaches the one C: S(B) empties on the first
  // prune, and the Boolean answer must not wait for the remaining edges.
  Graph g(std::vector<Label>{0, 1, 0, 1, 2});
  g.AddEdge(0, 1);
  g.AddEdge(2, 3);
  PatternQuery q;
  const uint32_t a = q.AddNode(0);
  const uint32_t b = q.AddNode(1);
  const uint32_t c = q.AddNode(2);
  q.AddEdge(b, c, 1);
  q.AddEdge(a, b, 1);
  EXPECT_FALSE(BooleanMatch(g, q));
  EXPECT_FALSE(Match(g, q).matched);
}

}  // namespace
}  // namespace qpgc
