// Copyright 2026 The QPGC Authors.
//
// The Match algorithm for bounded simulation (Section 2.1 / [9]): computes
// the unique maximum match S_M of a pattern Qp in a graph G (Lemma 1), or
// reports that Qp does not match G.
//
// Algorithm: downward fixpoint on candidate sets. S(u) starts at all
// label-matching nodes; a pattern edge (u, u', k) prunes from S(u) every node
// that cannot reach a member of S(u') by a non-empty path of length <= k. A
// worklist over pattern edges re-checks an edge only when its target set
// shrank. The pruning operator is monotone, so iterating from any superset
// of the greatest fixpoint converges exactly to it — which is what makes
// warm starts (incremental matching, pattern/inc_match.h) exact as well.
//
// Candidate initialization costs what its sets hold: a frozen view
// (CsrGraph, the mapped MmapCsrGraph) carries a label index
// (graph/label_index.h), and S(u) is a copy of fv(u)'s range there, so
// Match on a quotient never touches the blocks no pattern label names. The
// index is built on the view's first Match, in about the time one
// node-by-node scan takes, and shared by every later one. The dynamic
// Graph, whose labels change under maintenance, keeps that scan.
//
// One prune is evaluated one of two ways:
//   * pull (finite k < |V|): each v in S(u) asks its own out-edges, with
//     early exit at the first witness — the bottom-up step of
//     direction-optimizing BFS. An iterative depth-limited DFS memoizes per
//     node the smallest depth known to reach S(u') and the largest depth
//     known not to, so a node is expanded at most once per distinct depth.
//     Dense candidate sets find witnesses within a hop or two, far below the
//     cost of a whole backward sweep;
//   * sweep: one bounded multi-source backward BFS from S(u'), marking every
//     node that reaches it. '*' bounds and bounds >= |V| always sweep. A pull
//     whose witness scans have covered |E| adjacency entries without
//     finishing stops and hands its undecided candidates to the sweep, so a
//     prune costs at most a small multiple of one sweep.
// Both decide the same predicate, so the fixpoint does not depend on which
// ran.
//
// Templated over GraphView: the same matcher runs on the dynamic Graph, on
// frozen CsrGraph snapshots, and on compressed graphs (the paper's claim
// that stock algorithms run on Gr unchanged extends to frozen views).

#ifndef QPGC_PATTERN_MATCH_H_
#define QPGC_PATTERN_MATCH_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_view.h"
#include "graph/label_index.h"
#include "graph/traversal.h"
#include "pattern/pattern.h"
#include "util/bitset.h"

namespace qpgc {

/// The maximum match of a pattern in a graph.
struct MatchResult {
  /// True iff Qp matches G (every pattern node has candidates in the
  /// greatest fixpoint).
  bool matched = false;
  /// match_sets[u] = sorted data nodes v with (u, v) in the maximum match.
  /// Empty everywhere when matched == false (the paper defines the answer as
  /// the empty set then).
  std::vector<std::vector<NodeId>> match_sets;
  /// The greatest fixpoint itself, regardless of the emptiness rule. This is
  /// what incremental maintenance warm-starts from.
  std::vector<std::vector<NodeId>> fixpoint_sets;

  /// Total number of (u, v) pairs in the answer.
  size_t TotalPairs() const {
    size_t total = 0;
    for (const auto& s : match_sets) total += s.size();
    return total;
  }

  bool operator==(const MatchResult& o) const {
    return matched == o.matched && match_sets == o.match_sets;
  }
};

namespace match_detail {

inline constexpr uint32_t kUnknownDepth = UINT32_MAX;

// What one prune has learned about a node, valid while `epoch` is the
// scratch's current epoch. Depths count the edges of a non-empty path into
// S(u').
struct PullMemo {
  uint32_t epoch = 0;
  uint32_t reach_depth = kUnknownDepth;  // smallest depth known to reach
  uint32_t miss_depth = 0;               // largest depth known not to
};

// A node of the depth-limited DFS whose witness scan found nothing, with
// `depth` edges left to spend.
struct PullFrame {
  NodeId node;
  uint32_t depth;
  uint32_t next;  // next out-neighbour to descend into
};

// Per-thread pull state. S(u') is a bitset, small enough to stay in cache
// for the witness scans; the memo is epoch-stamped, so starting a prune
// clears nothing but the bitset. The arrays outlive calls, so a prune
// allocates nothing once the thread has seen a graph of this size.
struct PullScratch {
  Bitset is_target;
  std::vector<PullMemo> memo;
  std::vector<PullFrame> stack;
  uint32_t epoch = 0;

  // Starts a prune against S(u') = `targets` on a graph of `num_nodes`.
  void Begin(size_t num_nodes, std::span<const NodeId> targets) {
    if (memo.size() < num_nodes) {
      memo.resize(num_nodes);
      is_target.Resize(num_nodes);
    }
    if (++epoch == 0) {
      std::fill(memo.begin(), memo.end(), PullMemo{});
      epoch = 1;
    }
    is_target.Reset();
    for (const NodeId t : targets) is_target.Set(t);
  }

  uint32_t ReachDepth(NodeId x) const {
    return memo[x].epoch == epoch ? memo[x].reach_depth : kUnknownDepth;
  }
  uint32_t MissDepth(NodeId x) const {
    return memo[x].epoch == epoch ? memo[x].miss_depth : 0;
  }
  void LearnReach(NodeId x, uint32_t depth) {
    PullMemo& m = Fresh(x);
    m.reach_depth = std::min(m.reach_depth, depth);
  }
  void LearnMiss(NodeId x, uint32_t depth) {
    PullMemo& m = Fresh(x);
    m.miss_depth = std::max(m.miss_depth, depth);
  }

  // True iff w proves that its in-neighbour reaches S(u') within `depth`:
  // w is a target, or known to reach one in fewer than `depth` edges.
  // `*found` gets the in-neighbour's path length.
  bool Witness(NodeId w, uint32_t depth, uint32_t* found) const {
    if (is_target.Test(w)) {
      *found = 1;
      return true;
    }
    // A known reach is at least one edge, so it never helps at depth 1.
    const uint32_t reach = depth > 1 ? ReachDepth(w) : kUnknownDepth;
    if (reach < depth) {
      *found = reach + 1;
      return true;
    }
    return false;
  }

 private:
  PullMemo& Fresh(NodeId x) {
    PullMemo& m = memo[x];
    if (m.epoch != epoch) m = PullMemo{epoch, kUnknownDepth, 0};
    return m;
  }
};

inline PullScratch& ThreadPullScratch() {
  thread_local PullScratch scratch;
  return scratch;
}

enum class PullVerdict { kReaches, kMisses, kOverBudget };

// Decides whether v has a non-empty path of length <= k into the targets
// stamped in `s`, by an iterative depth-limited DFS over out-edges. A node
// is first scanned for a witness among its out-neighbours; only if none is
// found does the DFS descend into the neighbours not yet known to miss.
// Each scan charges the node's out-degree to `budget`; kOverBudget means it
// ran out before v was decided (memo entries learned so far stay valid).
template <GraphView G>
PullVerdict PullReaches(const G& g, NodeId v, uint32_t k, PullScratch& s,
                        size_t& budget) {
  if (s.ReachDepth(v) <= k) return PullVerdict::kReaches;
  if (s.MissDepth(v) >= k) return PullVerdict::kMisses;
  uint32_t found = 0;
  const auto scan = [&](NodeId x, uint32_t depth) {
    const std::span<const NodeId> out = g.OutNeighbors(x);
    if (out.size() > budget) return PullVerdict::kOverBudget;
    budget -= out.size();
    for (const NodeId w : out) {
      if (s.Witness(w, depth, &found)) return PullVerdict::kReaches;
    }
    return PullVerdict::kMisses;
  };
  PullVerdict verdict = scan(v, k);
  if (verdict == PullVerdict::kReaches) s.LearnReach(v, found);
  if (verdict != PullVerdict::kMisses) return verdict;
  if (k == 1) {
    s.LearnMiss(v, 1);
    return PullVerdict::kMisses;
  }
  std::vector<PullFrame>& stack = s.stack;
  stack.clear();
  stack.push_back({v, k, 0});
  while (!stack.empty()) {
    PullFrame& f = stack.back();
    const std::span<const NodeId> out = g.OutNeighbors(f.node);
    const uint32_t depth = f.depth - 1;  // left for f's children
    bool descended = false;
    while (f.next < out.size()) {
      const NodeId w = out[f.next++];
      if (s.MissDepth(w) >= depth) continue;
      verdict = scan(w, depth);
      if (verdict == PullVerdict::kOverBudget) return verdict;
      if (verdict == PullVerdict::kReaches) {
        // Every frame reaches through its child: one more edge per level.
        s.LearnReach(w, found);
        for (size_t i = stack.size(); i-- > 0;) {
          s.LearnReach(stack[i].node, ++found);
        }
        return verdict;
      }
      if (depth == 1) {
        s.LearnMiss(w, 1);
        continue;
      }
      stack.push_back({w, depth, 0});  // invalidates f
      descended = true;
      break;
    }
    if (!descended) {
      s.LearnMiss(f.node, f.depth);
      stack.pop_back();
    }
  }
  return PullVerdict::kMisses;
}

// Prunes S(e.from) to nodes with a non-empty path of length <= e.bound to a
// member of S(e.to). Returns true iff S(e.from) shrank.
template <GraphView G>
bool PruneByEdge(const G& g, const PatternEdge& e,
                 std::vector<std::vector<NodeId>>& sets) {
  const std::vector<NodeId>& targets = sets[e.to];
  std::vector<NodeId>& source = sets[e.from];
  if (source.empty()) return false;
  if (targets.empty()) {
    source.clear();
    return true;
  }
  // Survivors are compacted to the front of `source`; [next, before) is
  // still undecided.
  const size_t before = source.size();
  size_t kept = 0;
  size_t next = 0;
  if (e.bound < g.num_nodes()) {
    PullScratch& s = ThreadPullScratch();
    s.Begin(g.num_nodes(), targets);
    size_t budget = g.num_edges();
    for (; next < before; ++next) {
      const PullVerdict verdict =
          PullReaches(g, source[next], e.bound, s, budget);
      if (verdict == PullVerdict::kOverBudget) break;
      if (verdict == PullVerdict::kReaches) source[kept++] = source[next];
    }
  }
  if (next < before) {
    // With a pattern self-loop, `targets` is this half-compacted `source`,
    // whose stale middle may still hold nodes the pull dropped. Sweeping
    // from them can only keep too much, and S(e.from) has then shrunk, so
    // the worklist re-checks this edge against the compacted set.
    const Bitset allowed =
        BoundedMultiSourceReach(g, targets, e.bound, Direction::kBackward);
    for (; next < before; ++next) {
      if (allowed.Test(source[next])) source[kept++] = source[next];
    }
  }
  source.resize(kept);
  return kept != before;
}

// Runs the worklist over `sets` until no pattern edge prunes. With
// `stop_on_empty`, returns false as soon as some set empties (q cannot
// match); otherwise runs to the greatest fixpoint and returns true.
template <GraphView G>
bool RunFixpoint(const G& g, const PatternQuery& q,
                 std::vector<std::vector<NodeId>>& sets, bool stop_on_empty) {
  // Worklist of pattern-edge ids whose *target* set changed (initially all).
  std::deque<uint32_t> worklist;
  std::vector<uint8_t> queued(q.num_edges(), 0);
  for (uint32_t e = 0; e < q.num_edges(); ++e) {
    worklist.push_back(e);
    queued[e] = 1;
  }

  while (!worklist.empty()) {
    const uint32_t eid = worklist.front();
    worklist.pop_front();
    queued[eid] = 0;
    const PatternEdge& e = q.edge(eid);
    if (PruneByEdge(g, e, sets)) {
      if (stop_on_empty && sets[e.from].empty()) return false;
      // S(e.from) shrank: every edge whose target is e.from must re-check.
      for (uint32_t other : q.in_edges(e.from)) {
        if (!queued[other]) {
          worklist.push_back(other);
          queued[other] = 1;
        }
      }
    }
  }
  return true;
}

// S(u) = every node labelled fv(u), sorted: a copy of the label's range
// of the view's label index when it has one, else a scan of every node.
template <GraphView G>
std::vector<std::vector<NodeId>> LabelCandidates(const G& g,
                                                 const PatternQuery& q) {
  std::vector<std::vector<NodeId>> candidates(q.num_nodes());
  if constexpr (LabelIndexedView<G>) {
    const LabelIndex& index = g.label_index();
    for (uint32_t u = 0; u < q.num_nodes(); ++u) {
      const std::span<const NodeId> nodes = index.Nodes(q.label(u));
      candidates[u].assign(nodes.begin(), nodes.end());
    }
  } else {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      for (uint32_t u = 0; u < q.num_nodes(); ++u) {
        if (q.label(u) == g.label(v)) candidates[u].push_back(v);
      }
    }
  }
  return candidates;
}

}  // namespace match_detail

/// Computes the greatest fixpoint starting from the given candidate sets,
/// which must each be a superset of the true fixpoint (and a subset of the
/// label-matching nodes). Used by Match (label candidates) and by
/// IncBMatch (warm starts). Sets must be sorted.
template <GraphView G>
MatchResult MatchFrom(const G& g, const PatternQuery& q,
                      std::vector<std::vector<NodeId>> candidates) {
  QPGC_CHECK(candidates.size() == q.num_nodes());
  MatchResult result;
  result.fixpoint_sets = std::move(candidates);
  match_detail::RunFixpoint(g, q, result.fixpoint_sets,
                            /*stop_on_empty=*/false);

  result.matched = true;
  for (uint32_t u = 0; u < q.num_nodes(); ++u) {
    if (result.fixpoint_sets[u].empty()) {
      result.matched = false;
      break;
    }
  }
  result.match_sets = result.matched
                          ? result.fixpoint_sets
                          : std::vector<std::vector<NodeId>>(q.num_nodes());
  return result;
}

/// Computes the maximum match of q in g.
template <GraphView G>
MatchResult Match(const G& g, const PatternQuery& q) {
  return MatchFrom(g, q, match_detail::LabelCandidates(g, q));
}

/// True iff q matches g (Boolean pattern query; no post-processing needed on
/// compressed graphs). Stops as soon as some candidate set empties and never
/// builds the answer sets.
template <GraphView G>
bool BooleanMatch(const G& g, const PatternQuery& q) {
  std::vector<std::vector<NodeId>> sets = match_detail::LabelCandidates(g, q);
  for (const auto& s : sets) {
    if (s.empty()) return false;
  }
  return match_detail::RunFixpoint(g, q, sets, /*stop_on_empty=*/true);
}

// Non-template Graph overloads (compiled once in match.cc).
MatchResult Match(const Graph& g, const PatternQuery& q);
MatchResult MatchFrom(const Graph& g, const PatternQuery& q,
                      std::vector<std::vector<NodeId>> candidates);
bool BooleanMatch(const Graph& g, const PatternQuery& q);

}  // namespace qpgc

#endif  // QPGC_PATTERN_MATCH_H_
