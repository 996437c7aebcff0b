// Copyright 2026 The QPGC Authors.
//
// Graph traversals and reachability primitives. These are deliberately the
// *unmodified, off-the-shelf* algorithms (BFS, bidirectional BFS, DFS): the
// paper's central claim is that exactly these algorithms run on compressed
// graphs as-is, so the same functions are used on G and on Gr throughout the
// test suite and benchmarks.
//
// Every primitive is templated over the GraphView concept, so it runs
// unchanged on the dynamic Graph and on frozen CsrGraph snapshots (and on
// ReversedView adapters). Non-template `const Graph&` overloads are kept so
// existing call sites compile the code once via the qpgc library.
//
// Path semantics: the paper defines reachability via paths, and its
// equivalence relation only works under *non-empty* paths (len >= 1); see
// DESIGN.md §2. `PathMode` makes the choice explicit.

#ifndef QPGC_GRAPH_TRAVERSAL_H_
#define QPGC_GRAPH_TRAVERSAL_H_

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_view.h"
#include "util/bitset.h"
#include "util/common.h"

namespace qpgc {

/// Reachability path semantics.
enum class PathMode {
  /// v reaches w iff there is a path of length >= 0 (v reaches itself).
  kReflexive,
  /// v reaches w iff there is a path of length >= 1. QR(v, v) is true only
  /// if v lies on a cycle.
  kNonEmpty,
};

/// Traversal direction: follow out-edges or in-edges.
enum class Direction { kForward, kBackward };

/// Distance value for unreachable nodes.
inline constexpr uint32_t kUnreachedDist = UINT32_MAX;
/// "No bound" value for bounded traversals.
inline constexpr uint32_t kUnboundedDepth = UINT32_MAX;

namespace traversal_detail {

template <GraphView G>
inline std::span<const NodeId> Neighbors(const G& g, NodeId u, Direction dir) {
  return dir == Direction::kForward ? g.OutNeighbors(u) : g.InNeighbors(u);
}

}  // namespace traversal_detail

/// Single-source BFS distances (reflexive: dist[source] = 0). Unreached
/// nodes get kUnreachedDist.
template <GraphView G>
std::vector<uint32_t> BfsDistances(const G& g, NodeId source,
                                   Direction dir = Direction::kForward) {
  std::vector<uint32_t> dist(g.num_nodes(), kUnreachedDist);
  std::deque<NodeId> queue;
  dist[source] = 0;
  queue.push_back(source);
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (NodeId v : traversal_detail::Neighbors(g, u, dir)) {
      if (dist[v] == kUnreachedDist) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

/// True iff u reaches v under the given path semantics (plain BFS — the
/// paper's baseline evaluation algorithm).
template <GraphView G>
bool BfsReaches(const G& g, NodeId u, NodeId v,
                PathMode mode = PathMode::kReflexive) {
  if (mode == PathMode::kReflexive && u == v) return true;
  // Non-empty semantics: start the search from u's successors.
  std::vector<uint8_t> visited(g.num_nodes(), 0);
  std::deque<NodeId> queue;
  for (NodeId w : g.OutNeighbors(u)) {
    if (w == v) return true;
    if (!visited[w]) {
      visited[w] = 1;
      queue.push_back(w);
    }
  }
  while (!queue.empty()) {
    const NodeId x = queue.front();
    queue.pop_front();
    for (NodeId w : g.OutNeighbors(x)) {
      if (w == v) return true;
      if (!visited[w]) {
        visited[w] = 1;
        queue.push_back(w);
      }
    }
  }
  return false;
}

/// True iff u reaches v, by bidirectional BFS (the paper's BIBFS).
template <GraphView G>
bool BidirectionalReaches(const G& g, NodeId u, NodeId v,
                          PathMode mode = PathMode::kReflexive) {
  if (mode == PathMode::kReflexive && u == v) return true;
  // Two frontiers expanded alternately, smaller first. Mark sets: 1 = reached
  // forward from u (via >= 1 edge), 2 = reached backward from v (via >= 1
  // edge). Intersection, or a direct hit of v / u, means u reaches v.
  std::vector<uint8_t> mark(g.num_nodes(), 0);
  std::deque<NodeId> fwd, bwd;
  for (NodeId w : g.OutNeighbors(u)) {
    if (w == v) return true;
    if (mark[w] != 1) {
      mark[w] = 1;
      fwd.push_back(w);
    }
  }
  for (NodeId w : g.InNeighbors(v)) {
    if (w == u) return true;
    if (mark[w] == 1) return true;
    if (mark[w] != 2) {
      mark[w] = 2;
      bwd.push_back(w);
    }
  }
  while (!fwd.empty() && !bwd.empty()) {
    if (fwd.size() <= bwd.size()) {
      const size_t level = fwd.size();
      for (size_t i = 0; i < level; ++i) {
        const NodeId x = fwd.front();
        fwd.pop_front();
        for (NodeId w : g.OutNeighbors(x)) {
          if (w == v || mark[w] == 2) return true;
          if (mark[w] != 1) {
            mark[w] = 1;
            fwd.push_back(w);
          }
        }
      }
    } else {
      const size_t level = bwd.size();
      for (size_t i = 0; i < level; ++i) {
        const NodeId x = bwd.front();
        bwd.pop_front();
        for (NodeId w : g.InNeighbors(x)) {
          if (w == u || mark[w] == 1) return true;
          if (mark[w] != 2) {
            mark[w] = 2;
            bwd.push_back(w);
          }
        }
      }
    }
  }
  return false;
}

/// True iff u reaches v, by iterative DFS (a third stock algorithm; used in
/// tests to demonstrate algorithm-independence of the compression).
template <GraphView G>
bool DfsReaches(const G& g, NodeId u, NodeId v,
                PathMode mode = PathMode::kReflexive) {
  if (mode == PathMode::kReflexive && u == v) return true;
  std::vector<uint8_t> visited(g.num_nodes(), 0);
  std::vector<NodeId> stack;
  for (NodeId w : g.OutNeighbors(u)) {
    if (w == v) return true;
    if (!visited[w]) {
      visited[w] = 1;
      stack.push_back(w);
    }
  }
  while (!stack.empty()) {
    const NodeId x = stack.back();
    stack.pop_back();
    for (NodeId w : g.OutNeighbors(x)) {
      if (w == v) return true;
      if (!visited[w]) {
        visited[w] = 1;
        stack.push_back(w);
      }
    }
  }
  return false;
}

/// Marks every node x that has a *non-empty* path to some node in `sources`
/// (Direction::kBackward) — or from some source (kForward) — of length at
/// most `max_depth`. Sources are marked only if they lie on a suitable
/// non-empty path (e.g. a cycle through another source).
///
/// The bounded-simulation matcher's sweep: one multi-source sweep decides
/// "exists v' in S(u') with dist(v, v') <= k" for all v. The matcher uses it
/// for '*' bounds, bounds >= |V|, and prunes whose per-candidate pull runs
/// out of budget (pattern/match.h).
template <GraphView G>
Bitset BoundedMultiSourceReach(const G& g, std::span<const NodeId> sources,
                               uint32_t max_depth, Direction dir) {
  Bitset reached(g.num_nodes());
  if (max_depth == 0) return reached;
  const Direction step =
      dir == Direction::kBackward ? Direction::kBackward : Direction::kForward;
  std::vector<uint8_t> in_frontier(g.num_nodes(), 0);
  std::vector<NodeId> frontier;
  frontier.reserve(sources.size());
  // Depth-0 layer: the sources themselves (not marked as reached — paths must
  // be non-empty).
  for (NodeId s : sources) {
    if (!in_frontier[s]) {
      in_frontier[s] = 1;
      frontier.push_back(s);
    }
  }
  std::vector<NodeId> next;
  for (uint32_t depth = 1; depth <= max_depth && !frontier.empty(); ++depth) {
    next.clear();
    for (NodeId x : frontier) {
      for (NodeId w : traversal_detail::Neighbors(g, x, step)) {
        if (!reached.Test(w)) {
          reached.Set(w);
          next.push_back(w);
        }
      }
    }
    frontier.swap(next);
    if (max_depth == kUnboundedDepth && frontier.empty()) break;
  }
  return reached;
}

/// All nodes with a non-empty path from u (u's descendants), as a bitset.
template <GraphView G>
Bitset Descendants(const G& g, NodeId u) {
  const NodeId src[] = {u};
  return BoundedMultiSourceReach(g, std::span<const NodeId>(src),
                                 kUnboundedDepth, Direction::kForward);
}

/// All nodes with a non-empty path to u (u's ancestors), as a bitset.
template <GraphView G>
Bitset Ancestors(const G& g, NodeId u) {
  const NodeId src[] = {u};
  return BoundedMultiSourceReach(g, std::span<const NodeId>(src),
                                 kUnboundedDepth, Direction::kBackward);
}

/// True iff node u lies on a cycle (including a self-loop).
template <GraphView G>
bool OnCycle(const G& g, NodeId u) {
  return BfsReaches(g, u, u, PathMode::kNonEmpty);
}

// Non-template overloads for the dynamic Graph (preferred by overload
// resolution; compiled once in traversal.cc).
std::vector<uint32_t> BfsDistances(const Graph& g, NodeId source,
                                   Direction dir = Direction::kForward);
bool BfsReaches(const Graph& g, NodeId u, NodeId v,
                PathMode mode = PathMode::kReflexive);
bool BidirectionalReaches(const Graph& g, NodeId u, NodeId v,
                          PathMode mode = PathMode::kReflexive);
bool DfsReaches(const Graph& g, NodeId u, NodeId v,
                PathMode mode = PathMode::kReflexive);
Bitset BoundedMultiSourceReach(const Graph& g, std::span<const NodeId> sources,
                               uint32_t max_depth, Direction dir);
Bitset Descendants(const Graph& g, NodeId u);
Bitset Ancestors(const Graph& g, NodeId u);
bool OnCycle(const Graph& g, NodeId u);

}  // namespace qpgc

#endif  // QPGC_GRAPH_TRAVERSAL_H_
