// Copyright 2026 The QPGC Authors.
//
// The GraphView concept: the read-only adjacency interface every batch
// algorithm is written against. The paper's batch pipeline (compressR,
// maximum-bisimulation compression, the Match fixpoint) never mutates the
// graph — it sweeps adjacency. Abstracting the sweeps behind a concept
// splits the system into
//
//   * a mutable source of truth (`Graph`, vector-of-vectors, O(d) edge
//     updates) that the incremental algorithms of Section 5 keep current,
//   * frozen serving snapshots (`CsrGraph`, flat offset/target arrays,
//     ~40% of the memory and far better sweep locality) that the batch
//     entry points freeze once and run the whole pipeline on.
//
// Any type exposing the seven members below participates — `Graph`,
// `CsrGraph` and the zero-copy `ReversedView` adapter all do; future
// substrates (e.g. an mmap-backed snapshot) slot in without touching the
// algorithms. Adjacency runs are required to be sorted ascending (every
// built-in view guarantees it), which the algorithms exploit for
// binary-search edge tests.
//
// Thread-safety contract: the concept is read-only — algorithms templated
// over it never mutate the view, so any number of threads may run batch
// algorithms over one view concurrently, PROVIDED no writer mutates the
// underlying representation meanwhile. The serving layer gets this for
// free by freezing immutable CsrGraph snapshots (serve/snapshot.h); running
// directly on a mutable Graph concurrently with its single writer is a
// race and is never done by the serving read path.

#ifndef QPGC_GRAPH_GRAPH_VIEW_H_
#define QPGC_GRAPH_GRAPH_VIEW_H_

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <span>
#include <unordered_set>

#include "util/common.h"
#include "util/lifetime_annotations.h"

namespace qpgc {

/// The read-only graph interface of the batch layer. `OutNeighbors` /
/// `InNeighbors` return sorted runs viewable as std::span<const NodeId>.
template <typename G>
concept GraphView = requires(const G& g, NodeId u) {
  { g.num_nodes() } -> std::convertible_to<size_t>;
  { g.num_edges() } -> std::convertible_to<size_t>;
  { g.OutNeighbors(u) } -> std::convertible_to<std::span<const NodeId>>;
  { g.InNeighbors(u) } -> std::convertible_to<std::span<const NodeId>>;
  { g.OutDegree(u) } -> std::convertible_to<size_t>;
  { g.InDegree(u) } -> std::convertible_to<size_t>;
  { g.label(u) } -> std::convertible_to<Label>;
};

/// Optional extension of GraphView: a view whose in-adjacency is ONE flat
/// dense array of source ids with per-node runs at stable positions —
/// InEdgeSources()[InEdgeBegin(u) + i] is the source of u's i-th in-edge,
/// and [InEdgeBegin(u), InEdgeBegin(u) + InDegree(u)) is a dense edge-id
/// range. Algorithms that would otherwise build their own edge-id CSR copy
/// (the Paige–Tarjan engine's count records, bisim/paige_tarjan.h) borrow
/// the view's arrays instead, dropping an O(|V| + |E|) copy on CsrGraph and
/// the mmap substrate (storage/mmap_snapshot.h).
template <typename G>
concept DenseInEdgeView = GraphView<G> && requires(const G& g, NodeId u) {
  { g.InEdgeBegin(u) } -> std::convertible_to<size_t>;
  { g.InEdgeSources() } -> std::convertible_to<std::span<const NodeId>>;
};

/// |G| = |V| + |E|, the paper's size measure, for any view.
template <GraphView G>
size_t ViewSize(const G& g) {
  return g.num_nodes() + g.num_edges();
}

/// Calls fn(u, v) for every edge, in (u ascending, v ascending) order —
/// the generic counterpart of Graph::ForEachEdge.
template <GraphView G, typename Fn>
void ForEachEdge(const G& g, Fn&& fn) {
  const size_t n = g.num_nodes();
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : g.OutNeighbors(u)) fn(u, static_cast<NodeId>(v));
  }
}

/// Edge test by binary search on the sorted out-run. O(log d).
template <GraphView G>
bool ViewHasEdge(const G& g, NodeId u, NodeId v) {
  const auto run = g.OutNeighbors(u);
  return std::binary_search(run.begin(), run.end(), v);
}

/// Number of distinct labels on a view's nodes (kNoLabel counts as one
/// value if any node is unlabeled).
template <GraphView G>
size_t CountDistinctLabels(const G& g) {
  std::unordered_set<Label> seen;
  seen.reserve(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) seen.insert(g.label(v));
  return seen.size();
}

/// Zero-copy reversed adapter: OutNeighbors(u) is the base view's
/// InNeighbors(u) and vice versa. Running a forward algorithm on
/// ReversedView(g) computes its in-edge-driven dual without copying or
/// reversing the graph — backward k-bisimulation (the A(k)-index
/// equivalence) is exactly forward refinement over this view.
///
/// GSL Pointer: a non-owning view over `g`, which must outlive it —
/// constructing one over a temporary graph is a compile error under Clang
/// (docs/LIFETIMES.md).
template <GraphView G>
class QPGC_GSL_POINTER ReversedView {
 public:
  explicit ReversedView(const G& g QPGC_LIFETIME_BOUND) : g_(&g) {}

  size_t num_nodes() const { return g_->num_nodes(); }
  size_t num_edges() const { return g_->num_edges(); }
  std::span<const NodeId> OutNeighbors(NodeId u) const {
    return g_->InNeighbors(u);
  }
  std::span<const NodeId> InNeighbors(NodeId u) const {
    return g_->OutNeighbors(u);
  }
  size_t OutDegree(NodeId u) const { return g_->InDegree(u); }
  size_t InDegree(NodeId u) const { return g_->OutDegree(u); }
  Label label(NodeId u) const { return g_->label(u); }

 private:
  const G* g_;
};

}  // namespace qpgc

#endif  // QPGC_GRAPH_GRAPH_VIEW_H_
