// Copyright 2026 The QPGC Authors.
//
// Immutable CSR (compressed sparse row) view of a graph. The dynamic Graph
// is the mutable source of truth (the incremental algorithms need cheap
// single-edge updates); the batch/serving layer wants the flat layout: one
// contiguous offsets array plus one contiguous targets array per direction,
// ~40% the memory of vector-of-vectors and materially faster to sweep.
// Freeze once, then run the whole batch pipeline (and query serving) on it.
//
// CsrGraph models the GraphView concept (graph/graph_view.h); every batch
// algorithm is templated over the concept, so Graph and CsrGraph run the
// identical code paths (differentially tested in tests/graph_view_test.cc).

#ifndef QPGC_GRAPH_CSR_H_
#define QPGC_GRAPH_CSR_H_

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/graph_view.h"
#include "graph/label_index.h"
#include "util/common.h"
#include "util/lifetime_annotations.h"

namespace qpgc {

/// Immutable CSR snapshot of a Graph (both directions, labels copied).
/// GSL Owner: neighbor spans point into the flat arrays this object owns —
/// valid until it is destroyed or reassigned (docs/LIFETIMES.md; the
/// serving layer keeps them valid by pinning the snapshot that owns the
/// enclosing frozen side). The one state added after construction is the
/// lazily built label index (label_index()); a copy starts without one.
class QPGC_GSL_OWNER CsrGraph {
 public:
  /// An empty snapshot (0 nodes).
  CsrGraph();

  /// Freezes a snapshot of g.
  explicit CsrGraph(const Graph& g);

  /// Re-freezes this snapshot from the subgraph of g induced by the nodes
  /// with remap[v] != kInvalidNode, renumbered through remap (which must be
  /// strictly increasing over the kept nodes, so sorted adjacency stays
  /// sorted) onto [0, new_n). Edges with a dropped endpoint are dropped;
  /// when `dropped_out_edges` is non-null, every out-edge from a kept node
  /// to a dropped one is appended to it as (new source id, ORIGINAL target
  /// id) — collected in the same traversal so callers that need them (the
  /// frozen pattern side's ghost-directed cross edges, serve/snapshot.h)
  /// do not pay a second sweep. Drops the label index. Instantiated for
  /// Graph (a shard's graph) and CsrGraph (a maintained quotient) in
  /// csr.cc.
  template <GraphView G>
  void RefreezeMapped(
      const G& g, const std::vector<NodeId>& remap, size_t new_n,
      std::vector<std::pair<NodeId, NodeId>>* dropped_out_edges = nullptr);

  /// Adopts externally assembled out-direction CSR arrays (every per-node
  /// run sorted ascending and deduplicated; offsets has num_nodes + 1
  /// entries with offsets[0] == 0) plus labels, and derives the
  /// in-direction in one counting pass. This is the freeze path for code
  /// that already produces flat sorted adjacency — the router's stitched
  /// quotient assembler (serve/router.cc) — and skips the dynamic-Graph
  /// round trip of the Graph constructor. Like RefreezeMapped, drops the
  /// label index.
  void AdoptCsr(std::vector<uint64_t> out_offsets,
                std::vector<NodeId> out_targets, std::vector<Label> labels);

  size_t num_nodes() const { return out_offsets_.size() - 1; }
  size_t num_edges() const { return out_targets_.size(); }
  /// Graph size |G| = |V| + |E| (the paper's measure).
  size_t size() const { return num_nodes() + num_edges(); }

  std::span<const NodeId> OutNeighbors(NodeId u) const QPGC_LIFETIME_BOUND {
    QPGC_DCHECK(u + 1 < out_offsets_.size());
    return {out_targets_.data() + out_offsets_[u],
            out_targets_.data() + out_offsets_[u + 1]};
  }
  std::span<const NodeId> InNeighbors(NodeId u) const QPGC_LIFETIME_BOUND {
    QPGC_DCHECK(u + 1 < in_offsets_.size());
    return {in_targets_.data() + in_offsets_[u],
            in_targets_.data() + in_offsets_[u + 1]};
  }

  size_t OutDegree(NodeId u) const {
    return out_offsets_[u + 1] - out_offsets_[u];
  }
  size_t InDegree(NodeId u) const {
    return in_offsets_[u + 1] - in_offsets_[u];
  }

  /// True iff edge (u, v) exists — binary search on the sorted target run.
  bool HasEdge(NodeId u, NodeId v) const { return ViewHasEdge(*this, u, v); }

  Label label(NodeId u) const { return labels_[u]; }
  const std::vector<Label>& labels() const QPGC_LIFETIME_BOUND {
    return labels_;
  }

  /// The node ids grouped by label (graph/label_index.h), which Match
  /// copies its candidate sets from. Built on the first call and installed
  /// by one atomic pointer exchange, so any number of threads may call it
  /// at once, and a graph that is never matched allocates nothing. The
  /// reference is valid while this graph lives; AdoptCsr, RefreezeMapped
  /// and assignment drop the index, like the arrays it describes.
  const LabelIndex& label_index() const QPGC_LIFETIME_BOUND;

  /// Dense in-edge interface (graph/graph_view.h's DenseInEdgeView): the
  /// id of u's first in-edge, and the flat source array all in-edge ids
  /// index into.
  size_t InEdgeBegin(NodeId u) const { return in_offsets_[u]; }
  std::span<const NodeId> InEdgeSources() const QPGC_LIFETIME_BOUND {
    return in_targets_;
  }

  /// The raw CSR arrays (both directions), for serialization
  /// (storage/snapshot_io.h). Offsets have num_nodes() + 1 entries.
  std::span<const uint64_t> out_offsets() const QPGC_LIFETIME_BOUND {
    return out_offsets_;
  }
  std::span<const NodeId> out_targets() const QPGC_LIFETIME_BOUND {
    return out_targets_;
  }
  std::span<const uint64_t> in_offsets() const QPGC_LIFETIME_BOUND {
    return in_offsets_;
  }
  std::span<const NodeId> in_targets() const QPGC_LIFETIME_BOUND {
    return in_targets_;
  }

  /// Number of distinct labels present (kNoLabel counts as one value if any
  /// node is unlabeled).
  size_t CountDistinctLabels() const;

  /// Calls fn(u, v) for every edge, in (u ascending, v ascending) order.
  template <typename Fn>
  void ForEachEdge(Fn&& fn) const {
    qpgc::ForEachEdge(*this, std::forward<Fn>(fn));
  }

  /// All edges as a vector of pairs (u, v), sorted.
  std::vector<std::pair<NodeId, NodeId>> EdgeList() const;

  /// Structural equality: same node count, labels, and edge set (the
  /// in-direction is derived from the out-direction).
  bool operator==(const CsrGraph& other) const {
    return labels_ == other.labels_ && out_offsets_ == other.out_offsets_ &&
           out_targets_ == other.out_targets_;
  }

  /// Heap bytes of the snapshot (contrast with Graph::MemoryBytes()), the
  /// label index included once built.
  size_t MemoryBytes() const;

 private:
  std::vector<uint64_t> out_offsets_;  // n + 1 entries
  std::vector<NodeId> out_targets_;
  std::vector<uint64_t> in_offsets_;
  std::vector<NodeId> in_targets_;
  std::vector<Label> labels_;
  LabelIndexSlot label_index_;
};

static_assert(GraphView<Graph>);
static_assert(GraphView<CsrGraph>);
static_assert(GraphView<ReversedView<CsrGraph>>);
static_assert(DenseInEdgeView<CsrGraph>);
static_assert(!DenseInEdgeView<Graph>);  // vector-of-vectors has no flat array
static_assert(LabelIndexedView<CsrGraph>);
static_assert(!LabelIndexedView<Graph>);  // mutable labels: Match scans

}  // namespace qpgc

#endif  // QPGC_GRAPH_CSR_H_
