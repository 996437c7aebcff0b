// Copyright 2026 The QPGC Authors.
//
// Bulk construction of graphs from edge streams. GraphBuilder accumulates
// edges, then sorts and deduplicates once — much faster than repeated
// Graph::AddEdge for the generators and loaders (O(E log E) total instead of
// O(E * d)). CsrBuilder builds a frozen CsrGraph directly, with no Graph in
// between: every derived graph of the compression pipeline (condensation,
// quotients, hybrid graphs) is born in the flat layout it is swept and
// served in.

#ifndef QPGC_GRAPH_BUILDER_H_
#define QPGC_GRAPH_BUILDER_H_

#include <utility>
#include <vector>

#include "graph/csr.h"
#include "graph/graph.h"
#include "util/common.h"

namespace qpgc {

/// Accumulates nodes/edges and produces a Graph in one shot.
class GraphBuilder {
 public:
  GraphBuilder() = default;

  /// Pre-declares `n` nodes with kNoLabel.
  explicit GraphBuilder(size_t n) : labels_(n, kNoLabel) {}

  /// Adds a node, returns its id.
  NodeId AddNode(Label label = kNoLabel) {
    labels_.push_back(label);
    return static_cast<NodeId>(labels_.size() - 1);
  }

  /// Sets the label of an existing node.
  void SetLabel(NodeId u, Label l) {
    QPGC_CHECK(u < labels_.size());
    labels_[u] = l;
  }

  /// Queues edge (u, v); duplicates are removed at Build time. Node ids must
  /// already exist (use AddNode or the sizing constructor).
  void AddEdge(NodeId u, NodeId v) {
    QPGC_CHECK(u < labels_.size() && v < labels_.size());
    edges_.emplace_back(u, v);
  }

  /// Queues an edge, growing the node set as needed (for edge-list loading).
  void AddEdgeAutoGrow(NodeId u, NodeId v) {
    const NodeId needed = std::max(u, v);
    if (needed >= labels_.size()) labels_.resize(needed + 1, kNoLabel);
    edges_.emplace_back(u, v);
  }

  size_t num_nodes() const { return labels_.size(); }
  size_t num_queued_edges() const { return edges_.size(); }

  /// Produces the graph. The builder is left empty.
  Graph Build();

 private:
  std::vector<Label> labels_;
  std::vector<std::pair<NodeId, NodeId>> edges_;
};

/// Accumulates edges over a fixed node set and produces a CsrGraph in one
/// shot: queued edges are counting-sorted by source, each run is sorted and
/// deduplicated in place, and the in-direction is derived by
/// CsrGraph::AdoptCsr's counting pass. O(|V| + |E| + sum of d log d) for
/// out-degrees d, with no global pair sort. Every array is sized exactly, so
/// the result's MemoryBytes() equals that of a CsrGraph(const Graph&) freeze
/// of the same edges. Self-loops are kept.
class CsrBuilder {
 public:
  /// `n` nodes, all labeled kNoLabel.
  explicit CsrBuilder(size_t n)
      : CsrBuilder(std::vector<Label>(n, kNoLabel)) {}

  /// One node per label.
  explicit CsrBuilder(std::vector<Label> labels)
      : labels_(std::move(labels)), offsets_(labels_.size() + 1, 0) {}

  /// Queues edge (u, v); duplicates are removed at Build time.
  void AddEdge(NodeId u, NodeId v) {
    QPGC_CHECK(u < labels_.size() && v < labels_.size());
    ++offsets_[u + 1];
    edges_.emplace_back(u, v);
  }

  /// Produces the graph. The builder is consumed: call Build once.
  CsrGraph Build();

 private:
  std::vector<Label> labels_;
  // offsets_[u + 1] counts u's queued edges until Build prefix-sums them.
  std::vector<uint64_t> offsets_;
  std::vector<std::pair<NodeId, NodeId>> edges_;
};

}  // namespace qpgc

#endif  // QPGC_GRAPH_BUILDER_H_
