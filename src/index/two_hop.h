// Copyright 2026 The QPGC Authors.
//
// 2-hop reachability labeling (Cohen, Halperin, Kaplan & Zwick, SICOMP
// 2003), the index of the paper's Fig. 12(d) memory experiment. Every node
// gets two landmark lists Lout(v) (landmarks v reaches) and Lin(v)
// (landmarks reaching v); QR(u, w) holds iff the lists intersect (or one
// endpoint covers the other).
//
// Construction uses pruned landmark labeling (processing nodes in
// descending degree order and pruning BFS subtrees already covered by
// earlier landmarks) on the SCC condensation — exact, and a practical
// stand-in for the original biquadratic greedy set-cover construction.
//
// The paper's point, which tests/two_hop_test.cc and the bench reproduce:
// the index applies *unchanged* to compressed graphs, and building it on Gr
// costs a fraction of building it on G.

#ifndef QPGC_INDEX_TWO_HOP_H_
#define QPGC_INDEX_TWO_HOP_H_

#include <cstddef>
#include <vector>

#include "graph/condensation.h"
#include "graph/graph_view.h"
#include "graph/traversal.h"

namespace qpgc {

/// A 2-hop reachability index over a fixed graph.
class TwoHopIndex {
 public:
  /// Builds the index for g (a graph, or a compressed graph Gr).
  template <GraphView G>
  static TwoHopIndex Build(const G& g) {
    return FromCondensation(BuildCondensation(g));
  }

  /// Answers QR(u, v) from labels only (no graph traversal).
  bool Reaches(NodeId u, NodeId v, PathMode mode = PathMode::kReflexive) const;

  /// Total number of label entries (the classical 2-hop size measure).
  size_t LabelEntries() const;

  /// Heap bytes of the index (Fig. 12(d)).
  size_t MemoryBytes() const;

 private:
  TwoHopIndex() = default;

  static TwoHopIndex FromCondensation(const Condensation& cond);

  // Label query on condensation nodes: cu reaches cw via some shared
  // landmark (reflexive over DAG nodes).
  bool DagReaches(NodeId cu, NodeId cw) const;

  std::vector<NodeId> comp_;            // node -> condensation node
  std::vector<uint8_t> cyclic_;         // condensation node -> cyclic
  std::vector<std::vector<NodeId>> out_labels_;  // DAG node -> landmarks
  std::vector<std::vector<NodeId>> in_labels_;
};

}  // namespace qpgc

#endif  // QPGC_INDEX_TWO_HOP_H_
