// Copyright 2026 The QPGC Authors.
//
// k-bisimulation, in both orientations:
//  * forward (out-edges): k rounds of the successor-signature refinement —
//    the truncation of the maximum bisimulation compressB uses. It is
//    KBisimulation in bisim/paige_tarjan.h: bounded splitter rounds on the
//    Paige–Tarjan engine's segment machinery;
//  * backward (in-edges): the equivalence underlying the 1-index of Milo &
//    Suciu [19] and the A(k)-index of Kaushik et al. [15], which group
//    nodes by incoming label paths (those indexes serve rooted path
//    queries).
//
// The backward orientation is computed in-edge-driven: forward refinement
// over a ReversedView of the input, whose OutNeighbors *are* the view's
// InNeighbors — no copy, no whole-graph Reverse() per call. The historical
// copy+Reverse implementation survives as a test oracle in
// tests/graph_view_test.cc.
//
// The paper uses A(k) as a *negative* baseline: Section 4.1's Fig. 6 shows
// a graph whose A(1) index graph returns every B node for the pattern
// {(B,C), (B,D)} although only two match; reproduced in
// tests/kbisim_counterexample_test.cc.

#ifndef QPGC_BISIM_KBISIM_H_
#define QPGC_BISIM_KBISIM_H_

#include "bisim/paige_tarjan.h"
#include "bisim/partition.h"
#include "graph/builder.h"
#include "graph/graph.h"
#include "graph/graph_view.h"

namespace qpgc {

/// Backward k-bisimulation partition (equal incoming structure up to depth
/// k), the A(k)-index equivalence. In-edge-driven: forward refinement over
/// the reversed view, so each round walks the view's InNeighbors directly.
template <GraphView G>
Partition KBisimulationBackward(const G& g, size_t k) {
  return KBisimulation(ReversedView<G>(g), k);
}

/// Quotient of g by an arbitrary partition, keeping labels (index-graph
/// construction helper).
template <GraphView G>
Graph QuotientGraph(const G& g, const Partition& p) {
  GraphBuilder builder(p.num_blocks);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    builder.SetLabel(p.block_of[v], g.label(v));
  }
  ForEachEdge(g, [&](NodeId u, NodeId v) {
    builder.AddEdge(p.block_of[u], p.block_of[v]);
  });
  return builder.Build();
}

// Non-template Graph overloads (compiled once in kbisim.cc).
Partition KBisimulationBackward(const Graph& g, size_t k);
Graph QuotientGraph(const Graph& g, const Partition& p);

/// The A(k)-index graph: quotient of g by *backward* k-bisimulation, keeping
/// labels. For comparison only — not query preserving for graph patterns.
/// Batch entry point: freezes a CSR snapshot once and runs the refinement
/// and quotient construction on the flat layout.
Graph AkIndexGraph(const Graph& g, size_t k);

}  // namespace qpgc

#endif  // QPGC_BISIM_KBISIM_H_
