// Copyright 2026 The QPGC Authors.
//
// Transitive closure by one BFS per node, materializing the whole V x V
// closure as a bit matrix: the paper's O(|V|(|V| + |E|)) reference procedure
// (Section 3.2 computes Re exactly this way). Used on small graphs and as
// the ground truth in property tests; the production path reads reachability
// off a transitive reduction instead (graph/reduction.h).

#ifndef QPGC_GRAPH_CLOSURE_H_
#define QPGC_GRAPH_CLOSURE_H_

#include "graph/graph.h"
#include "graph/graph_view.h"
#include "graph/traversal.h"
#include "util/bitset.h"

namespace qpgc {

/// Full non-empty-path closure of g: row u has bit v iff u reaches v via a
/// path of length >= 1. O(|V|(|V| + |E|)) time, |V|^2/8 bytes. Instantiated
/// for Graph and CsrGraph in closure.cc.
template <GraphView G>
BitMatrix FullClosure(const G& g, Direction dir = Direction::kForward);

}  // namespace qpgc

#endif  // QPGC_GRAPH_CLOSURE_H_
