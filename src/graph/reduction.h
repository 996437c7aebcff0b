// Copyright 2026 The QPGC Authors.
//
// Transitive reduction (TR) of a DAG. compressR (Section 3.2, lines 6-8)
// inserts no edge whose endpoints are already connected — i.e. it emits a
// minimal equivalent graph. On a DAG the minimal equivalent graph is
// *unique* (the transitive reduction of Aho, Garey & Ullman), so the
// incremental algorithm's output compares edge-for-edge with the batch one.
// It is also the input of the reachability equivalence (reach/equivalence.h).
//
// One kernel sweeps the DAG children-first, one column block of targets at
// a time: each node ORs its children's rows, keeps child c iff c is not in
// that union, then sets its children's bits. O(|E| * |V| / 64) word
// operations in O(|V| * block_cols / 8) bytes, with no per-sibling test.

#ifndef QPGC_GRAPH_REDUCTION_H_
#define QPGC_GRAPH_REDUCTION_H_

#include <cstddef>

#include "graph/csr.h"
#include "graph/graph.h"

namespace qpgc {

/// Default column-block width of the sweep (256 bytes per row): the fastest
/// of widths 256-8192 on DAGs of 7k-80k nodes.
inline constexpr size_t kReduceBlockCols = 2048;

/// The unique TR of `dag` as a frozen graph: OutNeighbors(u) are u's TR
/// children and InNeighbors(u) its TR parents. Self-loops are never TR
/// edges; any other cycle aborts. Labels are copied.
CsrGraph ReduceDag(const CsrGraph& dag, size_t block_cols = kReduceBlockCols);

/// ReduceDag as a dynamic Graph that keeps `dag`'s self-loops: on compressed
/// class graphs they encode non-empty self-reachability of cyclic classes.
Graph TransitiveReductionDag(const CsrGraph& dag,
                             size_t block_cols = kReduceBlockCols);

}  // namespace qpgc

#endif  // QPGC_GRAPH_REDUCTION_H_
