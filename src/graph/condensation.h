// Copyright 2026 The QPGC Authors.
//
// The SCC graph Gscc of Section 5: each strongly connected component becomes
// a single node; edges are deduplicated; intra-SCC edges (including
// self-loops) are dropped, so the condensation is a simple DAG. Whether a
// component was cyclic is retained in `scc.cyclic` — the compression
// algorithms need it to preserve non-empty-path self-reachability.
//
// The condensation DAG is built straight into a frozen CsrGraph
// (graph/builder.h's CsrBuilder): the transitive-reduction sweep and the
// quotient construction downstream only read it. Only the input is
// representation-generic.

#ifndef QPGC_GRAPH_CONDENSATION_H_
#define QPGC_GRAPH_CONDENSATION_H_

#include "graph/builder.h"
#include "graph/csr.h"
#include "graph/graph.h"
#include "graph/graph_view.h"
#include "graph/scc.h"

namespace qpgc {

/// SCC condensation: a simple DAG plus the SCC mapping.
struct Condensation {
  /// DAG over SCC ids (node c of `dag` is SCC c of `scc`). No self-loops.
  CsrGraph dag;
  /// The SCC decomposition (component map, members, cyclic flags).
  SccResult scc;
};

/// Builds the condensation of g. O(|V| + |E|), plus a sort of each DAG
/// node's out-run.
template <GraphView G>
Condensation BuildCondensation(const G& g) {
  Condensation result;
  result.scc = ComputeScc(g);

  CsrBuilder builder(result.scc.num_components);
  ForEachEdge(g, [&](NodeId u, NodeId v) {
    const NodeId cu = result.scc.component[u];
    const NodeId cv = result.scc.component[v];
    if (cu != cv) builder.AddEdge(cu, cv);
  });
  result.dag = builder.Build();
  return result;
}

/// Non-template Graph overload (compiled once in condensation.cc).
Condensation BuildCondensation(const Graph& g);

}  // namespace qpgc

#endif  // QPGC_GRAPH_CONDENSATION_H_
