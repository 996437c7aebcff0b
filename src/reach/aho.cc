// Copyright 2026 The QPGC Authors.

#include "reach/aho.h"

#include "graph/builder.h"
#include "graph/condensation.h"
#include "graph/reduction.h"

namespace qpgc {

Graph AhoTransitiveReduction(const Graph& g) {
  const Condensation cond = BuildCondensation(g);
  const CsrGraph reduced_dag = ReduceDag(cond.dag);

  GraphBuilder builder(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) builder.SetLabel(u, g.label(u));

  // Each SCC becomes a simple cycle through its members (sorted order); a
  // singleton keeps its self-loop if cyclic.
  for (size_t c = 0; c < cond.scc.num_components; ++c) {
    const auto& m = cond.scc.members[c];
    if (m.size() > 1) {
      for (size_t i = 0; i < m.size(); ++i) {
        builder.AddEdge(m[i], m[(i + 1) % m.size()]);
      }
    } else if (cond.scc.cyclic[c]) {
      builder.AddEdge(m[0], m[0]);
    }
  }

  // One representative edge per reduced condensation edge.
  reduced_dag.ForEachEdge([&](NodeId cu, NodeId cv) {
    builder.AddEdge(cond.scc.members[cu][0], cond.scc.members[cv][0]);
  });
  return builder.Build();
}

}  // namespace qpgc
