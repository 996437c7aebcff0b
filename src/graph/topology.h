// Copyright 2026 The QPGC Authors.
//
// Topological orders and the topological rank r(s) of Section 5.1 that the
// paper's incremental reach algorithm is built on: r(s) = 0 if s's SCC has
// no child in the condensation; nodes of one SCC share a rank; otherwise
// r(s) = max over children + 1. Lemma 7: (u,v) in Re implies r(u) = r(v).
//
// All entry points are GraphView templates (run on Graph or frozen CSR);
// Graph overloads are compiled once in topology.cc.

#ifndef QPGC_GRAPH_TOPOLOGY_H_
#define QPGC_GRAPH_TOPOLOGY_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/condensation.h"
#include "graph/graph.h"
#include "graph/graph_view.h"

namespace qpgc {

/// Topological order of a DAG (every edge goes from an earlier to a later
/// position). Aborts if the graph has a cycle — callers pass condensations.
template <GraphView G>
std::vector<NodeId> TopologicalOrder(const G& dag) {
  const size_t n = dag.num_nodes();
  std::vector<uint32_t> in_degree(n, 0);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : dag.OutNeighbors(u)) {
      // Self-loops are permitted (compressed class graphs mark cyclic classes
      // with one) and ignored for ordering purposes; real multi-node cycles
      // are caught by the size check below.
      if (v != u) ++in_degree[v];
    }
  }
  std::vector<NodeId> order;
  order.reserve(n);
  for (NodeId u = 0; u < n; ++u) {
    if (in_degree[u] == 0) order.push_back(u);
  }
  for (size_t i = 0; i < order.size(); ++i) {
    const NodeId u = order[i];
    for (NodeId v : dag.OutNeighbors(u)) {
      if (v == u) continue;
      if (--in_degree[v] == 0) order.push_back(v);
    }
  }
  QPGC_CHECK(order.size() == n);  // cycle otherwise
  return order;
}

/// Reverse topological order (children before parents).
template <GraphView G>
std::vector<NodeId> ReverseTopologicalOrder(const G& dag) {
  std::vector<NodeId> order = TopologicalOrder(dag);
  std::reverse(order.begin(), order.end());
  return order;
}

/// Topological ranks computed directly on a condensation DAG (rank of each
/// DAG node; used when the condensation is already available).
template <GraphView G>
std::vector<uint32_t> DagTopoRanks(const G& dag) {
  std::vector<uint32_t> rank(dag.num_nodes(), 0);
  for (NodeId c : ReverseTopologicalOrder(dag)) {
    uint32_t r = 0;
    for (NodeId d : dag.OutNeighbors(c)) {
      if (d == c) continue;  // self-loop: same SCC, contributes no rank step
      r = std::max(r, rank[d] + 1);
    }
    rank[c] = r;
  }
  return rank;
}

/// The paper's topological rank r for every node of g (Section 5.1).
template <GraphView G>
std::vector<uint32_t> ReachTopoRanks(const G& g) {
  const Condensation cond = BuildCondensation(g);
  const std::vector<uint32_t> dag_rank = DagTopoRanks(cond.dag);
  std::vector<uint32_t> rank(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    rank[v] = dag_rank[cond.scc.component[v]];
  }
  return rank;
}

// Non-template Graph overloads (compiled once in topology.cc).
std::vector<NodeId> TopologicalOrder(const Graph& dag);
std::vector<NodeId> ReverseTopologicalOrder(const Graph& dag);
std::vector<uint32_t> DagTopoRanks(const Graph& dag);
std::vector<uint32_t> ReachTopoRanks(const Graph& g);

}  // namespace qpgc

#endif  // QPGC_GRAPH_TOPOLOGY_H_
