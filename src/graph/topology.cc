// Copyright 2026 The QPGC Authors.

#include "graph/topology.h"

namespace qpgc {

std::vector<NodeId> TopologicalOrder(const Graph& dag) {
  return TopologicalOrder<Graph>(dag);
}

std::vector<NodeId> ReverseTopologicalOrder(const Graph& dag) {
  return ReverseTopologicalOrder<Graph>(dag);
}

std::vector<uint32_t> DagTopoRanks(const Graph& dag) {
  return DagTopoRanks<Graph>(dag);
}

std::vector<uint32_t> ReachTopoRanks(const Graph& g) {
  return ReachTopoRanks<Graph>(g);
}

}  // namespace qpgc
