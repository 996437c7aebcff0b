// Copyright 2026 The QPGC Authors.

#include "graph/closure.h"

#include <algorithm>
#include <vector>

#include "graph/csr.h"

namespace qpgc {

template <GraphView G>
BitMatrix FullClosure(const G& g, Direction dir) {
  const size_t n = g.num_nodes();
  BitMatrix closure(n, n);
  std::vector<uint8_t> visited(n, 0);
  std::vector<NodeId> queue;
  for (NodeId s = 0; s < n; ++s) {
    std::fill(visited.begin(), visited.end(), 0);
    queue.clear();
    // Non-empty paths: start from s's neighbors.
    const auto start = dir == Direction::kForward ? g.OutNeighbors(s)
                                                  : g.InNeighbors(s);
    for (NodeId w : start) {
      if (!visited[w]) {
        visited[w] = 1;
        closure.Set(s, w);
        queue.push_back(w);
      }
    }
    for (size_t i = 0; i < queue.size(); ++i) {
      const NodeId x = queue[i];
      const auto nbrs = dir == Direction::kForward ? g.OutNeighbors(x)
                                                   : g.InNeighbors(x);
      for (NodeId w : nbrs) {
        if (!visited[w]) {
          visited[w] = 1;
          closure.Set(s, w);
          queue.push_back(w);
        }
      }
    }
  }
  return closure;
}

template BitMatrix FullClosure<Graph>(const Graph&, Direction);
template BitMatrix FullClosure<CsrGraph>(const CsrGraph&, Direction);

}  // namespace qpgc
