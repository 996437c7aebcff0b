// Copyright 2026 The QPGC Authors.

#include "graph/builder.h"

#include <algorithm>

namespace qpgc {

Graph GraphBuilder::Build() {
  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());

  // Fill the adjacency vectors directly: edges sorted by (u, v) append to
  // out_[u] in ascending v order and, with a degree-counting pass first, to
  // in_[v] in ascending u order — O(|V| + |E|) total, no per-edge sorted
  // insert. Hub-heavy loads (generators, edge-list files) would otherwise
  // pay O(in-degree) per edge into the hubs.
  const size_t n = labels_.size();
  Graph g(std::move(labels_));
  std::vector<size_t> out_deg(n, 0), in_deg(n, 0);
  for (const auto& [u, v] : edges_) {
    ++out_deg[u];
    ++in_deg[v];
  }
  for (NodeId w = 0; w < n; ++w) {
    g.out_[w].reserve(out_deg[w]);
    g.in_[w].reserve(in_deg[w]);
  }
  for (const auto& [u, v] : edges_) {
    g.out_[u].push_back(v);
    g.in_[v].push_back(u);
  }
  g.num_edges_ = edges_.size();

  labels_.clear();
  edges_.clear();
  return g;
}

CsrGraph CsrBuilder::Build() {
  const size_t n = labels_.size();
  for (size_t u = 1; u <= n; ++u) offsets_[u] += offsets_[u - 1];
  std::vector<NodeId> targets(edges_.size());
  {
    std::vector<uint64_t> cursor(offsets_.begin(), offsets_.end() - 1);
    for (const auto& [u, v] : edges_) targets[cursor[u]++] = v;
  }
  std::vector<std::pair<NodeId, NodeId>>().swap(edges_);

  // Sort each run and drop its duplicates, compacting the runs leftwards:
  // the write position never passes the read position.
  uint64_t kept = 0;
  for (size_t u = 0; u < n; ++u) {
    const uint64_t begin = offsets_[u];
    const uint64_t end = offsets_[u + 1];
    offsets_[u] = kept;
    std::sort(targets.begin() + static_cast<ptrdiff_t>(begin),
              targets.begin() + static_cast<ptrdiff_t>(end));
    for (uint64_t e = begin; e < end; ++e) {
      if (kept == offsets_[u] || targets[kept - 1] != targets[e]) {
        targets[kept++] = targets[e];
      }
    }
  }
  offsets_[n] = kept;
  targets.resize(kept);
  targets.shrink_to_fit();

  CsrGraph g;
  g.AdoptCsr(std::move(offsets_), std::move(targets), std::move(labels_));
  return g;
}

}  // namespace qpgc
