// Copyright 2026 The QPGC Authors.

#include "index/two_hop.h"

#include <algorithm>
#include <numeric>

#include "graph/condensation.h"
#include "util/memory.h"

namespace qpgc {

namespace {

// Sorted-list intersection test.
bool Intersect(const std::vector<NodeId>& a, const std::vector<NodeId>& b) {
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

}  // namespace

TwoHopIndex TwoHopIndex::FromCondensation(const Condensation& cond) {
  TwoHopIndex idx;
  const CsrGraph& dag = cond.dag;
  const size_t nc = cond.scc.num_components;

  idx.comp_ = cond.scc.component;
  idx.cyclic_.assign(cond.scc.cyclic.begin(), cond.scc.cyclic.end());
  idx.out_labels_.assign(nc, {});
  idx.in_labels_.assign(nc, {});

  // Landmarks in descending (in+1)*(out+1) degree order: high-coverage hubs
  // first maximizes pruning.
  std::vector<NodeId> order(nc);
  std::iota(order.begin(), order.end(), 0);
  std::vector<uint64_t> score(nc);
  for (NodeId c = 0; c < nc; ++c) {
    score[c] = static_cast<uint64_t>(dag.OutDegree(c) + 1) *
               static_cast<uint64_t>(dag.InDegree(c) + 1);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](NodeId a, NodeId b) { return score[a] > score[b]; });

  std::vector<NodeId> queue;
  std::vector<uint8_t> visited(nc, 0);
  for (const NodeId l : order) {
    // Forward pruned BFS: l is recorded as an in-label of every DAG node it
    // reaches and that is not already covered.
    for (int dir = 0; dir < 2; ++dir) {
      queue.clear();
      std::fill(visited.begin(), visited.end(), 0);
      queue.push_back(l);
      visited[l] = 1;
      for (size_t i = 0; i < queue.size(); ++i) {
        const NodeId x = queue[i];
        if (x != l) {
          const bool covered =
              dir == 0 ? idx.DagReaches(l, x) : idx.DagReaches(x, l);
          if (covered) continue;  // prune: do not label, do not expand
          if (dir == 0) {
            idx.in_labels_[x].push_back(l);
          } else {
            idx.out_labels_[x].push_back(l);
          }
        }
        const auto nbrs =
            dir == 0 ? dag.OutNeighbors(x) : dag.InNeighbors(x);
        for (NodeId w : nbrs) {
          if (!visited[w]) {
            visited[w] = 1;
            queue.push_back(w);
          }
        }
      }
    }
  }
  // Landmarks label themselves so intersection covers landmark endpoints.
  for (NodeId c = 0; c < nc; ++c) {
    idx.out_labels_[c].push_back(c);
    idx.in_labels_[c].push_back(c);
    std::sort(idx.out_labels_[c].begin(), idx.out_labels_[c].end());
    std::sort(idx.in_labels_[c].begin(), idx.in_labels_[c].end());
  }
  return idx;
}

bool TwoHopIndex::DagReaches(NodeId cu, NodeId cw) const {
  if (cu == cw) return true;
  // During construction labels are unsorted; fall back to linear probes.
  for (NodeId l : out_labels_[cu]) {
    if (l == cw) return true;
  }
  for (NodeId l : in_labels_[cw]) {
    if (l == cu) return true;
  }
  for (NodeId l : out_labels_[cu]) {
    for (NodeId m : in_labels_[cw]) {
      if (l == m) return true;
    }
  }
  return false;
}

bool TwoHopIndex::Reaches(NodeId u, NodeId v, PathMode mode) const {
  const NodeId cu = comp_[u];
  const NodeId cv = comp_[v];
  if (cu == cv) {
    return mode == PathMode::kReflexive ? true : cyclic_[cu] != 0;
  }
  if (std::binary_search(out_labels_[cu].begin(), out_labels_[cu].end(), cv))
    return true;
  if (std::binary_search(in_labels_[cv].begin(), in_labels_[cv].end(), cu))
    return true;
  return Intersect(out_labels_[cu], in_labels_[cv]);
}

size_t TwoHopIndex::LabelEntries() const {
  size_t total = 0;
  for (const auto& l : out_labels_) total += l.size();
  for (const auto& l : in_labels_) total += l.size();
  return total;
}

size_t TwoHopIndex::MemoryBytes() const {
  return VectorBytes(comp_) + VectorBytes(cyclic_) +
         NestedVectorBytes(out_labels_) + NestedVectorBytes(in_labels_);
}

}  // namespace qpgc
