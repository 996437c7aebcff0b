// Copyright 2026 The QPGC Authors.

#include "graph/reduction.h"

#include <algorithm>

#include "graph/builder.h"
#include "graph/topology.h"
#include "util/bitset.h"

namespace qpgc {

CsrGraph ReduceDag(const CsrGraph& dag, size_t block_cols) {
  const size_t n = dag.num_nodes();
  // Work in reverse-topological positions: descendants sit lower, so the
  // targets from `start` on are reached only from positions >= start.
  // kids[kid_first[i], kid_first[i + 1]) are position i's children.
  const std::vector<NodeId> order = ReverseTopologicalOrder(dag);
  std::vector<NodeId> pos(n);
  for (size_t i = 0; i < n; ++i) pos[order[i]] = static_cast<NodeId>(i);
  std::vector<uint64_t> kid_first(n + 1, 0);
  std::vector<NodeId> kids;
  kids.reserve(dag.num_edges());
  for (size_t i = 0; i < n; ++i) {
    for (const NodeId c : dag.OutNeighbors(order[i])) {
      if (c != order[i]) kids.push_back(pos[c]);
    }
    kid_first[i + 1] = kids.size();
  }
  std::vector<uint8_t> keep(kids.size(), 0);

  block_cols = std::max<size_t>(1, block_cols);
  for (size_t start = 0; start < n; start += block_cols) {
    const size_t end = std::min(start + block_cols, n);
    // Row i - start: position i's strict descendants in [start, end). ORing
    // an all-zero row (most rows of a sparse DAG) is skipped.
    BitMatrix desc(n - start, end - start);
    std::vector<uint8_t> nonzero(n - start, 0);
    for (size_t i = start; i < n; ++i) {
      const size_t row = i - start;
      for (uint64_t k = kid_first[i]; k < kid_first[i + 1]; ++k) {
        if (kids[k] >= start && nonzero[kids[k] - start]) {
          desc.OrRowInto(kids[k] - start, row);
          nonzero[row] = 1;
        }
      }
      // Children are distinct, so setting one child's bit never decides
      // another's verdict.
      for (uint64_t k = kid_first[i]; k < kid_first[i + 1]; ++k) {
        if (kids[k] < start || kids[k] >= end) continue;
        keep[k] = !desc.Test(row, kids[k] - start);
        desc.Set(row, kids[k] - start);
        nonzero[row] = 1;
      }
    }
  }

  std::vector<uint64_t> offsets(n + 1, 0);
  std::vector<NodeId> children;
  for (NodeId u = 0; u < n; ++u) {
    uint64_t k = kid_first[pos[u]];
    for (const NodeId c : dag.OutNeighbors(u)) {
      if (c != u && keep[k++]) children.push_back(c);
    }
    offsets[u + 1] = children.size();
  }
  CsrGraph tr;
  tr.AdoptCsr(std::move(offsets), std::move(children), dag.labels());
  return tr;
}

Graph TransitiveReductionDag(const CsrGraph& dag, size_t block_cols) {
  const CsrGraph tr = ReduceDag(dag, block_cols);
  GraphBuilder builder(dag.num_nodes());
  for (NodeId u = 0; u < dag.num_nodes(); ++u) {
    builder.SetLabel(u, dag.label(u));
    if (dag.HasEdge(u, u)) builder.AddEdge(u, u);
  }
  ForEachEdge(tr, [&](NodeId u, NodeId v) { builder.AddEdge(u, v); });
  return builder.Build();
}

}  // namespace qpgc
