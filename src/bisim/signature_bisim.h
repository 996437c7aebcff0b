// Copyright 2026 The QPGC Authors.
//
// Reference computation of the maximum bisimulation by global signature
// refinement ("naive" partition refinement): start from the label partition
// and repeatedly split blocks by the set of successor blocks until a
// fixpoint. Converges to the coarsest stable partition — the maximum
// bisimulation Rb — in at most |V| rounds of O(|E| log |E|).
//
// The oracle that the production engine, Paige–Tarjan
// (bisim/paige_tarjan.h), is differentially tested against; the engine
// ablation bench times the two side by side. LabelPartition is also the
// bounded k-bisimulation's starting partition. Templated over GraphView
// (Graph, CsrGraph, ReversedView); Graph overloads compiled once in the
// library.

#ifndef QPGC_BISIM_SIGNATURE_BISIM_H_
#define QPGC_BISIM_SIGNATURE_BISIM_H_

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "bisim/partition.h"
#include "bisim/refine_detail.h"
#include "graph/graph.h"
#include "graph/graph_view.h"

namespace qpgc {

/// The initial partition: nodes grouped by label.
template <GraphView G>
Partition LabelPartition(const G& g) {
  Partition p;
  p.block_of.resize(g.num_nodes());
  std::unordered_map<Label, NodeId> by_label;
  NodeId next = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto [it, inserted] = by_label.try_emplace(g.label(v), next);
    if (inserted) ++next;
    p.block_of[v] = it->second;
  }
  p.num_blocks = next;
  return p;
}

/// One signature-refinement round applied to `p` (splits every block by
/// members' successor-block sets). Returns true iff the partition changed.
/// Exposed for k-bisimulation and tests.
template <GraphView G>
bool RefineOnce(const G& g, Partition& p) {
  using bisim_detail::Sig;
  using bisim_detail::SigHash;

  std::unordered_map<Sig, NodeId, SigHash> remap;
  remap.reserve(p.block_of.size());
  std::vector<NodeId> next(p.block_of.size());
  NodeId next_id = 0;
  std::vector<NodeId> succ;
  for (NodeId v = 0; v < p.block_of.size(); ++v) {
    succ.clear();
    for (NodeId w : g.OutNeighbors(v)) succ.push_back(p.block_of[w]);
    std::sort(succ.begin(), succ.end());
    succ.erase(std::unique(succ.begin(), succ.end()), succ.end());
    Sig sig{p.block_of[v], succ};
    const auto [it, inserted] = remap.try_emplace(std::move(sig), next_id);
    if (inserted) ++next_id;
    next[v] = it->second;
  }
  const bool changed = next_id != p.num_blocks;
  p.block_of.swap(next);
  p.num_blocks = next_id;
  return changed;
}

/// Maximum bisimulation by signature refinement to fixpoint.
template <GraphView G>
Partition SignatureBisimulation(const G& g) {
  Partition p = LabelPartition(g);
  while (RefineOnce(g, p)) {
  }
  p.Normalize();
  return p;
}

// Non-template Graph overloads (compiled once in signature_bisim.cc).
Partition SignatureBisimulation(const Graph& g);
bool RefineOnce(const Graph& g, Partition& p);
Partition LabelPartition(const Graph& g);

}  // namespace qpgc

#endif  // QPGC_BISIM_SIGNATURE_BISIM_H_
