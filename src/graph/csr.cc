// Copyright 2026 The QPGC Authors.

#include "graph/csr.h"

#include "util/memory.h"

namespace qpgc {

CsrGraph::CsrGraph() : out_offsets_(1, 0), in_offsets_(1, 0) {}

CsrGraph::CsrGraph(const Graph& g)
    : out_offsets_(g.num_nodes() + 1),
      in_offsets_(g.num_nodes() + 1),
      labels_(g.labels().begin(), g.labels().end()) {
  const size_t n = g.num_nodes();
  out_targets_.reserve(g.num_edges());
  in_targets_.reserve(g.num_edges());
  for (NodeId u = 0; u < n; ++u) {
    out_offsets_[u] = out_targets_.size();
    const auto out = g.OutNeighbors(u);
    out_targets_.insert(out_targets_.end(), out.begin(), out.end());
    in_offsets_[u] = in_targets_.size();
    const auto in = g.InNeighbors(u);
    in_targets_.insert(in_targets_.end(), in.begin(), in.end());
  }
  out_offsets_[n] = out_targets_.size();
  in_offsets_[n] = in_targets_.size();
}

template <GraphView G>
void CsrGraph::RefreezeMapped(
    const G& g, const std::vector<NodeId>& remap, size_t new_n,
    std::vector<std::pair<NodeId, NodeId>>* dropped_out_edges) {
  QPGC_CHECK(remap.size() == g.num_nodes());
  label_index_.Reset();
  labels_.resize(new_n);
  out_offsets_.resize(new_n + 1);
  in_offsets_.resize(new_n + 1);
  out_targets_.clear();
  in_targets_.clear();
  size_t kept = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const NodeId mu = remap[u];
    if (mu == kInvalidNode) continue;
    // Strictly increasing over kept nodes: mu must be exactly the next
    // compact id, which is what keeps the offset arrays dense and the
    // target runs sorted.
    QPGC_CHECK(mu == kept);
    ++kept;
    labels_[mu] = g.label(u);
    out_offsets_[mu] = out_targets_.size();
    for (const NodeId v : g.OutNeighbors(u)) {
      if (remap[v] != kInvalidNode) {
        out_targets_.push_back(remap[v]);
      } else if (dropped_out_edges != nullptr) {
        dropped_out_edges->emplace_back(mu, v);
      }
    }
    in_offsets_[mu] = in_targets_.size();
    for (const NodeId v : g.InNeighbors(u)) {
      if (remap[v] != kInvalidNode) in_targets_.push_back(remap[v]);
    }
  }
  QPGC_CHECK(kept == new_n);
  out_offsets_[new_n] = out_targets_.size();
  in_offsets_[new_n] = in_targets_.size();
}

template void CsrGraph::RefreezeMapped<Graph>(
    const Graph&, const std::vector<NodeId>&, size_t,
    std::vector<std::pair<NodeId, NodeId>>*);
template void CsrGraph::RefreezeMapped<CsrGraph>(
    const CsrGraph&, const std::vector<NodeId>&, size_t,
    std::vector<std::pair<NodeId, NodeId>>*);

void CsrGraph::AdoptCsr(std::vector<uint64_t> out_offsets,
                        std::vector<NodeId> out_targets,
                        std::vector<Label> labels) {
  QPGC_CHECK(!out_offsets.empty() && out_offsets.front() == 0 &&
             out_offsets.back() == out_targets.size());
  const size_t n = out_offsets.size() - 1;
  QPGC_CHECK(labels.size() == n);
  label_index_.Reset();
  out_offsets_ = std::move(out_offsets);
  out_targets_ = std::move(out_targets);
  labels_ = std::move(labels);
  // Derive the in-direction: count in-degrees, prefix-sum, fill. Filling in
  // (u ascending, v ascending) order keeps every in-run sorted.
  in_offsets_.assign(n + 1, 0);
  for (const NodeId v : out_targets_) {
    QPGC_DCHECK(v < n);
    ++in_offsets_[v + 1];
  }
  for (size_t v = 1; v <= n; ++v) in_offsets_[v] += in_offsets_[v - 1];
  in_targets_.resize(out_targets_.size());
  std::vector<uint64_t> cursor(in_offsets_.begin(), in_offsets_.end() - 1);
  for (NodeId u = 0; u < n; ++u) {
    for (uint64_t e = out_offsets_[u]; e < out_offsets_[u + 1]; ++e) {
      in_targets_[cursor[out_targets_[e]]++] = u;
    }
  }
}

const LabelIndex& CsrGraph::label_index() const {
  return label_index_.Get([this] {
    return LabelIndex::Build(num_nodes(),
                             [this](NodeId v) { return labels_[v]; });
  });
}

size_t CsrGraph::CountDistinctLabels() const {
  return qpgc::CountDistinctLabels(*this);
}

std::vector<std::pair<NodeId, NodeId>> CsrGraph::EdgeList() const {
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(num_edges());
  ForEachEdge([&](NodeId u, NodeId v) { edges.emplace_back(u, v); });
  return edges;
}

size_t CsrGraph::MemoryBytes() const {
  return VectorBytes(out_offsets_) + VectorBytes(out_targets_) +
         VectorBytes(in_offsets_) + VectorBytes(in_targets_) +
         VectorBytes(labels_) + label_index_.MemoryBytes();
}

}  // namespace qpgc
