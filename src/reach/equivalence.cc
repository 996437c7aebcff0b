// Copyright 2026 The QPGC Authors.

#include "reach/equivalence.h"

#include <algorithm>
#include <span>
#include <string_view>
#include <unordered_map>

#include "graph/closure.h"
#include "util/bitset.h"
#include "util/hash.h"
#include "util/lifetime_annotations.h"

namespace qpgc {

namespace {

// Key for the reference computation's refinement: (current class, exact row
// bytes). Keying on the exact bytes (not a hash of them) guarantees no two
// distinct profiles ever land in the same class.
struct QPGC_GSL_POINTER RefineKey {
  NodeId cls;
  std::string_view bytes;  // borrows the row storage of the BitMatrix
  bool operator==(const RefineKey& o) const {
    return cls == o.cls && bytes == o.bytes;
  }
};
struct RefineKeyHash {
  size_t operator()(const RefineKey& k) const {
    return static_cast<size_t>(
        HashCombine(Mix64(k.cls), HashBytes(k.bytes)));
  }
};

// One refinement pass: splits every current class by the content of `rows`.
// `cls` is updated in place; returns the new class count.
size_t RefineByRows(const BitMatrix& rows, std::vector<NodeId>& cls) {
  std::unordered_map<RefineKey, NodeId, RefineKeyHash> remap;
  remap.reserve(cls.size());
  std::vector<NodeId> next(cls.size());
  NodeId next_id = 0;
  for (size_t v = 0; v < cls.size(); ++v) {
    const RefineKey key{cls[v], rows.RowBytes(v)};
    const auto [it, inserted] = remap.try_emplace(key, next_id);
    if (inserted) ++next_id;
    next[v] = it->second;
  }
  cls.swap(next);
  return next_id;
}

// Key for grouping acyclic condensation nodes: their TR children and TR
// parents, compared element by element. The hash only picks the bucket.
struct QPGC_GSL_POINTER TwinKey {
  std::span<const NodeId> children;  // borrows the TR's adjacency
  std::span<const NodeId> parents;
  bool operator==(const TwinKey& o) const {
    return std::ranges::equal(children, o.children) &&
           std::ranges::equal(parents, o.parents);
  }
};
struct TwinKeyHash {
  size_t operator()(const TwinKey& k) const {
    uint64_t h = Mix64(k.children.size());
    for (const NodeId c : k.children) h = HashCombine(h, c);
    for (const NodeId p : k.parents) h = HashCombine(h, p);
    return static_cast<size_t>(h);
  }
};

}  // namespace

namespace reach_detail {

std::vector<NodeId> TwinClasses(const CsrGraph& tr,
                                const std::vector<uint8_t>& cyclic) {
  const size_t n = tr.num_nodes();
  std::unordered_map<TwinKey, NodeId, TwinKeyHash> ids;
  ids.reserve(n);
  std::vector<NodeId> cls(n);
  NodeId next_id = 0;
  for (NodeId u = 0; u < n; ++u) {
    if (cyclic[u]) {
      cls[u] = next_id++;
      continue;
    }
    const auto [it, inserted] =
        ids.try_emplace(TwinKey{tr.OutNeighbors(u), tr.InNeighbors(u)},
                        next_id);
    if (inserted) ++next_id;
    cls[u] = it->second;
  }
  return cls;
}

ReachPartition ExpandToNodes(size_t num_nodes, const Condensation& cond,
                             const std::vector<NodeId>& dag_cls) {
  ReachPartition part;
  const size_t n = num_nodes;
  part.class_of.assign(n, kInvalidNode);

  std::vector<NodeId> dense(cond.scc.num_components, kInvalidNode);
  // First appearance in original-node order gives deterministic ids.
  NodeId next_id = 0;
  for (NodeId v = 0; v < n; ++v) {
    const NodeId dag_node = cond.scc.component[v];
    NodeId& d = dense[dag_cls[dag_node]];
    if (d == kInvalidNode) d = next_id++;
    part.class_of[v] = d;
  }
  part.num_classes = next_id;
  part.members.assign(next_id, {});
  part.cyclic.assign(next_id, 0);
  for (NodeId v = 0; v < n; ++v) {
    const NodeId c = part.class_of[v];
    part.members[c].push_back(v);
    if (cond.scc.cyclic[cond.scc.component[v]]) part.cyclic[c] = 1;
  }
  return part;
}

}  // namespace reach_detail

std::vector<std::vector<NodeId>> ReachPartition::CanonicalClasses() const {
  std::vector<std::vector<NodeId>> classes = members;
  std::sort(classes.begin(), classes.end());
  return classes;
}

ReachPartition ComputeReachEquivalence(const Graph& g, size_t block_cols) {
  return ComputeReachEquivalence<Graph>(g, block_cols);
}

ReachPartition ComputeReachEquivalenceRef(const Graph& g) {
  const size_t n = g.num_nodes();
  // Non-empty-path closures in both directions; a node on a cycle appears in
  // its own row, which keeps it apart from every node off that cycle.
  const BitMatrix desc = FullClosure(g, Direction::kForward);
  const BitMatrix anc = FullClosure(g, Direction::kBackward);

  std::vector<NodeId> cls(n, 0);
  if (n > 0) {
    RefineByRows(desc, cls);
    RefineByRows(anc, cls);
  }

  ReachPartition part;
  part.class_of.assign(n, kInvalidNode);
  std::vector<NodeId> dense;
  NodeId next_id = 0;
  {
    std::vector<NodeId> remap(n, kInvalidNode);
    for (NodeId v = 0; v < n; ++v) {
      NodeId& d = remap[cls[v]];
      if (d == kInvalidNode) d = next_id++;
      part.class_of[v] = d;
    }
  }
  part.num_classes = next_id;
  part.members.assign(next_id, {});
  part.cyclic.assign(next_id, 0);
  for (NodeId v = 0; v < n; ++v) {
    const NodeId c = part.class_of[v];
    part.members[c].push_back(v);
    if (desc.Test(v, v)) part.cyclic[c] = 1;  // on a cycle
  }
  return part;
}

}  // namespace qpgc
