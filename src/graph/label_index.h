// Copyright 2026 The QPGC Authors.
//
// A frozen graph's label index: its node ids grouped by label. Match starts
// every pattern node u at S(u) = the nodes labelled fv(u) (pattern/match.h);
// with the index that set is one copied range instead of a scan of every
// node, so candidate initialization costs what the answer costs.
//
// Frozen views (CsrGraph, storage's MmapCsrGraph) hold the index in a
// LabelIndexSlot: built on first use, installed by one atomic pointer
// exchange, dropped by whatever gives the graph new labels. The dynamic
// Graph has none and keeps the scan: its labels change under maintenance.

#ifndef QPGC_GRAPH_LABEL_INDEX_H_
#define QPGC_GRAPH_LABEL_INDEX_H_

#include <algorithm>
#include <atomic>
#include <concepts>
#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <vector>

#include "util/common.h"
#include "util/lifetime_annotations.h"
#include "util/memory.h"

namespace qpgc {

/// The node ids of a graph grouped by label: a sorted table of the distinct
/// labels, one offset per label, and the ids of each label's nodes,
/// ascending. 4 bytes per node plus 8 per distinct label.
class LabelIndex {
 public:
  /// Indexes nodes [0, num_nodes) by `label_of(v)`. A first pass finds the
  /// label range. When it spans at most num_nodes values (every served
  /// graph: labels are small dense ids), one counting pass sizes the groups
  /// and one fills them, with no per-node hash lookup; wider ranges
  /// (kNoLabel beside real labels, say) fall back to a stable sort by
  /// label.
  template <typename LabelOf>
  static LabelIndex Build(size_t num_nodes, LabelOf&& label_of) {
    LabelIndex index;
    index.offsets_.assign(1, 0);
    if (num_nodes == 0) return index;
    Label lo = label_of(NodeId{0});
    Label hi = lo;
    for (NodeId v = 1; v < num_nodes; ++v) {
      const Label l = label_of(v);
      lo = std::min(lo, l);
      hi = std::max(hi, l);
    }
    index.nodes_.resize(num_nodes);
    if (hi - lo < num_nodes) {
      // count[l - lo + 1] = |nodes labelled l|, prefix-summed into each
      // label's first slot; filling in id order keeps every group sorted.
      std::vector<uint32_t> count(size_t{hi - lo} + 2, 0);
      for (NodeId v = 0; v < num_nodes; ++v) {
        ++count[size_t{label_of(v) - lo} + 1];
      }
      const size_t distinct = static_cast<size_t>(
          std::count_if(count.begin() + 1, count.end(),
                        [](uint32_t c) { return c != 0; }));
      index.labels_.reserve(distinct);
      index.offsets_.reserve(distinct + 1);
      for (size_t d = 1; d < count.size(); ++d) {
        if (count[d] == 0) continue;
        index.labels_.push_back(lo + static_cast<Label>(d - 1));
        index.offsets_.push_back(index.offsets_.back() + count[d]);
      }
      for (size_t d = 1; d < count.size(); ++d) count[d] += count[d - 1];
      for (NodeId v = 0; v < num_nodes; ++v) {
        index.nodes_[count[label_of(v) - lo]++] = v;
      }
      return index;
    }
    std::iota(index.nodes_.begin(), index.nodes_.end(), NodeId{0});
    std::stable_sort(index.nodes_.begin(), index.nodes_.end(),
                     [&](NodeId a, NodeId b) {
                       return label_of(a) < label_of(b);
                     });
    size_t distinct = 1;
    for (size_t i = 1; i < num_nodes; ++i) {
      distinct += label_of(index.nodes_[i]) != label_of(index.nodes_[i - 1]);
    }
    index.labels_.reserve(distinct);
    index.offsets_.reserve(distinct + 1);
    for (size_t i = 0; i < num_nodes; ++i) {
      const Label l = label_of(index.nodes_[i]);
      if (i > 0 && l == index.labels_.back()) continue;
      if (i > 0) index.offsets_.push_back(static_cast<uint32_t>(i));
      index.labels_.push_back(l);
    }
    index.offsets_.push_back(static_cast<uint32_t>(num_nodes));
    return index;
  }

  /// The nodes labelled `label`, ascending; empty when no node carries it.
  std::span<const NodeId> Nodes(Label label) const QPGC_LIFETIME_BOUND {
    const auto it = std::lower_bound(labels_.begin(), labels_.end(), label);
    if (it == labels_.end() || *it != label) return {};
    const size_t i = static_cast<size_t>(it - labels_.begin());
    return {nodes_.data() + offsets_[i], nodes_.data() + offsets_[i + 1]};
  }

  /// The distinct labels, ascending.
  std::span<const Label> labels() const QPGC_LIFETIME_BOUND { return labels_; }

  /// Heap bytes of the index.
  size_t MemoryBytes() const {
    return VectorBytes(labels_) + VectorBytes(offsets_) + VectorBytes(nodes_);
  }

 private:
  std::vector<Label> labels_;      // distinct, ascending
  std::vector<uint32_t> offsets_;  // labels_.size() + 1 entries
  std::vector<NodeId> nodes_;      // grouped by label, ascending within
};

/// Where a frozen graph keeps its lazily built LabelIndex: one atomic
/// pointer, null until the first Get, so a graph that is never matched
/// allocates nothing. Concurrent first calls each build an index and race
/// one compare-exchange to install it (release on success, acquire on every
/// load); the loser frees its copy and returns the winner's. A copy of the
/// slot starts empty and an assignment drops the target's index — the
/// graph's arrays, which the index describes, are what changed — while a
/// move carries the source's index along with its arrays.
class LabelIndexSlot {
 public:
  LabelIndexSlot() = default;
  ~LabelIndexSlot() { Reset(); }
  LabelIndexSlot(const LabelIndexSlot&) {}
  LabelIndexSlot& operator=(const LabelIndexSlot&) {
    Reset();
    return *this;
  }
  LabelIndexSlot(LabelIndexSlot&& other) noexcept
      : index_(other.index_.exchange(nullptr, std::memory_order_relaxed)) {}
  LabelIndexSlot& operator=(LabelIndexSlot&& other) noexcept {
    if (this != &other) {
      Reset();
      index_.store(other.index_.exchange(nullptr, std::memory_order_relaxed),
                   std::memory_order_relaxed);
    }
    return *this;
  }

  /// The installed index, building it with `build()` (which returns a
  /// LabelIndex) if there is none yet. Valid until Reset, assignment or
  /// destruction of the slot.
  template <typename BuildFn>
  const LabelIndex& Get(BuildFn&& build) const {
    const LabelIndex* index = index_.load(std::memory_order_acquire);
    if (index != nullptr) return *index;
    auto built = std::make_unique<const LabelIndex>(build());
    if (index_.compare_exchange_strong(index, built.get(),
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
      return *built.release();
    }
    return *index;  // another thread installed first; `built` is freed
  }

  /// Drops the index (the owner's labels are about to change). Not safe
  /// against a concurrent Get: the owner is being mutated.
  void Reset() {
    delete index_.exchange(nullptr, std::memory_order_acq_rel);
  }

  /// Heap bytes of the installed index; 0 before the first Get.
  size_t MemoryBytes() const {
    const LabelIndex* index = index_.load(std::memory_order_acquire);
    return index == nullptr ? 0 : index->MemoryBytes();
  }

 private:
  mutable std::atomic<const LabelIndex*> index_{nullptr};
};

/// A view that carries a label index (frozen graphs); Match initializes its
/// candidate sets from it instead of scanning every node.
template <typename G>
concept LabelIndexedView = requires(const G& g) {
  { g.label_index() } -> std::same_as<const LabelIndex&>;
};

}  // namespace qpgc

#endif  // QPGC_GRAPH_LABEL_INDEX_H_
