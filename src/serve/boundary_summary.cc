// Copyright 2026 The QPGC Authors.

#include "serve/boundary_summary.h"

#include <algorithm>
#include <utility>

#include "util/memory.h"

namespace qpgc {

namespace {

// Marks every quotient block reachable from the blocks of `seeds` by a path
// of length >= 0, following `forward` out-edges or (for the backward pass)
// in-edges. Linear in the visited slice; `mark` must be zeroed on entry.
void MarkClosure(const CsrGraph& quotient, const std::vector<NodeId>& map,
                 const std::vector<NodeId>& seeds, bool forward,
                 std::vector<uint8_t>& mark, std::vector<NodeId>& queue) {
  queue.clear();
  for (const NodeId s : seeds) {
    QPGC_DCHECK(s < map.size());
    const NodeId b = map[s];
    if (!mark[b]) {
      mark[b] = 1;
      queue.push_back(b);
    }
  }
  for (size_t head = 0; head < queue.size(); ++head) {
    const NodeId b = queue[head];
    for (const NodeId w :
         forward ? quotient.OutNeighbors(b) : quotient.InNeighbors(b)) {
      if (!mark[w]) {
        mark[w] = 1;
        queue.push_back(w);
      }
    }
  }
}

}  // namespace

void FrozenBoundarySummary::Build(
    const CsrGraph& quotient, const std::vector<NodeId>& node_map,
    std::shared_ptr<const std::vector<NodeId>> exits,
    std::shared_ptr<const std::vector<NodeId>> entries) {
  exits_ = std::move(exits);
  entries_ = std::move(entries);
  static const std::vector<NodeId> kEmpty;
  const std::vector<NodeId>& exit_nodes = exits_ ? *exits_ : kEmpty;
  const std::vector<NodeId>& entry_nodes = entries_ ? *entries_ : kEmpty;
  QPGC_DCHECK(std::is_sorted(exit_nodes.begin(), exit_nodes.end()));
  QPGC_DCHECK(std::is_sorted(entry_nodes.begin(), entry_nodes.end()));

  const size_t num_blocks = quotient.num_nodes();
  // Select the blocks on some entry-to-exit walk: forward closure of the
  // entry blocks intersected with the backward closure of the exit blocks.
  std::vector<uint8_t> from_entry(num_blocks, 0), to_exit(num_blocks, 0);
  std::vector<NodeId> queue;
  MarkClosure(quotient, node_map, entry_nodes, /*forward=*/true, from_entry,
              queue);
  MarkClosure(quotient, node_map, exit_nodes, /*forward=*/false, to_exit,
              queue);
  std::vector<NodeId> summary_id(num_blocks, kNoSummaryNode);
  NodeId num_summary = 0;
  for (size_t b = 0; b < num_blocks; ++b) {
    if (from_entry[b] && to_exit[b]) {
      summary_id[b] = num_summary++;
    }
  }

  // Summary edges: the quotient edges between selected blocks (self-loops
  // included — they carry the non-empty-path diagonal).
  out_offsets_.assign(num_summary + 1, 0);
  out_targets_.clear();
  for (size_t b = 0; b < num_blocks; ++b) {
    if (summary_id[b] == kNoSummaryNode) continue;
    for (const NodeId w : quotient.OutNeighbors(static_cast<NodeId>(b))) {
      if (summary_id[w] != kNoSummaryNode) out_targets_.push_back(summary_id[w]);
    }
    // Blocks are visited in ascending order and summary ids follow block
    // order, so writing each cumulative size fills the offsets in place.
    out_offsets_[summary_id[b] + 1] = out_targets_.size();
  }

  // Exit annotation, grouped by summary node; exits stay ascending within
  // a node because the input table is sorted. An exit whose block is not
  // selected is unreachable from every entry and is dropped.
  exit_offsets_.assign(num_summary + 1, 0);
  for (const NodeId x : exit_nodes) {
    const NodeId sid = summary_id[node_map[x]];
    if (sid != kNoSummaryNode) ++exit_offsets_[sid + 1];
  }
  for (size_t n = 1; n <= num_summary; ++n) {
    exit_offsets_[n] += exit_offsets_[n - 1];
  }
  exit_nodes_.resize(exit_offsets_[num_summary]);
  {
    std::vector<uint64_t> cursor(exit_offsets_.begin(),
                                 exit_offsets_.end() - 1);
    for (const NodeId x : exit_nodes) {
      const NodeId sid = summary_id[node_map[x]];
      if (sid != kNoSummaryNode) exit_nodes_[cursor[sid]++] = x;
    }
  }

  // Entry table: each entry's block, as a summary node (kNoSummaryNode for
  // pruned blocks — that entry reaches no exit here).
  entry_summary_node_.resize(entry_nodes.size());
  for (size_t i = 0; i < entry_nodes.size(); ++i) {
    entry_summary_node_[i] = summary_id[node_map[entry_nodes[i]]];
  }
}

size_t FrozenBoundarySummary::MemoryBytes() const {
  return VectorBytes(out_offsets_) + VectorBytes(out_targets_) +
         VectorBytes(exit_offsets_) + VectorBytes(exit_nodes_) +
         VectorBytes(entry_summary_node_) +
         (entries_ == nullptr ? 0 : VectorBytes(*entries_));
}

}  // namespace qpgc
