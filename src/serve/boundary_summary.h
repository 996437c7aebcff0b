// Copyright 2026 The QPGC Authors.
//
// FrozenBoundarySummary: the per-shard boundary-to-boundary reachability
// summary frozen into every sharded ServingSnapshot at publish time.
//
// The routed-reach problem (serve/router.h) only ever needs one question
// answered per shard: *from a boundary-entry node, which boundary-exit
// nodes are reachable inside this shard?* Before this artifact existed the
// router re-derived the answer per query with full quotient sweeps — one
// multi-source BFS over the whole frozen reach quotient per wave per shard.
// The summary precomputes the relevant slice once per publish:
//
//  * Summary nodes are the reach-quotient blocks that lie on some
//    entry-to-exit path — reachable from at least one entry block AND
//    reaching at least one exit block (both by paths of length >= 0). Two
//    linear marking passes over the quotient (forward from entries,
//    backward from exits) select them; everything else is pruned.
//  * Summary edges are the quotient edges between selected blocks,
//    self-loops included (a cyclic class's self-loop is what lets an
//    entry's own block count as reached by a non-empty path — the same
//    convention as ServingSnapshot's quotient sweeps).
//  * Each summary node carries the boundary-exit nodes whose block it is,
//    so a traversal that stamps a summary node can emit the exits to hand
//    to their home shards.
//  * The entry table maps each boundary-entry node (an owned node with a
//    cross-shard in-edge, sorted ascending) to its block's summary node —
//    or kNoSummaryNode when the block was pruned (that entry reaches no
//    exit inside the shard).
//
// Soundness rests on the quotient being exact for non-empty reachability
// (reach/compress_r.h) restricted to this shard's edges; pruning only
// removes blocks that cannot appear on any entry-to-exit walk. The full
// argument, and the router search built on top, live in docs/SHARDING.md.
//
// An entry *absent* from the table is meaningful: the entry gained its
// first cross-shard in-edge after this shard's last publish (another
// shard's writer created it). LookupEntry returns false for those and the
// router falls back to a live quotient sweep, preserving exactness.
//
// Lifecycle and thread safety match the frozen sides in serve/snapshot.h:
// built fresh by the owning shard's writer inside Publish() before any
// reader can observe it, immutable afterwards, shared by pointer across
// versions whose reach side, exit set, and entry set all carried over.

#ifndef QPGC_SERVE_BOUNDARY_SUMMARY_H_
#define QPGC_SERVE_BOUNDARY_SUMMARY_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/csr.h"
#include "util/common.h"
#include "util/lifetime_annotations.h"

namespace qpgc {

/// The frozen boundary summary of one shard at one version (see file
/// comment). Writer-side Build(), then immutable.
class FrozenBoundarySummary {
 public:
  /// The summary node of an entry whose block reaches no exit.
  static constexpr NodeId kNoSummaryNode = kInvalidNode;

  /// Builds the summary from the shard's frozen reach quotient plus the
  /// publish-consistent boundary sets. `exits` and `entries` must be
  /// sorted ascending; both are shared by pointer (the sharded manager's
  /// boundary tables hand out one immutable vector per membership state).
  void Build(const CsrGraph& quotient, const std::vector<NodeId>& node_map,
             std::shared_ptr<const std::vector<NodeId>> exits,
             std::shared_ptr<const std::vector<NodeId>> entries);

  /// Looks up a boundary-entry node. Returns false when `entry` was not an
  /// entry at freeze time (the router's stale-entry fallback); otherwise
  /// true with *summary_node = the entry block's summary node, or
  /// kNoSummaryNode when that block was pruned. O(1): the router resolves
  /// every boundary node the search visits through here, so on dense
  /// partitions this sits on the per-query critical path thousands of
  /// times.
  bool LookupEntry(NodeId entry, NodeId* summary_node) const {
    if (entry >= entry_slot_.size()) return false;
    const uint32_t slot = entry_slot_[entry];
    if (slot == 0) return false;
    *summary_node = entry_summary_node_[slot - 1];
    return true;
  }

  /// Number of summary nodes (pruned quotient blocks) / edges.
  size_t num_nodes() const { return out_offsets_.empty() ? 0 : out_offsets_.size() - 1; }
  size_t num_edges() const { return out_targets_.size(); }

  /// Out-neighbors of summary node `n`, as summary node ids.
  std::span<const NodeId> OutNeighbors(NodeId n) const QPGC_LIFETIME_BOUND {
    return {out_targets_.data() + out_offsets_[n],
            out_targets_.data() + out_offsets_[n + 1]};
  }

  /// The boundary-exit nodes (global node ids) whose block is summary node
  /// `n`, ascending.
  std::span<const NodeId> ExitsAt(NodeId n) const QPGC_LIFETIME_BOUND {
    return {exit_nodes_.data() + exit_offsets_[n],
            exit_nodes_.data() + exit_offsets_[n + 1]};
  }

  /// ExitsAt(n) as a position range into exit_nodes(), for callers keeping
  /// side tables parallel to the grouped exit list (the router's per-pin
  /// route tables).
  std::pair<size_t, size_t> ExitRangeAt(NodeId n) const {
    return {exit_offsets_[n], exit_offsets_[n + 1]};
  }

  /// The whole grouped exit list (concatenated ExitsAt runs, in summary
  /// node order).
  std::span<const NodeId> exit_nodes() const QPGC_LIFETIME_BOUND {
    return exit_nodes_;
  }

  /// The summary node of each entry, in entries_ptr() order (the bulk form
  /// of LookupEntry — what the router's per-pin route table is built from).
  std::span<const NodeId> entry_summary_nodes() const QPGC_LIFETIME_BOUND {
    return entry_summary_node_;
  }

  /// The frozen boundary sets this summary was built from (pointer
  /// identity is the manager's reuse key across publishes).
  const std::shared_ptr<const std::vector<NodeId>>& exits_ptr() const {
    return exits_;
  }
  const std::shared_ptr<const std::vector<NodeId>>& entries_ptr() const {
    return entries_;
  }

  /// Heap bytes held by this summary.
  size_t MemoryBytes() const;

 private:
  std::vector<uint64_t> out_offsets_;   // num summary nodes + 1
  std::vector<NodeId> out_targets_;     // summary node ids
  std::vector<uint64_t> exit_offsets_;  // num summary nodes + 1
  std::vector<NodeId> exit_nodes_;      // exit node ids, grouped by node
  std::shared_ptr<const std::vector<NodeId>> exits_;
  std::shared_ptr<const std::vector<NodeId>> entries_;
  std::vector<NodeId> entry_summary_node_;  // parallel to *entries_
  // Dense entry index: [node] = 1 + index into entry_summary_node_, 0 when
  // the node was not an entry at freeze time. One word per graph node —
  // publish already pays an O(|V|) node_map scan, and the vector is shared
  // across versions whenever the whole summary carries over.
  std::vector<uint32_t> entry_slot_;
};

}  // namespace qpgc

#endif  // QPGC_SERVE_BOUNDARY_SUMMARY_H_
