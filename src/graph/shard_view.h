// Copyright 2026 The QPGC Authors.
//
// Sharding a labeled graph for partitioned compression and serving.
//
// The paper's compressions are query preserving *per graph*: running
// compressR / compressB over each partition of a node-partitioned graph
// yields per-shard artifacts that, with the right routing (serve/router.h),
// answer the exact same queries as the whole-graph artifacts. The pieces:
//
//  * `ShardPartition` — an ownership map: every node id is owned by exactly
//    one of `num_shards` shards (hash or contiguous assignment). Edge
//    (u, v) belongs to shard_of(u): a shard owns all out-edges of its
//    nodes, so a node's full out-neighborhood lives in exactly one shard
//    (edge-cut partitioning by source).
//  * Ghost nodes — shard s's local graph keeps the *full node universe*
//    (local ids == global ids, so no id translation anywhere). Nodes s does
//    not own are "ghosts": they carry no out-edges in s (their out-edges
//    live in their home shard) but may be targets of s's cross-shard edges.
//  * `GhostLabel(v)` — ghosts are labeled with a per-node synthetic label
//    instead of their real one. This forces every ghost into a singleton
//    block of the shard-local bisimulation: two owned nodes can only be
//    locally bisimilar when their cross-shard successors are *identical
//    nodes*, which makes the union of the per-shard partitions a genuine
//    bisimulation on the whole graph. That is the invariant the router's
//    stitched pattern quotient rests on (serve/router.h) — and it is
//    label-change-free under edge updates, so the per-shard incremental
//    layer (IncRCM/IncPCM) runs completely unmodified.
//  * `MaterializeShard` — one shard's subgraph as a dynamic `Graph`: the
//    full node universe, the owned nodes' out-edges and the ghost-label
//    overlay. It is the mutable per-shard source of truth the serving
//    writer maintains, and the whole batch pipeline (compressR, compressB,
//    Match, SCC, ...) runs on it unmodified.

#ifndef QPGC_GRAPH_SHARD_VIEW_H_
#define QPGC_GRAPH_SHARD_VIEW_H_

#include <cstdint>
#include <vector>

#include "graph/builder.h"
#include "graph/graph.h"
#include "graph/graph_view.h"
#include "util/common.h"

namespace qpgc {

/// Synthetic labels for ghost nodes live at and above this value. Real
/// labels are small dense integers (util/common.h), so the upper half of the
/// label space is free; kNoLabel (0xFFFFFFFF) stays reserved.
inline constexpr Label kGhostLabelBase = Label{1} << 31;

/// The synthetic label of node v when it appears as a ghost. Unique per
/// node, never equal to any real label or to kNoLabel (checked at
/// materialization time).
inline Label GhostLabel(NodeId v) { return kGhostLabelBase + v; }

/// True iff `l` is a ghost label. Real labels are small (< kGhostLabelBase)
/// or kNoLabel, so ghostness is decidable from the label alone — which is
/// how the frozen serving artifacts recognize ghost singleton blocks
/// without consulting the partition.
inline bool IsGhostLabel(Label l) {
  return l >= kGhostLabelBase && l != kNoLabel;
}

/// True iff g can be sharded: every label is a real label (below the ghost
/// range, or kNoLabel) and the node count leaves room for per-node ghost
/// labels. Boundary-validating callers (the CLI) should reject graphs that
/// fail this instead of relying on the QPGC_CHECKs inside MaterializeShard.
inline bool LabelsShardable(const Graph& g) {
  if (g.num_nodes() >= kNoLabel - kGhostLabelBase) return false;
  for (const Label l : g.labels()) {
    if (IsGhostLabel(l)) return false;
  }
  return true;
}

/// An ownership map of nodes onto `num_shards` shards.
///
/// Immutable after construction; safe to share across reader and writer
/// threads without synchronization. Edge updates never move a node between
/// shards (the serving layer's node universe is fixed at build time).
struct ShardPartition {
  /// shard_of[v] = owner of node v.
  std::vector<uint32_t> shard_of;
  /// Number of shards K (>= 1).
  uint32_t num_shards = 1;

  size_t num_nodes() const { return shard_of.size(); }
  bool Owns(uint32_t shard, NodeId v) const { return shard_of[v] == shard; }

  /// All nodes owned by `shard`, ascending.
  std::vector<NodeId> OwnedNodes(uint32_t shard) const {
    std::vector<NodeId> owned;
    for (NodeId v = 0; v < shard_of.size(); ++v) {
      if (shard_of[v] == shard) owned.push_back(v);
    }
    return owned;
  }

  /// Hash partition: shard_of[v] = mix(v, seed) % k. The workhorse —
  /// balances load with no structural knowledge (and, being structure-blind,
  /// maximizes cross-shard edges; see docs/ARCHITECTURE.md for the
  /// trade-off).
  static ShardPartition Hash(size_t num_nodes, uint32_t k, uint64_t seed = 0);

  /// Contiguous ranges of ceil(n / k) nodes. Generator families emit
  /// locality-correlated ids, so this is the locality-friendly baseline.
  static ShardPartition Contiguous(size_t num_nodes, uint32_t k);

  /// Structure-aware partition: condenses g to its SCC DAG, orders nodes so
  /// that each SCC's members are consecutive and SCCs appear in topological
  /// order of the condensation, then cuts that order into k balanced
  /// contiguous chunks. Cycles therefore never straddle a shard boundary
  /// (unless a single SCC outgrows a chunk), and edges — which
  /// overwhelmingly connect condensation-adjacent SCCs — mostly stay
  /// within a chunk, so boundary sets shrink on graphs whose node ids do
  /// not correlate with structure (docs/SHARDING.md). Ownership only: the
  /// ghost-label invariant is a property of how MaterializeShard labels
  /// non-owned nodes, so it holds under any ownership map, this one
  /// included.
  static ShardPartition Structure(const Graph& g, uint32_t k);
};

/// Partitioner selector shared by the CLI (`qpgc_tool --partitioner=`),
/// serve-sim, and ShardedManagerOptions.
enum class PartitionerKind {
  kHash,        ///< ShardPartition::Hash — structure-blind workhorse.
  kContiguous,  ///< ShardPartition::Contiguous — id-locality baseline.
  kStructure,   ///< ShardPartition::Structure — SCC-coarsened topo chunks.
};

/// Parses "hash" / "contiguous" / "structure"; returns false on anything
/// else (boundary-validating callers reject instead of aborting).
bool ParsePartitionerKind(const char* name, PartitionerKind* out);

/// The canonical name for `kind` (inverse of ParsePartitionerKind).
const char* PartitionerKindName(PartitionerKind kind);

/// Builds the partition `kind` over g's node universe (the graph is only
/// inspected by kStructure; the others use just the node count).
ShardPartition BuildPartition(PartitionerKind kind, const Graph& g, uint32_t k,
                              uint64_t hash_seed = 0);

/// Materializes shard `shard` of `base` as a dynamic Graph (same node
/// universe, owned-source edges, ghost-label overlay) — the mutable
/// source-of-truth representation each per-shard serving writer maintains.
template <GraphView G>
Graph MaterializeShard(const G& base, const ShardPartition& part,
                       uint32_t shard) {
  QPGC_CHECK(base.num_nodes() == part.num_nodes());
  QPGC_CHECK(base.num_nodes() < kNoLabel - kGhostLabelBase);
  GraphBuilder builder(base.num_nodes());
  for (NodeId v = 0; v < base.num_nodes(); ++v) {
    const bool owned = part.shard_of[v] == shard;
    QPGC_CHECK(!owned || !IsGhostLabel(base.label(v)));
    builder.SetLabel(v, owned ? base.label(v) : GhostLabel(v));
    if (owned) {
      for (NodeId w : base.OutNeighbors(v)) builder.AddEdge(v, w);
    }
  }
  return builder.Build();
}

}  // namespace qpgc

#endif  // QPGC_GRAPH_SHARD_VIEW_H_
