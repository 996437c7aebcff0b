// Copyright 2026 The QPGC Authors.
//
// ServingSnapshot: one immutable, versioned serving artifact. It bundles
// everything the read path needs to answer the paper's two query classes —
// the frozen CSR layout of the reachability quotient Gr plus its node map
// (Section 3: F rewrites, then a stock algorithm runs on Gr), and the frozen
// bisimulation quotient plus node map and member index (Section 4: F is the
// identity, P expands blocks) — under a single version id.
//
// A snapshot is an immutable value: one constructor assembles it from two
// independently shareable *sides* (FrozenReachSide / FrozenPatternSide),
// and nothing changes it afterwards. Consecutive versions that only moved
// one artifact share the untouched side's frozen arrays by pointer: a
// reach-only update stream freezes a fresh reach side per publish while
// every version keeps pointing at the same frozen pattern side (and vice
// versa). Sharing is transparent to readers and is what makes per-artifact
// publish cost track which dirty cone actually moved
// (serve/snapshot_manager.h decides, from a per-side dirty flag that an
// Apply sets when it moves that side).
//
// A side is either a quotient or G itself: the trivial <R, F, P> with
// R = id (SideRepresentation::kIdentity), which the manager serves where the
// quotient merges (almost) nothing (serve/snapshot_manager.h). An identity
// side is a freeze of G with the identity node map (and, on the pattern
// side, a singleton member index); when both sides of a version are
// identity they share one frozen graph.
//
// Sharded serving additionally stamps each per-shard snapshot with its
// *boundary-exit table* — the ghost nodes (non-owned nodes, see
// graph/shard_view.h) that have in-edges inside this shard, i.e. the nodes
// where a path can leave the shard — and its *boundary summary*
// (serve/boundary_summary.h): the precomputed entry-to-exit reachability
// slice of the reach quotient that the router's boundary-graph search
// walks instead of sweeping whole quotients per query. Freezing both into
// the snapshot keeps them consistent with the frozen graph version by
// construction; docs/SHARDING.md has the full soundness story.
//
// Thread-safety contract: every member function is const and touches only
// state fixed at construction, so any number of threads may query one
// snapshot lock-free. Readers pin a snapshot with a shared_ptr for the
// duration of a query; the snapshot (and its shared sides) stay valid for
// as long as any handle lives, across any number of later publishes and
// even past the owning manager's destruction. Whichever handle drops last
// frees the snapshot, and with it every side no other snapshot shares.
//
// Lifetime contract: every span/reference accessor below hands out a view
// into this snapshot's frozen sides, valid only while a pin on the snapshot
// is held (the pin-scope rule, docs/LIFETIMES.md): once the last pin drops,
// the view points into freed memory. The accessors are
// lifetimebound-annotated and tools/qpgc_pin_escape.py rejects the escape
// shapes the annotations cannot see (dereferencing an unnamed pin, storing
// a snapshot-derived view in a member).

#ifndef QPGC_SERVE_SNAPSHOT_H_
#define QPGC_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/pattern_scheme.h"
#include "graph/csr.h"
#include "pattern/match.h"
#include "pattern/pattern.h"
#include "reach/compress_r.h"
#include "reach/queries.h"
#include "serve/boundary_summary.h"
#include "util/lifetime_annotations.h"

namespace qpgc {

/// How a frozen side represents its compression.
enum class SideRepresentation {
  /// The quotient Gr with its node map (and member index).
  kQuotient,
  /// G itself: a freeze of G, the identity node map and singleton blocks.
  kIdentity,
};

/// The frozen reachability artifact: CSR quotient Gr plus the node map
/// R(v). The graph is held by pointer: a quotient side shares the
/// maintained artifact's Gr, and an identity side shares the one freeze of
/// G with the pattern side.
struct FrozenReachSide {
  std::shared_ptr<const CsrGraph> gr;
  std::vector<NodeId> node_map;
  SideRepresentation representation = SideRepresentation::kQuotient;

  /// Writer-side fill from the maintained artifact, replacing whatever the
  /// side held before: shares rc.gr by pointer and copies the node map.
  void Fill(const ReachCompression& rc);
  /// Writer-side fill as G itself: `g` is a freeze of G, shared, and the
  /// node map is the identity.
  void FillIdentity(std::shared_ptr<const CsrGraph> g);
  /// Heap bytes held by this side, its graph included.
  size_t MemoryBytes() const;
};

/// The frozen pattern artifact, in *compact* form: ghost singleton blocks
/// (sharded serving's non-owned nodes, recognizable by their synthetic
/// labels — graph/shard_view.h) are dropped at freeze time, because they
/// are fully determined by their sole member: no out-edges, a label no
/// pattern can carry. What remains is
///  * `gr` — the CSR quotient restricted to the owned blocks, renumbered
///    densely (for an unsharded manager this is the whole quotient),
///  * `node_map` — original node -> compact block; ghost nodes map to
///    kInvalidNode,
///  * the member index, flattened CSR-style (offsets + one contiguous id
///    array — freezing it is two bulk copies instead of one small copy per
///    block). The offsets are 32-bit: they index member_flat, which holds
///    at most |V| 32-bit node ids, so they always fit,
///  * `cross_edges` — the quotient edges that pointed into ghost blocks,
///    as (compact owned block, ghost node id) pairs; the router's stitched
///    quotient resolves them to the ghost's home-shard block.
/// Dropping the ghosts is what keeps per-shard freeze cost proportional to
/// the shard's own compressed size instead of the global node count. With
/// no ghosts (unsharded serving) `gr` is the maintained artifact's Gr,
/// shared by pointer.
/// Precondition (checked loudly in Fill): every label in the ghost range
/// must be a genuine per-node ghost label — i.e. served graphs carry real
/// labels below kGhostLabelBase (graph/shard_view.h's LabelsShardable).
struct FrozenPatternSide {
  std::shared_ptr<const CsrGraph> gr;
  std::vector<NodeId> node_map;
  std::vector<uint32_t> member_offsets;  // num owned blocks + 1 entries
  std::vector<NodeId> member_flat;       // owned nodes, grouped by block
  std::vector<std::pair<NodeId, NodeId>> cross_edges;
  SideRepresentation representation = SideRepresentation::kQuotient;

  /// Members of compact block c, ascending.
  std::span<const NodeId> block_members(NodeId c) const QPGC_LIFETIME_BOUND {
    return {member_flat.data() + member_offsets[c],
            member_flat.data() + member_offsets[c + 1]};
  }

  /// Writer-side fill from the maintained artifact, replacing whatever the
  /// side held before.
  void Fill(const PatternCompression& pc);
  /// Writer-side fills as G itself, every node its own block. The first
  /// shares `g`, a freeze of a graph without ghost nodes (unsharded
  /// serving); the second freezes a shard's graph through the same
  /// ghost-dropping path as Fill, cross edges included.
  void FillIdentity(std::shared_ptr<const CsrGraph> g);
  void FillIdentity(const Graph& g);
  /// Heap bytes held by this side, its graph included.
  size_t MemoryBytes() const;
};

/// An immutable, versioned pair of frozen compressed graphs plus the
/// quotient metadata needed to answer rewritten queries (see file comment
/// for the sharing and thread-safety contracts).
class ServingSnapshot {
 public:
  /// Assembles version `version` from filled frozen sides, both non-null
  /// (checked) and possibly shared with other versions: the manager passes
  /// the sides the update stream left untouched through from the previous
  /// version.
  /// `boundary_exits` must be sorted ascending (null or empty for
  /// unsharded serving); it is shared by pointer — consecutive versions
  /// whose exit membership did not change reuse one immutable vector.
  /// `boundary_summary` (null for unsharded serving) must have been built
  /// from the same reach side and exit table; the manager reuses the
  /// previous version's summary when all three inputs carried over.
  ServingSnapshot(uint64_t version,
                  std::shared_ptr<const FrozenReachSide> reach,
                  std::shared_ptr<const FrozenPatternSide> pattern,
                  std::shared_ptr<const std::vector<NodeId>> boundary_exits =
                      nullptr,
                  std::shared_ptr<const FrozenBoundarySummary>
                      boundary_summary = nullptr);

  uint64_t version() const { return version_; }
  /// |V| of the original graph this version was compressed from.
  size_t original_num_nodes() const { return reach_->node_map.size(); }

  /// QR(u, v) on the original node ids: rewrite through the reach node map,
  /// then BFS on the frozen quotient (Theorem 2).
  bool Reach(NodeId u, NodeId v, PathMode mode = PathMode::kReflexive) const;

  /// One router wave against this shard: resolves, for every entry in
  /// `sources`, whether `target` is reachable (return value) and which of
  /// this snapshot's boundary_exits() are — appended to `reached_exits` as
  /// *indexes into boundary_exits()*, in discovery order, each at most once
  /// (the vector is cleared first) — all by non-empty paths, in one BFS
  /// over the frozen quotient regardless of the number of sources. Emitting
  /// indexes off the visited-block queue beats a stamp probe per exit: most
  /// visited blocks carry no exits at all. Scratch space is thread-local;
  /// any number of threads may call concurrently.
  bool ResolveWave(std::span<const NodeId> sources, NodeId target,
                   std::vector<NodeId>& reached_exits) const;

  /// The return-value half of ResolveWave alone, with sources given as
  /// quotient block ids (reach_map() images): true iff some source block
  /// reaches `target` by a non-empty path. The router's final case-3 sweep
  /// uses this — its route tables carry each entry's block, and the sweep
  /// needs no exit mask.
  bool ResolveTargetBlocks(std::span<const NodeId> source_blocks,
                           NodeId target) const;

  /// The maximum match of q, expanded back to original node ids (F = id,
  /// Match on the frozen quotient, then P; Theorem 4).
  MatchResult Match(const PatternQuery& q) const;

  /// Boolean pattern query — evaluated on the frozen quotient, no P needed.
  bool BooleanMatch(const PatternQuery& q) const;

  /// The frozen reachability quotient, or G for an identity side (for stats
  /// / direct sweeps). Like every accessor below, valid only while a pin on
  /// this snapshot is held (the pin-scope rule).
  const CsrGraph& reach_gr() const QPGC_LIFETIME_BOUND { return *reach_->gr; }
  /// The reach node map R(v): original node -> reach-quotient block (what
  /// the answer cache canonicalizes reach keys through).
  const std::vector<NodeId>& reach_map() const QPGC_LIFETIME_BOUND {
    return reach_->node_map;
  }
  /// The frozen bisimulation quotient (owned blocks only — see
  /// FrozenPatternSide).
  const CsrGraph& pattern_gr() const QPGC_LIFETIME_BOUND {
    return *pattern_->gr;
  }
  /// Block map, member index, and ghost-directed cross edges of the frozen
  /// bisimulation quotient (what the router's stitched cross-shard quotient
  /// is built from). pattern_map() maps ghost nodes to kInvalidNode.
  const std::vector<NodeId>& pattern_map() const QPGC_LIFETIME_BOUND {
    return pattern_->node_map;
  }
  std::span<const NodeId> pattern_block_members(NodeId block) const
      QPGC_LIFETIME_BOUND {
    return pattern_->block_members(block);
  }
  const std::vector<std::pair<NodeId, NodeId>>& pattern_cross_edges() const
      QPGC_LIFETIME_BOUND {
    return pattern_->cross_edges;
  }

  /// How each side represents its compression.
  SideRepresentation reach_representation() const {
    return reach_->representation;
  }
  SideRepresentation pattern_representation() const {
    return pattern_->representation;
  }

  /// Shared handles to the sides (the manager passes an untouched side
  /// through to the next version).
  std::shared_ptr<const FrozenReachSide> reach_side() const { return reach_; }
  std::shared_ptr<const FrozenPatternSide> pattern_side() const {
    return pattern_;
  }

  /// Boundary-exit nodes of this shard at this version, sorted ascending:
  /// ghost nodes with at least one in-edge inside the shard. Empty for
  /// unsharded serving.
  const std::vector<NodeId>& boundary_exits() const QPGC_LIFETIME_BOUND;

  /// The shared exit-table handle (pointer identity is the manager's
  /// summary-reuse key); null for unsharded serving.
  const std::shared_ptr<const std::vector<NodeId>>& boundary_exits_ptr()
      const {
    return boundary_exits_;
  }

  /// The frozen boundary summary (serve/boundary_summary.h) for the
  /// router's boundary-graph search; null for unsharded serving. Pin-scope
  /// rule applies.
  const FrozenBoundarySummary* boundary_summary() const QPGC_LIFETIME_BOUND {
    return boundary_summary_.get();
  }

  /// Shared handle to the summary (for cross-version reuse in the
  /// manager's publish path).
  const std::shared_ptr<const FrozenBoundarySummary>& boundary_summary_side()
      const {
    return boundary_summary_;
  }

  /// Heap bytes held by this snapshot. A graph both sides share is counted
  /// once; shared sides are counted in full in every snapshot that
  /// references them (per-handle accounting, not deduplicated across
  /// versions).
  size_t MemoryBytes() const;

 private:
  uint64_t version_;
  std::shared_ptr<const FrozenReachSide> reach_;
  std::shared_ptr<const FrozenPatternSide> pattern_;
  std::shared_ptr<const std::vector<NodeId>> boundary_exits_;
  std::shared_ptr<const FrozenBoundarySummary> boundary_summary_;
  // reach_map() image of each boundary exit, parallel to *boundary_exits_,
  // plus its inverse — exit indexes grouped by quotient block (CSR) — both
  // computed by the constructor. ResolveWave runs thousands of times per
  // routed query; walking a visited block's (usually empty) exit-index run
  // beats a node-map load and stamp probe per exit.
  std::vector<NodeId> exit_block_;
  std::vector<uint32_t> block_exit_offsets_;  // quotient nodes + 1
  std::vector<NodeId> block_exit_index_;
};

}  // namespace qpgc

#endif  // QPGC_SERVE_SNAPSHOT_H_
