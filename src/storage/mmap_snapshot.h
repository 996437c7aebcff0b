// Copyright 2026 The QPGC Authors.
//
// Out-of-core serving: MmapSnapshot answers the paper's query classes
// directly off a memory-mapped snapshot artifact (storage/format.h) — no
// deserialization, no heap copy of the quotients. MmapCsrGraph models the
// GraphView concept over the mapped sections, so the exact same templated
// algorithms that serve an in-RAM ServingSnapshot (graph/traversal.h
// BfsReaches, pattern/match.h Match/BooleanMatch, core/pattern_scheme.h
// ExpandMatchWith) run unchanged against the mapping; answers are
// differentially tested byte-equal to the in-RAM path
// (tests/storage_roundtrip_test.cc).
//
// Cold-start economics: Open() reads only the header and section table
// (plus the optional verification pass); quotient pages fault in lazily as
// queries touch them, and the kernel shares one page-cache copy across
// every process mapping the same artifact. kVarint-encoded adjacency
// sections are the exception — not addressable in place, they are decoded
// to heap once at Open (the cold-shard trade-off, docs/STORAGE.md).
//
// One reader: Open() is the only code that decodes artifact sections. It
// wires every section kind of storage/format.h, and the heap loaders of
// storage/snapshot_io.h (LoadServingSnapshot, LoadShardSet) are copies of
// an opened MmapSnapshot.
//
// Trust model: Open() defaults to LoadOptions{/*verify=*/false} — header,
// section table, their checksums, the total file length and every
// offset's bounds are ALWAYS checked, but payload bytes are served as-is.
// That is the out-of-core fast path for artifacts this process (or its
// deploy pipeline) wrote. For artifacts of unknown provenance pass
// LoadOptions{/*verify=*/true}: a payload bit flip can otherwise produce
// wrong answers or out-of-bounds reads, exactly like any mmap-serving store.
//
// Lifetime: MmapCsrGraph and every span accessor view the mapping owned by
// the MmapSnapshot; they are valid only while it lives (docs/LIFETIMES.md;
// the same pin-scope discipline as frozen serving sides). MmapSnapshot is
// movable — views stay valid because the mapping address and decoded heap
// buffers are stable under move.

#ifndef QPGC_STORAGE_MMAP_SNAPSHOT_H_
#define QPGC_STORAGE_MMAP_SNAPSHOT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/graph_view.h"
#include "graph/label_index.h"
#include "pattern/match.h"
#include "pattern/pattern.h"
#include "reach/queries.h"
#include "storage/codec.h"
#include "storage/mmap_file.h"
#include "storage/snapshot_io.h"
#include "util/common.h"
#include "util/lifetime_annotations.h"

namespace qpgc::storage {

/// A CSR graph served in place from mapped artifact sections. Models
/// GraphView and DenseInEdgeView (graph/graph_view.h); every batch algorithm
/// and query evaluator runs on it unchanged. A view — valid only while the
/// owning MmapSnapshot lives. Its one heap state is the label index,
/// built on the first Match exactly as CsrGraph's is; a copy starts without
/// one.
class QPGC_GSL_POINTER MmapCsrGraph {
 public:
  MmapCsrGraph() = default;

  size_t num_nodes() const { return n_; }
  size_t num_edges() const { return m_; }
  size_t size() const { return n_ + m_; }

  std::span<const NodeId> OutNeighbors(NodeId u) const QPGC_LIFETIME_BOUND {
    QPGC_DCHECK(u < n_);
    const uint64_t begin = out_offsets_[u];
    return out_targets_.subspan(begin, out_offsets_[u + 1] - begin);
  }
  std::span<const NodeId> InNeighbors(NodeId u) const QPGC_LIFETIME_BOUND {
    QPGC_DCHECK(u < n_);
    const uint64_t begin = in_offsets_[u];
    return in_targets_.subspan(begin, in_offsets_[u + 1] - begin);
  }
  size_t OutDegree(NodeId u) const {
    return out_offsets_[u + 1] - out_offsets_[u];
  }
  size_t InDegree(NodeId u) const {
    return in_offsets_[u + 1] - in_offsets_[u];
  }
  bool HasEdge(NodeId u, NodeId v) const { return ViewHasEdge(*this, u, v); }
  Label label(NodeId u) const { return labels_[u]; }

  /// The node ids grouped by label (graph/label_index.h), built on the
  /// first call and installed lock-free, as CsrGraph::label_index(). The
  /// reference is valid while this graph — and so its MmapSnapshot — lives.
  const LabelIndex& label_index() const QPGC_LIFETIME_BOUND;
  /// Heap bytes of the label index; 0 until it is built.
  size_t LabelIndexBytes() const { return label_index_.MemoryBytes(); }

  /// Every out-edge target, OutNeighbors(0) .. OutNeighbors(n - 1) back to
  /// back.
  std::span<const NodeId> OutEdgeTargets() const QPGC_LIFETIME_BOUND {
    return out_targets_;
  }

  /// Dense in-edge interface (DenseInEdgeView): lets the PT engine borrow
  /// the mapped in-source array instead of materializing its own.
  size_t InEdgeBegin(NodeId u) const { return in_offsets_[u]; }
  std::span<const NodeId> InEdgeSources() const QPGC_LIFETIME_BOUND {
    return in_targets_;
  }

 private:
  friend class MmapSnapshot;
  friend struct MmapWire;  // Open()'s section-wiring helper (the .cc)

  OffsetsView out_offsets_;
  OffsetsView in_offsets_;
  std::span<const NodeId> out_targets_;
  std::span<const NodeId> in_targets_;
  U32View labels_;
  size_t n_ = 0;
  size_t m_ = 0;
  LabelIndexSlot label_index_;
};

static_assert(GraphView<MmapCsrGraph>);
static_assert(DenseInEdgeView<MmapCsrGraph>);
static_assert(LabelIndexedView<MmapCsrGraph>);

/// One snapshot artifact, opened for serving off the mapping (see file
/// comment for the cold-start and trust contracts). Read-only after Open
/// but for the pattern graph's lazily installed label index: any number of
/// threads may query concurrently, same as a pinned ServingSnapshot.
class QPGC_GSL_OWNER MmapSnapshot {
 public:
  MmapSnapshot() = default;

  /// Maps `path` and wires the serving views. Defaults are the trusted
  /// fast path (no payload verification — see the trust model above); pass
  /// LoadOptions{/*verify=*/true} for artifacts of unknown provenance.
  static Result<MmapSnapshot> Open(
      const std::string& path,
      const LoadOptions& options = LoadOptions{/*verify=*/false});

  // --- Identity -------------------------------------------------------------

  uint64_t version() const { return header_.snapshot_version; }
  size_t original_num_nodes() const { return header_.original_num_nodes; }
  uint32_t shard() const { return header_.shard; }
  uint32_t num_shards() const { return header_.num_shards; }

  // --- Queries (mirror ServingSnapshot's semantics exactly) -----------------

  /// QR(u, v) on original node ids: rewrite through the mapped reach node
  /// map, BFS on the mapped quotient (Theorem 2).
  bool Reach(NodeId u, NodeId v, PathMode mode = PathMode::kReflexive) const {
    QPGC_CHECK(u < reach_map_.size() && v < reach_map_.size());
    if (mode == PathMode::kReflexive && u == v) return true;
    return BfsReaches(reach_gr_, reach_map_[u], reach_map_[v],
                      PathMode::kNonEmpty);
  }

  /// The maximum match of q, expanded to original node ids (F = id, Match
  /// on the mapped quotient, then the shared P).
  MatchResult Match(const PatternQuery& q) const;

  /// Boolean pattern query on the mapped quotient; no P needed.
  bool BooleanMatch(const PatternQuery& q) const;

  // --- Mapped artifact views (valid while this snapshot lives) --------------

  const MmapCsrGraph& reach_gr() const QPGC_LIFETIME_BOUND {
    return reach_gr_;
  }
  const MmapCsrGraph& pattern_gr() const QPGC_LIFETIME_BOUND {
    return pattern_gr_;
  }
  std::span<const NodeId> reach_map() const QPGC_LIFETIME_BOUND {
    return reach_map_;
  }
  std::span<const NodeId> pattern_map() const QPGC_LIFETIME_BOUND {
    return pattern_map_;
  }
  std::span<const NodeId> pattern_block_members(NodeId block) const
      QPGC_LIFETIME_BOUND {
    const uint64_t begin = member_offsets_[block];
    return member_flat_.subspan(begin, member_offsets_[block + 1] - begin);
  }
  /// Every block's members, pattern_block_members(0) .. (last block) back
  /// to back.
  std::span<const NodeId> pattern_members() const QPGC_LIFETIME_BOUND {
    return member_flat_;
  }
  /// Pattern edges into ghost blocks (sharded artifacts; empty otherwise),
  /// flattened: (owned block, ghost node) pairs.
  std::span<const NodeId> cross_edges() const QPGC_LIFETIME_BOUND {
    return cross_edges_;
  }
  /// Boundary-exit and boundary-entry nodes, each strictly ascending
  /// (sharded artifacts; empty otherwise). has_boundary_*() tells an
  /// absent table from an empty one.
  std::span<const NodeId> boundary_exits() const QPGC_LIFETIME_BOUND {
    return boundary_exits_;
  }
  std::span<const NodeId> boundary_entries() const QPGC_LIFETIME_BOUND {
    return boundary_entries_;
  }
  bool has_boundary_exits() const { return has_boundary_exits_; }
  bool has_boundary_entries() const { return has_boundary_entries_; }
  /// Owning shard of every original node (sharded saves; empty otherwise).
  std::span<const uint32_t> partition() const QPGC_LIFETIME_BOUND {
    return partition_;
  }

  // --- Accounting -----------------------------------------------------------

  /// Bytes of the mapping (charged to page cache on demand, not resident
  /// up front).
  size_t MappedBytes() const { return file_.size(); }
  /// Heap bytes materialized off the mapping: the sections decoded at Open
  /// (kVarint adjacency; none for raw-encoded artifacts) plus the label
  /// index once a Match has built it — the bench's resident-cost axis.
  size_t DecodedHeapBytes() const;

 private:
  // Checks and wires every section of `parsed` (Open's body).
  Status Wire(const ParsedArtifact& parsed, bool verify);

  MmapFile file_;
  FileHeader header_{};
  MmapCsrGraph reach_gr_;
  MmapCsrGraph pattern_gr_;
  // Self-referential views into file_ / decoded_ below — both address-
  // stable under move, so these can never dangle while *this lives.
  // qpgc-pin-escape: allow(member-view-store)
  std::span<const NodeId> reach_map_;
  // qpgc-pin-escape: allow(member-view-store)
  std::span<const NodeId> pattern_map_;
  OffsetsView member_offsets_;
  // qpgc-pin-escape: allow(member-view-store)
  std::span<const NodeId> member_flat_;
  // qpgc-pin-escape: allow(member-view-store)
  std::span<const NodeId> cross_edges_;
  // qpgc-pin-escape: allow(member-view-store)
  std::span<const NodeId> boundary_exits_;
  // qpgc-pin-escape: allow(member-view-store)
  std::span<const NodeId> boundary_entries_;
  // qpgc-pin-escape: allow(member-view-store)
  std::span<const uint32_t> partition_;
  bool has_boundary_exits_ = false;
  bool has_boundary_entries_ = false;
  // Stable backing for sections that cannot be served in place (kVarint
  // adjacency, defensively kConstU32): spans above may point into these.
  // vector-of-vectors so growth never moves an already-referenced buffer.
  std::vector<std::vector<NodeId>> decoded_;
};

}  // namespace qpgc::storage

#endif  // QPGC_STORAGE_MMAP_SNAPSHOT_H_
