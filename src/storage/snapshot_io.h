// Copyright 2026 The QPGC Authors.
//
// Save / load of serving snapshots as on-disk artifacts (storage/format.h).
//
// The writer serializes a frozen ServingSnapshot — both quotient CSRs, node
// maps, member index, boundary tables, and (sharded saves) the shard
// partition — choosing the tightest admissible offset encoding per section
// (storage/codec.h) unless pinned to raw64. There is one reader,
// MmapSnapshot::Open (storage/mmap_snapshot.h): it parses (ParseArtifact),
// checks and wires every section kind. The heap loaders are copies of it:
//
//   * LoadServingSnapshot — Open, then copy into heap-owned frozen sides;
//     the boundary summary is NOT stored, it is deterministic in the reach
//     side + boundary sets and rebuilt here (serve/boundary_summary.h).
//   * LoadShardSet — K per-shard artifacts into the router-ready pinned
//     form (each file is self-describing: it carries the partition).
//
// Failure policy: every reader returns Status on malformed input — bad
// magic, foreign version, truncation, checksum mismatch, structurally
// invalid sections — and never feeds unvalidated bytes to QPGC_CHECK-ing
// core code (tests/storage_corruption_test.cc drives this with a
// deterministic mutator).

#ifndef QPGC_STORAGE_SNAPSHOT_IO_H_
#define QPGC_STORAGE_SNAPSHOT_IO_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/pattern_scheme.h"
#include "graph/graph.h"
#include "graph/shard_view.h"
#include "reach/compress_r.h"
#include "serve/snapshot.h"
#include "storage/codec.h"
#include "storage/format.h"
#include "util/lifetime_annotations.h"
#include "util/status.h"

namespace qpgc::storage {

/// How CSR index (offset) sections are encoded.
enum class IndexEncoding {
  /// Tightest admissible per section (ChooseOffsetEncoding): kDelta16,
  /// else kRaw32, else kRaw64.
  kAuto,
  /// Plain 8-byte offsets everywhere (the baseline bench_storage compares
  /// the compact encodings against).
  kRaw64,
};

struct SaveOptions {
  IndexEncoding index_encoding = IndexEncoding::kAuto;
  /// Store adjacency target sections as varint gap runs instead of raw u32
  /// — smallest file, but the mmap reader must decode them to heap at open
  /// (the cold-shard trade-off; docs/STORAGE.md).
  bool varint_adjacency = false;
  /// Stamped into the header. A sharded save must also pass `partition`.
  uint32_t shard = 0;
  uint32_t num_shards = 1;
  /// Saved as a kPartitionShardOf section when num_shards > 1, making each
  /// shard file self-describing. Must outlive the call.
  const ShardPartition* partition = nullptr;
};

/// Serializes a frozen snapshot to `path` (whole file replaced).
Status SaveSnapshot(const ServingSnapshot& snap, const std::string& path,
                    const SaveOptions& options = {});

struct LoadOptions {
  /// Verify the artifact before serving it: every section's payload
  /// checksum, plus the structural invariants (monotone offsets, in-range
  /// strictly ascending adjacency runs, each quotient's in-direction the
  /// exact transpose of its out-direction, in-range maps and cross edges).
  /// The header and section-table checksums, the file length and the O(1)
  /// section shapes are checked regardless. Turning this off is only safe
  /// for trusted artifacts: core code QPGC_CHECK-aborts on malformed input
  /// instead of returning.
  bool verify = true;
};

/// A parsed artifact: validated header plus section table, views into the
/// caller's bytes (which must outlive the ParsedArtifact). The first step
/// of MmapSnapshot::Open; tools list the section table from it.
struct QPGC_GSL_POINTER ParsedArtifact {
  FileHeader header{};
  std::span<const SectionEntry> table;
  std::span<const std::byte> bytes;

  /// The table entry of `kind`, or nullptr when absent.
  const SectionEntry* Find(SectionKind kind) const;
  /// The stored bytes of a table entry (bounds already validated).
  std::span<const std::byte> SectionBytes(const SectionEntry& entry) const {
    return bytes.subspan(entry.offset, entry.stored_bytes);
  }
};

/// Validates magic, format version, header/table checksums, total length,
/// and every entry's bounds and alignment; with `verify_payload_checksums`
/// also every section's payload checksum.
Result<ParsedArtifact> ParseArtifact(std::span<const std::byte> bytes,
                                     bool verify_payload_checksums);

/// Structural validation of one CSR-shaped index: offsets monotone from 0
/// to targets.size(), every run strictly ascending with targets <
/// target_universe. The row count (offsets.size() - 1) is the caller's to
/// check — for adjacency it equals the node count, for the member index it
/// is the block count while targets live in the original node universe.
/// What makes a section safe to AdoptCsr / serve without bounds faults.
Status ValidateCsr(const OffsetsView& offsets, std::span<const NodeId> targets,
                   size_t target_universe);

/// A heap-loaded snapshot plus its header identity.
struct LoadedSnapshot {
  std::shared_ptr<const ServingSnapshot> snapshot;
  uint32_t shard = 0;
  uint32_t num_shards = 1;
};

/// Opens `path` (MmapSnapshot::Open) and copies it into heap-owned frozen
/// sides; sharded artifacts get their boundary summary rebuilt
/// (deterministic; not stored).
Result<LoadedSnapshot> LoadServingSnapshot(const std::string& path,
                                           const LoadOptions& options = {});

/// A complete sharded serving state loaded from per-shard artifacts, in the
/// form serve/router.h's PinnedShards consumes directly.
struct LoadedShardSet {
  std::shared_ptr<const ShardPartition> partition;
  /// snapshots[s] is shard s's snapshot.
  std::vector<std::shared_ptr<const ServingSnapshot>> snapshots;
};

/// Loads one artifact per shard (any path order; files carry their shard
/// ids) and cross-checks that they form one consistent set: same shard
/// count, same node universe, identical partition, one file per shard.
Result<LoadedShardSet> LoadShardSet(const std::vector<std::string>& paths,
                                    const LoadOptions& options = {});

/// The maintained-artifact pair reconstructed from an unsharded snapshot,
/// for SnapshotManager adoption (serve/snapshot_manager.h).
struct ReconstructedArtifacts {
  ReachCompression rc;
  PatternCompression pc;
};

/// Rebuilds {ReachCompression, PatternCompression} from a loaded unsharded
/// snapshot plus the original graph it was compressed from. The frozen
/// sides carry the *reduced* reach quotient; the edge-faithful unreduced
/// quotient that IncRCM requires is rebuilt from `g` in O(|V| + |E|)
/// (mirroring CompressR's construction), so post-adoption incremental
/// maintenance is exact. A side saved as G itself — the identity node map
/// over exactly g's edges (serve/snapshot_manager.h) — holds no quotient,
/// so that side is compressed from `g` instead. Rejects sharded snapshots
/// (ghost blocks / cross edges / boundary tables), graphs whose node count
/// or labels disagree with the snapshot, and a reach side that is neither
/// a quotient (a DAG but for self-loops) nor the identity image of `g`.
Result<ReconstructedArtifacts> ReconstructArtifacts(
    const Graph& g, const ServingSnapshot& snap);

}  // namespace qpgc::storage

#endif  // QPGC_STORAGE_SNAPSHOT_IO_H_
