// Copyright 2026 The QPGC Authors.

#include "storage/snapshot_io.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <utility>

#include "graph/builder.h"
#include "graph/topology.h"
#include "serve/boundary_summary.h"
#include "storage/mmap_snapshot.h"

namespace qpgc::storage {
namespace {

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

EncodedSection RawU32Section(std::span<const uint32_t> values) {
  EncodedSection enc;
  enc.encoding = SectionEncoding::kRaw32;
  enc.element_count = values.size();
  const auto* p = reinterpret_cast<const std::byte*>(values.data());
  enc.bytes.assign(p, p + values.size_bytes());
  return enc;
}

// Accumulates (kind, payload) pairs, then lays the file out.
class ArtifactWriter {
 public:
  explicit ArtifactWriter(const SaveOptions& options) : options_(options) {}

  void AddOffsets(SectionKind kind, std::span<const uint64_t> offsets) {
    const SectionEncoding enc =
        options_.index_encoding == IndexEncoding::kRaw64
            ? SectionEncoding::kRaw64
            : ChooseOffsetEncoding(offsets);
    sections_.emplace_back(kind, EncodeOffsets(offsets, enc));
  }

  // Adjacency targets: varint gap runs when requested, raw u32 otherwise.
  // Never kConstU32 — the mmap reader serves targets as in-place spans.
  void AddTargets(SectionKind kind, std::span<const uint64_t> offsets,
                  std::span<const NodeId> targets) {
    if (options_.varint_adjacency) {
      sections_.emplace_back(kind, EncodeVarintTargets(offsets, targets));
    } else {
      sections_.emplace_back(kind, RawU32Section(targets));
    }
  }

  void AddLabels(SectionKind kind, std::span<const Label> labels) {
    // Const-detected: the reach quotient's labels are uniformly kNoLabel.
    sections_.emplace_back(kind, EncodeU32(labels));
  }

  void AddRawU32(SectionKind kind, std::span<const uint32_t> values) {
    sections_.emplace_back(kind, RawU32Section(values));
  }

  Status WriteTo(const std::string& path, uint64_t snapshot_version,
                 uint64_t original_num_nodes) const {
    const uint64_t meta_bytes =
        sizeof(FileHeader) + sections_.size() * sizeof(SectionEntry);
    std::vector<SectionEntry> table(sections_.size());
    uint64_t at = AlignUp(meta_bytes);
    for (size_t i = 0; i < sections_.size(); ++i) {
      const EncodedSection& enc = sections_[i].second;
      SectionEntry& entry = table[i];
      entry.kind = static_cast<uint32_t>(sections_[i].first);
      entry.encoding = static_cast<uint32_t>(enc.encoding);
      entry.offset = at;
      entry.stored_bytes = enc.bytes.size();
      entry.element_count = enc.element_count;
      entry.checksum = Fnv1a64(enc.bytes);
      at = AlignUp(at + entry.stored_bytes);
    }

    FileHeader header{};
    std::memcpy(header.magic, kMagic, sizeof(kMagic));
    header.format_version = kFormatVersion;
    header.section_count = static_cast<uint32_t>(sections_.size());
    header.snapshot_version = snapshot_version;
    header.original_num_nodes = original_num_nodes;
    header.shard = options_.shard;
    header.num_shards = options_.num_shards;
    header.file_bytes = at;
    header.table_checksum = Fnv1a64(
        {reinterpret_cast<const std::byte*>(table.data()),
         table.size() * sizeof(SectionEntry)});
    header.header_checksum = 0;
    header.header_checksum = Fnv1a64(
        {reinterpret_cast<const std::byte*>(&header), sizeof(header)});

    // Assemble in memory (alignment padding zero-filled), one write call.
    std::vector<std::byte> file(at, std::byte{0});
    std::memcpy(file.data(), &header, sizeof(header));
    std::memcpy(file.data() + sizeof(header), table.data(),
                table.size() * sizeof(SectionEntry));
    for (size_t i = 0; i < sections_.size(); ++i) {
      const EncodedSection& enc = sections_[i].second;
      // An empty section (an unsharded save's cross edges) has a null
      // data(), which memcpy must not be passed even for zero bytes.
      if (enc.bytes.empty()) continue;
      std::memcpy(file.data() + table[i].offset, enc.bytes.data(),
                  enc.bytes.size());
    }

    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("cannot open " + path + " for writing");
    out.write(reinterpret_cast<const char*>(file.data()),
              static_cast<std::streamsize>(file.size()));
    out.flush();
    if (!out) return Status::IoError("write failed: " + path);
    return Status::Ok();
  }

 private:
  const SaveOptions& options_;
  std::vector<std::pair<SectionKind, EncodedSection>> sections_;
};

// ---------------------------------------------------------------------------
// Heap copy of an opened artifact
// ---------------------------------------------------------------------------

// The out-direction and labels; CsrGraph::AdoptCsr derives the in-direction.
std::shared_ptr<const CsrGraph> CopyCsr(const MmapCsrGraph& mapped) {
  const size_t n = mapped.num_nodes();
  std::vector<uint64_t> offsets(n + 1, 0);
  std::vector<Label> labels(n);
  for (NodeId u = 0; u < n; ++u) {
    offsets[u + 1] = offsets[u] + mapped.OutDegree(u);
    labels[u] = mapped.label(u);
  }
  const std::span<const NodeId> targets = mapped.OutEdgeTargets();
  auto out = std::make_shared<CsrGraph>();
  out->AdoptCsr(std::move(offsets), {targets.begin(), targets.end()},
                std::move(labels));
  return out;
}

LoadedSnapshot CopyToHeap(const MmapSnapshot& mapped) {
  auto reach = std::make_shared<FrozenReachSide>();
  reach->gr = CopyCsr(mapped.reach_gr());
  reach->node_map.assign(mapped.reach_map().begin(), mapped.reach_map().end());

  auto pattern = std::make_shared<FrozenPatternSide>();
  pattern->gr = CopyCsr(mapped.pattern_gr());
  pattern->node_map.assign(mapped.pattern_map().begin(),
                           mapped.pattern_map().end());
  const size_t blocks = mapped.pattern_gr().num_nodes();
  pattern->member_offsets.assign(blocks + 1, 0);
  for (NodeId c = 0; c < blocks; ++c) {
    pattern->member_offsets[c + 1] =
        pattern->member_offsets[c] + mapped.pattern_block_members(c).size();
  }
  pattern->member_flat.assign(mapped.pattern_members().begin(),
                              mapped.pattern_members().end());
  const std::span<const NodeId> cross = mapped.cross_edges();
  pattern->cross_edges.resize(cross.size() / 2);
  for (size_t i = 0; i < pattern->cross_edges.size(); ++i) {
    pattern->cross_edges[i] = {cross[2 * i], cross[2 * i + 1]};
  }

  std::shared_ptr<const std::vector<NodeId>> exits;
  std::shared_ptr<const FrozenBoundarySummary> summary;
  if (mapped.has_boundary_exits()) {
    exits = std::make_shared<const std::vector<NodeId>>(
        mapped.boundary_exits().begin(), mapped.boundary_exits().end());
  }
  if (mapped.has_boundary_entries()) {
    // The summary is deterministic in (reach side, exits, entries) — never
    // stored, always rebuilt, so it cannot drift from the graph it
    // summarizes. Open checked both tables ascending and in range.
    auto built = std::make_shared<FrozenBoundarySummary>();
    built->Build(*reach->gr, reach->node_map, exits,
                 std::make_shared<const std::vector<NodeId>>(
                     mapped.boundary_entries().begin(),
                     mapped.boundary_entries().end()));
    summary = std::move(built);
  }

  return {std::make_shared<const ServingSnapshot>(
              mapped.version(), std::move(reach), std::move(pattern),
              std::move(exits), std::move(summary)),
          mapped.shard(), mapped.num_shards()};
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

const SectionEntry* ParsedArtifact::Find(SectionKind kind) const {
  for (const SectionEntry& entry : table) {
    if (entry.kind == static_cast<uint32_t>(kind)) return &entry;
  }
  return nullptr;
}

Result<ParsedArtifact> ParseArtifact(std::span<const std::byte> bytes,
                                     bool verify_payload_checksums) {
  ParsedArtifact parsed;
  if (bytes.size() < sizeof(FileHeader)) {
    return Status::CorruptData("artifact shorter than its header");
  }
  std::memcpy(&parsed.header, bytes.data(), sizeof(FileHeader));
  const FileHeader& header = parsed.header;
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::CorruptData("bad magic: not a qpgc snapshot artifact");
  }
  if (header.format_version != kFormatVersion) {
    return Status::InvalidArgument(
        "unsupported snapshot format version " +
        std::to_string(header.format_version) + " (this reader speaks " +
        std::to_string(kFormatVersion) + ")");
  }
  FileHeader unsigned_header = header;
  unsigned_header.header_checksum = 0;
  if (Fnv1a64({reinterpret_cast<const std::byte*>(&unsigned_header),
               sizeof(unsigned_header)}) != header.header_checksum) {
    return Status::CorruptData("header checksum mismatch");
  }
  if (header.file_bytes != bytes.size()) {
    return Status::CorruptData("file length disagrees with header (truncated?)");
  }
  const uint64_t table_bytes =
      uint64_t{header.section_count} * sizeof(SectionEntry);
  if (sizeof(FileHeader) + table_bytes > bytes.size()) {
    return Status::CorruptData("section table overruns file");
  }
  if (Fnv1a64(bytes.subspan(sizeof(FileHeader), table_bytes)) !=
      header.table_checksum) {
    return Status::CorruptData("section table checksum mismatch");
  }
  parsed.table = {
      reinterpret_cast<const SectionEntry*>(bytes.data() + sizeof(FileHeader)),
      header.section_count};
  parsed.bytes = bytes;
  for (const SectionEntry& entry : parsed.table) {
    if (entry.offset % kSectionAlign != 0) {
      return Status::CorruptData("misaligned section kind " +
                                 std::to_string(entry.kind));
    }
    if (entry.offset < sizeof(FileHeader) + table_bytes ||
        entry.offset > bytes.size() ||
        entry.stored_bytes > bytes.size() - entry.offset) {
      return Status::CorruptData("section kind " + std::to_string(entry.kind) +
                                 " overruns file");
    }
    if (verify_payload_checksums &&
        Fnv1a64(parsed.SectionBytes(entry)) != entry.checksum) {
      return Status::CorruptData("payload checksum mismatch in section kind " +
                                 std::to_string(entry.kind));
    }
  }
  return parsed;
}

Status ValidateCsr(const OffsetsView& offsets, std::span<const NodeId> targets,
                   size_t target_universe) {
  if (offsets.size() == 0) {
    return Status::CorruptData("empty offsets section");
  }
  if (offsets[0] != 0) return Status::CorruptData("offsets do not start at 0");
  uint64_t prev = 0;
  for (size_t u = 1; u < offsets.size(); ++u) {
    const uint64_t cur = offsets[u];
    if (cur < prev || cur > targets.size()) {
      return Status::CorruptData("offsets not monotone within targets");
    }
    for (uint64_t e = prev; e < cur; ++e) {
      if (targets[e] >= target_universe ||
          (e > prev && targets[e] <= targets[e - 1])) {
        return Status::CorruptData("adjacency run not strictly ascending in "
                                   "range");
      }
    }
    prev = cur;
  }
  if (prev != targets.size()) {
    return Status::CorruptData("offsets do not cover the targets section");
  }
  return Status::Ok();
}

Status SaveSnapshot(const ServingSnapshot& snap, const std::string& path,
                    const SaveOptions& options) {
  const std::shared_ptr<const FrozenReachSide> reach = snap.reach_side();
  const std::shared_ptr<const FrozenPatternSide> pattern = snap.pattern_side();
  if (options.num_shards == 0 || options.shard >= options.num_shards) {
    return Status::InvalidArgument("invalid shard stamp");
  }
  if (options.num_shards > 1) {
    if (options.partition == nullptr) {
      return Status::InvalidArgument("sharded save requires a partition");
    }
    if (options.partition->shard_of.size() != snap.original_num_nodes() ||
        options.partition->num_shards != options.num_shards) {
      return Status::InvalidArgument("partition disagrees with snapshot");
    }
  }

  ArtifactWriter writer(options);
  const CsrGraph& reach_gr = *reach->gr;
  writer.AddOffsets(SectionKind::kReachOutOffsets, reach_gr.out_offsets());
  writer.AddTargets(SectionKind::kReachOutTargets, reach_gr.out_offsets(),
                    reach_gr.out_targets());
  writer.AddOffsets(SectionKind::kReachInOffsets, reach_gr.in_offsets());
  writer.AddTargets(SectionKind::kReachInTargets, reach_gr.in_offsets(),
                    reach_gr.in_targets());
  // Reach labels are the fixed sigma: an identity side's graph is G, whose
  // labels the pattern side carries, so they are not stored twice.
  writer.AddLabels(SectionKind::kReachLabels,
                   std::vector<Label>(reach_gr.num_nodes(), kNoLabel));
  writer.AddRawU32(SectionKind::kReachNodeMap, reach->node_map);

  const CsrGraph& pattern_gr = *pattern->gr;
  writer.AddOffsets(SectionKind::kPatternOutOffsets, pattern_gr.out_offsets());
  writer.AddTargets(SectionKind::kPatternOutTargets, pattern_gr.out_offsets(),
                    pattern_gr.out_targets());
  writer.AddOffsets(SectionKind::kPatternInOffsets, pattern_gr.in_offsets());
  writer.AddTargets(SectionKind::kPatternInTargets, pattern_gr.in_offsets(),
                    pattern_gr.in_targets());
  writer.AddLabels(SectionKind::kPatternLabels, pattern_gr.labels());
  writer.AddRawU32(SectionKind::kPatternNodeMap, pattern->node_map);
  writer.AddOffsets(SectionKind::kMemberOffsets, pattern->member_offsets);
  writer.AddRawU32(SectionKind::kMemberFlat, pattern->member_flat);
  std::vector<uint32_t> cross_flat;
  cross_flat.reserve(2 * pattern->cross_edges.size());
  for (const auto& [block, ghost] : pattern->cross_edges) {
    cross_flat.push_back(block);
    cross_flat.push_back(ghost);
  }
  writer.AddRawU32(SectionKind::kCrossEdges, cross_flat);

  if (snap.boundary_exits_ptr() != nullptr) {
    writer.AddRawU32(SectionKind::kBoundaryExits, *snap.boundary_exits_ptr());
  }
  if (snap.boundary_summary() != nullptr) {
    // Entries only; the summary body is rebuilt at load (deterministic in
    // the reach side plus the boundary sets).
    writer.AddRawU32(SectionKind::kBoundaryEntries,
                     *snap.boundary_summary()->entries_ptr());
  }
  if (options.num_shards > 1) {
    writer.AddRawU32(SectionKind::kPartitionShardOf,
                     options.partition->shard_of);
  }

  return writer.WriteTo(path, snap.version(), snap.original_num_nodes());
}

Result<LoadedSnapshot> LoadServingSnapshot(const std::string& path,
                                           const LoadOptions& options) {
  Result<MmapSnapshot> mapped = MmapSnapshot::Open(path, options);
  if (!mapped.ok()) return mapped.status();
  return CopyToHeap(mapped.value());
}

Result<LoadedShardSet> LoadShardSet(const std::vector<std::string>& paths,
                                    const LoadOptions& options) {
  if (paths.empty()) {
    return Status::InvalidArgument("no shard artifacts given");
  }
  LoadedShardSet set;
  uint32_t num_shards = 0;
  size_t original_n = 0;
  std::vector<uint32_t> shard_of;
  for (size_t i = 0; i < paths.size(); ++i) {
    Result<MmapSnapshot> mapped = MmapSnapshot::Open(paths[i], options);
    if (!mapped.ok()) return mapped.status();
    const MmapSnapshot& file = mapped.value();
    if (i == 0) {
      num_shards = file.num_shards();
      original_n = file.original_num_nodes();
      if (paths.size() != num_shards) {
        return Status::InvalidArgument(
            "artifact set declares " + std::to_string(num_shards) +
            " shards but " + std::to_string(paths.size()) +
            " files were given");
      }
      set.snapshots.assign(num_shards, nullptr);
      if (num_shards > 1) {
        // Open checked a present partition's length and shard ids.
        if (file.partition().size() != original_n) {
          return Status::CorruptData(paths[i] + ": missing partition section");
        }
        shard_of.assign(file.partition().begin(), file.partition().end());
      }
    } else {
      if (file.num_shards() != num_shards ||
          file.original_num_nodes() != original_n) {
        return Status::InvalidArgument(paths[i] +
                                       ": inconsistent with the shard set");
      }
      if (!std::ranges::equal(file.partition(), shard_of)) {
        return Status::InvalidArgument(paths[i] +
                                       ": partition disagrees with the set");
      }
    }
    const uint32_t shard = file.shard();
    if (set.snapshots[shard] != nullptr) {
      return Status::InvalidArgument(paths[i] + ": duplicate shard " +
                                     std::to_string(shard));
    }
    set.snapshots[shard] = CopyToHeap(file).snapshot;
  }
  auto partition = std::make_shared<ShardPartition>();
  partition->num_shards = num_shards;
  partition->shard_of = num_shards > 1 ? std::move(shard_of)
                                       : std::vector<uint32_t>(original_n, 0);
  set.partition = std::move(partition);
  return set;
}

namespace {

// A side saved as G itself (serve/snapshot_manager.h): the identity node
// map over exactly g's edges. The file holds no quotient to rebuild then.
bool IsIdentityImage(const CsrGraph& side_gr,
                     const std::vector<NodeId>& node_map, const Graph& g) {
  if (side_gr.num_nodes() != g.num_nodes() ||
      side_gr.num_edges() != g.num_edges()) {
    return false;
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (node_map[v] != v ||
        !std::ranges::equal(side_gr.OutNeighbors(v), g.OutNeighbors(v))) {
      return false;
    }
  }
  return true;
}

Status ReconstructReach(const Graph& g, const ServingSnapshot& snap,
                        ReachCompression* out) {
  const CsrGraph& reach_gr = snap.reach_gr();
  const std::vector<NodeId>& reach_map = snap.reach_map();
  if (IsIdentityImage(reach_gr, reach_map, g)) {
    *out = CompressR(g);
    return Status::Ok();
  }
  ReachCompression& rc = *out;
  const size_t n = g.num_nodes();
  const size_t nc = reach_gr.num_nodes();
  rc.original_num_nodes = n;
  rc.original_size = g.size();
  rc.node_map = reach_map;
  rc.members.assign(nc, {});
  for (NodeId v = 0; v < n; ++v) {
    if (reach_map[v] >= nc) {
      return Status::InvalidArgument("reach node map out of range");
    }
    rc.members[reach_map[v]].push_back(v);
  }
  for (NodeId c = 0; c < nc; ++c) {
    if (rc.members[c].empty()) {
      return Status::InvalidArgument("empty reach class in snapshot");
    }
  }
  {
    GraphBuilder builder(nc);
    reach_gr.ForEachEdge([&](NodeId u, NodeId v) { builder.AddEdge(u, v); });
    rc.gr = builder.Build();
  }
  rc.cyclic.assign(nc, 0);
  for (NodeId c = 0; c < nc; ++c) {
    rc.cyclic[c] = rc.gr.HasEdge(c, c) ? 1 : 0;
  }
  // The frozen side carries only the *reduced* quotient; IncRCM additionally
  // needs the edge-faithful unreduced quotient (reach/compress_r.h — frozen
  // classes contribute their direct edges to the hybrid graph, which the
  // reduction may have dropped). Rebuild it from the original graph, exactly
  // mirroring CompressR's construction.
  {
    GraphBuilder builder(nc);
    for (NodeId c = 0; c < nc; ++c) {
      if (rc.cyclic[c]) builder.AddEdge(c, c);
    }
    bool acyclic_intra_edge = false;
    g.ForEachEdge([&](NodeId u, NodeId v) {
      const NodeId cu = reach_map[u];
      const NodeId cv = reach_map[v];
      if (cu != cv) {
        builder.AddEdge(cu, cv);
      } else if (!rc.cyclic[cu]) {
        acyclic_intra_edge = true;
      }
    });
    if (acyclic_intra_edge) {
      return Status::InvalidArgument(
          "intra-class edge in an acyclic class: snapshot was not built from "
          "this graph");
    }
    rc.quotient = builder.Build();
  }
  // A valid quotient is a DAG but for its self-loops: DagTopoRanks would
  // abort on any longer cycle.
  if (!TryTopologicalOrder(rc.gr).has_value()) {
    return Status::InvalidArgument(
        "reach side is neither a quotient nor the identity image of this "
        "graph (its quotient has a cycle)");
  }
  rc.ranks = DagTopoRanks(rc.gr);
  return Status::Ok();

}

Status ReconstructPattern(const Graph& g, const ServingSnapshot& snap,
                          PatternCompression* out) {
  const CsrGraph& pattern_gr = snap.pattern_gr();
  const std::vector<NodeId>& pattern_map = snap.pattern_map();
  if (IsIdentityImage(pattern_gr, pattern_map, g) &&
      pattern_gr.labels() == g.labels()) {
    *out = CompressB(g);
    return Status::Ok();
  }
  PatternCompression& pc = *out;
  const size_t n = g.num_nodes();
  const size_t np = pattern_gr.num_nodes();
  pc.original_num_nodes = n;
  pc.original_size = g.size();
  pc.node_map = pattern_map;
  for (NodeId v = 0; v < n; ++v) {
    if (pattern_map[v] >= np) {
      return Status::InvalidArgument(
          pattern_map[v] == kInvalidNode
              ? "ghost node in an unsharded snapshot"
              : "pattern node map out of range");
    }
    if (pattern_gr.label(pattern_map[v]) != g.label(v)) {
      return Status::InvalidArgument(
          "label mismatch: snapshot was not built from this graph");
    }
  }
  pc.members.assign(np, {});
  for (NodeId c = 0; c < np; ++c) {
    const std::span<const NodeId> members = snap.pattern_block_members(c);
    if (members.empty()) {
      return Status::InvalidArgument("empty pattern block in snapshot");
    }
    pc.members[c].assign(members.begin(), members.end());
  }
  {
    GraphBuilder builder(np);
    for (NodeId c = 0; c < np; ++c) {
      builder.SetLabel(c, pattern_gr.label(c));
    }
    pattern_gr.ForEachEdge([&](NodeId u, NodeId v) { builder.AddEdge(u, v); });
    pc.gr = builder.Build();
  }
  return Status::Ok();
}

}  // namespace

Result<ReconstructedArtifacts> ReconstructArtifacts(
    const Graph& g, const ServingSnapshot& snap) {
  if (!snap.boundary_exits().empty() || snap.boundary_summary() != nullptr ||
      !snap.pattern_cross_edges().empty()) {
    return Status::InvalidArgument(
        "adoption requires an unsharded snapshot (per-shard artifacts route "
        "through LoadShardSet + PinnedShards instead)");
  }
  const size_t n = g.num_nodes();
  if (snap.original_num_nodes() != n) {
    return Status::InvalidArgument("graph/snapshot node count mismatch");
  }

  ReconstructedArtifacts out;
  if (Status s = ReconstructReach(g, snap, &out.rc); !s.ok()) return s;
  if (Status s = ReconstructPattern(g, snap, &out.pc); !s.ok()) return s;
  return out;
}

}  // namespace qpgc::storage
