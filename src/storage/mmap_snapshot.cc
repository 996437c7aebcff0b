// Copyright 2026 The QPGC Authors.

#include "storage/mmap_snapshot.h"

#include <utility>

#include "core/pattern_scheme.h"

namespace qpgc::storage {
namespace {

#define QPGC_RETURN_IF_ERROR(expr)        \
  do {                                    \
    const Status _status = (expr);        \
    if (!_status.ok()) return _status;    \
  } while (0)

using DecodedBuffers = std::vector<std::vector<NodeId>>;

std::string KindStr(SectionKind kind) {
  return std::to_string(static_cast<uint32_t>(kind));
}

Status Require(const ParsedArtifact& parsed, SectionKind kind,
               const SectionEntry** out) {
  *out = parsed.Find(kind);
  if (*out == nullptr) {
    return Status::CorruptData("missing section kind " + KindStr(kind));
  }
  return Status::Ok();
}

// A u32 section as an in-place span; sections that cannot be viewed in
// place (kConstU32) are materialized into `decoded`, whose inner buffers
// are address-stable.
Status GetU32Span(const ParsedArtifact& parsed, const SectionEntry& entry,
                  DecodedBuffers* decoded, std::span<const NodeId>* out) {
  Result<U32View> view = U32View::Make(
      static_cast<SectionEncoding>(entry.encoding), parsed.SectionBytes(entry),
      entry.element_count);
  if (!view.ok()) return view.status();
  if (view.value().is_const()) {
    decoded->emplace_back(view.value().size(), view.value().constant());
    *out = decoded->back();
  } else {
    *out = view.value().raw_span();
  }
  return Status::Ok();
}

// A required u32 section of exactly `count` elements, as a span.
Status RequireU32(const ParsedArtifact& parsed, SectionKind kind,
                  uint64_t count, DecodedBuffers* decoded,
                  std::span<const NodeId>* out) {
  const SectionEntry* entry = nullptr;
  QPGC_RETURN_IF_ERROR(Require(parsed, kind, &entry));
  if (entry->element_count != count) {
    return Status::CorruptData("section kind " + KindStr(kind) +
                               " has unexpected element count");
  }
  return GetU32Span(parsed, *entry, decoded, out);
}

// Every offset must stay inside the targets it indexes, or a subspan could
// leave its section. O(rows) over the offsets only — it does not fault the
// (much larger) target pages in.
Status CheckMonotone(const OffsetsView& offsets, size_t num_targets,
                     SectionKind kind) {
  uint64_t prev = 0;
  for (size_t u = 1; u < offsets.size(); ++u) {
    const uint64_t cur = offsets[u];
    if (cur < prev || cur > num_targets) {
      return Status::CorruptData("offsets not monotone, kind " +
                                 KindStr(kind));
    }
    prev = cur;
  }
  return Status::Ok();
}

Status ValidateMapSpan(std::span<const NodeId> map, size_t num_blocks,
                       bool allow_invalid, const char* what) {
  for (const NodeId b : map) {
    if (b >= num_blocks && !(allow_invalid && b == kInvalidNode)) {
      return Status::CorruptData(std::string(what) + " out of range");
    }
  }
  return Status::Ok();
}

Status ValidateAscending(std::span<const NodeId> nodes, size_t num_nodes,
                         const char* what) {
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i] >= num_nodes || (i > 0 && nodes[i] <= nodes[i - 1])) {
      return Status::CorruptData(std::string(what) +
                                 " not strictly ascending in range");
    }
  }
  return Status::Ok();
}

}  // namespace

// Friend of MmapCsrGraph: wires its private views from parsed sections.
struct MmapWire {
  static Status Direction(const ParsedArtifact& parsed,
                          SectionKind offsets_kind, SectionKind targets_kind,
                          bool validate_runs, DecodedBuffers* decoded,
                          OffsetsView* offsets,
                          std::span<const NodeId>* targets, size_t* n);
  static Status Graph(const ParsedArtifact& parsed,
                      SectionKind out_offsets_kind,
                      SectionKind out_targets_kind,
                      SectionKind in_offsets_kind, SectionKind in_targets_kind,
                      SectionKind labels_kind, bool verify,
                      DecodedBuffers* decoded, MmapCsrGraph* gr);
  static Status Transpose(const MmapCsrGraph& gr, SectionKind kind);
};

// Wires one CSR direction: offsets stay encoded behind the O(1) OffsetsView;
// targets are served in place when raw, decoded to heap when kVarint. The
// O(1) endpoints and the offsets' bounds are always checked, so no
// neighbour subspan can leave the section; `validate_runs` adds the scan of
// every run (ValidateCsr).
Status MmapWire::Direction(const ParsedArtifact& parsed,
                           SectionKind offsets_kind, SectionKind targets_kind,
                           bool validate_runs, DecodedBuffers* decoded,
                           OffsetsView* offsets,
                           std::span<const NodeId>* targets, size_t* n) {
  const SectionEntry* off_entry = nullptr;
  const SectionEntry* tgt_entry = nullptr;
  QPGC_RETURN_IF_ERROR(Require(parsed, offsets_kind, &off_entry));
  QPGC_RETURN_IF_ERROR(Require(parsed, targets_kind, &tgt_entry));
  Result<OffsetsView> view = OffsetsView::Make(
      static_cast<SectionEncoding>(off_entry->encoding),
      parsed.SectionBytes(*off_entry), off_entry->element_count);
  if (!view.ok()) return view.status();
  *offsets = view.value();
  if (offsets->size() == 0) {
    return Status::CorruptData("empty offsets section kind " +
                               KindStr(offsets_kind));
  }
  *n = offsets->size() - 1;
  if ((*offsets)[0] != 0 || offsets->back() != tgt_entry->element_count) {
    return Status::CorruptData("offsets endpoints disagree with targets, "
                               "kind " + KindStr(offsets_kind));
  }
  if (static_cast<SectionEncoding>(tgt_entry->encoding) ==
      SectionEncoding::kVarint) {
    std::vector<NodeId> heap;
    QPGC_RETURN_IF_ERROR(DecodeVarintTargets(
        parsed.SectionBytes(*tgt_entry), *offsets, tgt_entry->element_count,
        static_cast<NodeId>(*n), &heap));
    decoded->push_back(std::move(heap));
    *targets = decoded->back();
  } else {
    QPGC_RETURN_IF_ERROR(GetU32Span(parsed, *tgt_entry, decoded, targets));
  }
  if (validate_runs) return ValidateCsr(*offsets, *targets, *n);
  return CheckMonotone(*offsets, targets->size(), offsets_kind);
}

Status MmapWire::Graph(const ParsedArtifact& parsed,
                       SectionKind out_offsets_kind,
                       SectionKind out_targets_kind,
                       SectionKind in_offsets_kind, SectionKind in_targets_kind,
                       SectionKind labels_kind, bool verify,
                       DecodedBuffers* decoded, MmapCsrGraph* gr) {
  size_t out_n = 0;
  size_t in_n = 0;
  QPGC_RETURN_IF_ERROR(Direction(parsed, out_offsets_kind, out_targets_kind,
                                 verify, decoded, &gr->out_offsets_,
                                 &gr->out_targets_, &out_n));
  // The in-runs need no scan of their own: Transpose below proves them
  // strictly ascending and in range.
  QPGC_RETURN_IF_ERROR(Direction(parsed, in_offsets_kind, in_targets_kind,
                                 /*validate_runs=*/false, decoded,
                                 &gr->in_offsets_, &gr->in_targets_, &in_n));
  if (in_n != out_n || gr->in_targets_.size() != gr->out_targets_.size()) {
    return Status::CorruptData("in/out CSR directions disagree, kind " +
                               KindStr(out_offsets_kind));
  }
  const SectionEntry* labels_entry = nullptr;
  QPGC_RETURN_IF_ERROR(Require(parsed, labels_kind, &labels_entry));
  if (labels_entry->element_count != out_n) {
    return Status::CorruptData("labels count disagrees with node count, "
                               "kind " + KindStr(labels_kind));
  }
  Result<U32View> labels = U32View::Make(
      static_cast<SectionEncoding>(labels_entry->encoding),
      parsed.SectionBytes(*labels_entry), labels_entry->element_count);
  if (!labels.ok()) return labels.status();
  gr->labels_ = labels.value();
  gr->n_ = out_n;
  gr->m_ = gr->out_targets_.size();
  return verify ? Transpose(*gr, in_offsets_kind) : Status::Ok();
}

// The stored in-direction must be the exact transpose of the out-direction,
// or a search that reads in-edges (BiBFS, Match's backward sweep) answers
// differently from one that reads out-edges. One cursor pass: walk u
// ascending; each out-edge (u, v) must be the next unread entry of v's
// in-run, and every in-run must end fully read. Cursors only advance, so a
// cursor that ends on its run's end never read past it; the pass itself
// only keeps reads inside the section. Over a validated out-direction this
// also makes every in-run strictly ascending and in range.
Status MmapWire::Transpose(const MmapCsrGraph& gr, SectionKind kind) {
  std::vector<uint64_t> cursor(gr.n_);
  for (size_t v = 0; v < gr.n_; ++v) cursor[v] = gr.in_offsets_[v];
  bool transposed = true;
  for (NodeId u = 0; u < gr.n_ && transposed; ++u) {
    for (const NodeId v : gr.OutNeighbors(u)) {
      if (cursor[v] >= gr.m_ || gr.in_targets_[cursor[v]] != u) {
        transposed = false;
        break;
      }
      ++cursor[v];
    }
  }
  for (size_t v = 0; v < gr.n_ && transposed; ++v) {
    transposed = cursor[v] == gr.in_offsets_[v + 1];
  }
  if (transposed) return Status::Ok();
  return Status::CorruptData(
      "in-direction is not the transpose of the out-direction, kind " +
      KindStr(kind));
}

Result<MmapSnapshot> MmapSnapshot::Open(const std::string& path,
                                        const LoadOptions& options) {
  Result<MmapFile> file = MmapFile::Open(path);
  if (!file.ok()) return file.status();
  MmapSnapshot snap;
  snap.file_ = std::move(file.value());
  Result<ParsedArtifact> parsed =
      ParseArtifact(snap.file_.bytes(), options.verify);
  const Status status = parsed.ok() ? snap.Wire(parsed.value(), options.verify)
                                    : parsed.status();
  if (!status.ok()) {
    return Status(status.code(), path + ": " + status.message());
  }
  return snap;
}

Status MmapSnapshot::Wire(const ParsedArtifact& parsed, bool verify) {
  header_ = parsed.header;
  if (header_.num_shards == 0 || header_.shard >= header_.num_shards) {
    return Status::CorruptData("invalid shard stamp");
  }
  const uint64_t original_n = header_.original_num_nodes;

  QPGC_RETURN_IF_ERROR(MmapWire::Graph(
      parsed, SectionKind::kReachOutOffsets, SectionKind::kReachOutTargets,
      SectionKind::kReachInOffsets, SectionKind::kReachInTargets,
      SectionKind::kReachLabels, verify, &decoded_, &reach_gr_));
  QPGC_RETURN_IF_ERROR(MmapWire::Graph(
      parsed, SectionKind::kPatternOutOffsets, SectionKind::kPatternOutTargets,
      SectionKind::kPatternInOffsets, SectionKind::kPatternInTargets,
      SectionKind::kPatternLabels, verify, &decoded_, &pattern_gr_));
  const size_t blocks = pattern_gr_.num_nodes();

  QPGC_RETURN_IF_ERROR(RequireU32(parsed, SectionKind::kReachNodeMap,
                                  original_n, &decoded_, &reach_map_));
  QPGC_RETURN_IF_ERROR(RequireU32(parsed, SectionKind::kPatternNodeMap,
                                  original_n, &decoded_, &pattern_map_));
  if (verify) {
    QPGC_RETURN_IF_ERROR(ValidateMapSpan(reach_map_, reach_gr_.num_nodes(),
                                         /*allow_invalid=*/false,
                                         "reach node map"));
    QPGC_RETURN_IF_ERROR(ValidateMapSpan(pattern_map_, blocks,
                                         /*allow_invalid=*/true,
                                         "pattern node map"));
  }

  // Member index: the same CSR shape as adjacency, but its runs hold
  // original node ids.
  const SectionEntry* mo_entry = nullptr;
  const SectionEntry* mf_entry = nullptr;
  QPGC_RETURN_IF_ERROR(
      Require(parsed, SectionKind::kMemberOffsets, &mo_entry));
  QPGC_RETURN_IF_ERROR(Require(parsed, SectionKind::kMemberFlat, &mf_entry));
  if (mo_entry->element_count != blocks + 1) {
    return Status::CorruptData("member offsets count mismatch");
  }
  Result<OffsetsView> mo_view = OffsetsView::Make(
      static_cast<SectionEncoding>(mo_entry->encoding),
      parsed.SectionBytes(*mo_entry), mo_entry->element_count);
  if (!mo_view.ok()) return mo_view.status();
  member_offsets_ = mo_view.value();
  if (member_offsets_[0] != 0 ||
      member_offsets_.back() != mf_entry->element_count) {
    return Status::CorruptData("member index endpoints mismatch");
  }
  QPGC_RETURN_IF_ERROR(GetU32Span(parsed, *mf_entry, &decoded_, &member_flat_));
  QPGC_RETURN_IF_ERROR(
      verify ? ValidateCsr(member_offsets_, member_flat_, original_n)
             : CheckMonotone(member_offsets_, member_flat_.size(),
                             SectionKind::kMemberOffsets));

  const SectionEntry* ce_entry = nullptr;
  QPGC_RETURN_IF_ERROR(Require(parsed, SectionKind::kCrossEdges, &ce_entry));
  if (ce_entry->element_count % 2 != 0) {
    return Status::CorruptData("odd cross-edge section");
  }
  QPGC_RETURN_IF_ERROR(GetU32Span(parsed, *ce_entry, &decoded_, &cross_edges_));
  if (verify) {
    for (size_t i = 0; i < cross_edges_.size(); i += 2) {
      if (cross_edges_[i] >= blocks || cross_edges_[i + 1] >= original_n) {
        return Status::CorruptData("cross edge out of range");
      }
    }
  }

  // The sections only sharded artifacts carry are checked in full even on
  // the trusted path: the heap copy builds the boundary summary from the
  // boundary tables, and the partition's shard ids index the shard set.
  if (const SectionEntry* entry = parsed.Find(SectionKind::kBoundaryExits)) {
    has_boundary_exits_ = true;
    QPGC_RETURN_IF_ERROR(
        GetU32Span(parsed, *entry, &decoded_, &boundary_exits_));
    QPGC_RETURN_IF_ERROR(
        ValidateAscending(boundary_exits_, original_n, "boundary exits"));
  }
  if (const SectionEntry* entry = parsed.Find(SectionKind::kBoundaryEntries)) {
    if (!has_boundary_exits_) {
      return Status::CorruptData("boundary entries without exits");
    }
    has_boundary_entries_ = true;
    QPGC_RETURN_IF_ERROR(
        GetU32Span(parsed, *entry, &decoded_, &boundary_entries_));
    QPGC_RETURN_IF_ERROR(
        ValidateAscending(boundary_entries_, original_n, "boundary entries"));
  }
  if (parsed.Find(SectionKind::kPartitionShardOf) != nullptr) {
    QPGC_RETURN_IF_ERROR(RequireU32(parsed, SectionKind::kPartitionShardOf,
                                    original_n, &decoded_, &partition_));
    for (const uint32_t s : partition_) {
      if (s >= header_.num_shards) {
        return Status::CorruptData("partition shard out of range");
      }
    }
  }
  return Status::Ok();
}

const LabelIndex& MmapCsrGraph::label_index() const {
  return label_index_.Get([this] {
    return LabelIndex::Build(n_, [this](NodeId v) { return labels_[v]; });
  });
}

MatchResult MmapSnapshot::Match(const PatternQuery& q) const {
  return ExpandMatchWith(
      member_offsets_.size() - 1, pattern_map_,
      [this](NodeId block) { return pattern_block_members(block); },
      qpgc::Match(pattern_gr_, q));
}

bool MmapSnapshot::BooleanMatch(const PatternQuery& q) const {
  return qpgc::BooleanMatch(pattern_gr_, q);
}

size_t MmapSnapshot::DecodedHeapBytes() const {
  size_t bytes = reach_gr_.LabelIndexBytes() + pattern_gr_.LabelIndexBytes();
  for (const std::vector<NodeId>& v : decoded_) {
    bytes += v.capacity() * sizeof(NodeId);
  }
  return bytes;
}

#undef QPGC_RETURN_IF_ERROR

}  // namespace qpgc::storage
