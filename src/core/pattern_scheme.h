// Copyright 2026 The QPGC Authors.
//
// compressB (Section 4): graph pattern preserving compression <R, F, P>.
//   R — quotient of G by the maximum bisimulation Rb (labels preserved; all
//       quotient edges kept — the quotient is *stable*: every member of a
//       block has a successor in each successor block).
//   F — the identity: the same pattern query runs on Gr.
//   P — hypernode expansion: replace each [v] in the match by its members,
//       linear in the answer size. Boolean queries need no P.
// Theorem 4: Qp(G) = P(Qp(Gr)) for every bounded-simulation pattern.
//
// The compression pipeline is a GraphView template; the `const Graph&`
// entry point freezes a CsrGraph snapshot once and runs both the partition
// refinement and the quotient construction on the flat layout. Gr is built
// straight into CSR and held behind a shared pointer, which serving
// snapshots publish without a copy (serve/snapshot.h).

#ifndef QPGC_CORE_PATTERN_SCHEME_H_
#define QPGC_CORE_PATTERN_SCHEME_H_

#include <bit>
#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "bisim/paige_tarjan.h"
#include "bisim/partition.h"
#include "graph/builder.h"
#include "graph/csr.h"
#include "graph/graph.h"
#include "graph/graph_view.h"
#include "pattern/match.h"
#include "pattern/pattern.h"
#include "util/bitset.h"

namespace qpgc {

/// The pattern preserving compression artifact.
struct PatternCompression {
  /// The compressed graph Gr: quotient by Rb, labels preserved. Immutable
  /// and shared with the serving snapshots that publish it; maintenance
  /// replaces the pointer. Non-null in every artifact compressB and incPCM
  /// produce.
  std::shared_ptr<const CsrGraph> gr;
  /// node_map[v] = R(v), the Gr-node (bisimulation block) of node v.
  std::vector<NodeId> node_map;
  /// members[c] = original nodes of block c (the inverse index P uses).
  std::vector<std::vector<NodeId>> members;
  /// |V| and |G| of the original, for ratio reporting.
  size_t original_num_nodes = 0;
  size_t original_size = 0;

  size_t size() const { return gr->size(); }
  /// PCr = |Gr| / |G|.
  double CompressionRatio() const {
    return original_size == 0 ? 1.0
                              : static_cast<double>(size()) /
                                    static_cast<double>(original_size);
  }
  size_t MemoryBytes() const;
};

/// Builds the compression from a precomputed bisimulation partition (used by
/// the incremental algorithm and tests).
template <GraphView G>
PatternCompression CompressBFromPartition(const G& g, const Partition& p) {
  PatternCompression pc;
  pc.original_num_nodes = g.num_nodes();
  pc.original_size = ViewSize(g);
  pc.node_map = p.block_of;
  pc.members.assign(p.num_blocks, {});
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    pc.members[p.block_of[v]].push_back(v);
  }

  std::vector<Label> labels(p.num_blocks);
  for (NodeId c = 0; c < p.num_blocks; ++c) {
    QPGC_CHECK(!pc.members[c].empty());
    labels[c] = g.label(pc.members[c][0]);
  }
  CsrBuilder builder(std::move(labels));
  ForEachEdge(g, [&](NodeId u, NodeId v) {
    builder.AddEdge(p.block_of[u], p.block_of[v]);
  });
  pc.gr = std::make_shared<const CsrGraph>(builder.Build());
  return pc;
}

/// Computes Gr = R(G) via the maximum bisimulation (Paige–Tarjan), on any
/// view.
template <GraphView G>
PatternCompression CompressB(const G& g) {
  return CompressBFromPartition(g, PaigeTarjanBisimulation(g));
}

// Non-template Graph entry points (compiled once in pattern_scheme.cc).
// CompressB freezes a CsrGraph snapshot and runs the pipeline on it.
PatternCompression CompressBFromPartition(const Graph& g, const Partition& p);
PatternCompression CompressB(const Graph& g);

/// The post-processing function P over any member representation: expands
/// the block-level match `on_gr` through `members_of` (block id -> range of
/// member node ids). `node_map` (node -> block) only sizes the answer
/// space |V|; blocks list only the nodes they own, so sharded serving's
/// ghost nodes (kInvalidNode there) are never emitted. Per pattern node,
/// every answer block's members are set in one |V|-bit bitset whose set
/// bits are then read off a word at a time, so each answer set comes out
/// ascending without a comparison sort: O(|Qp(G)| + |V|/64) per pattern
/// node. `on_gr` is taken by value and its block-level fixpoint moved
/// through. This single implementation serves both the artifact-level
/// overloads below (vector-of-vectors member index) and the frozen
/// serving snapshots (flattened member index; serve/snapshot.cc).
template <typename MembersFn>
MatchResult ExpandMatchWith(size_t num_blocks, std::span<const NodeId> node_map,
                            MembersFn&& members_of, MatchResult on_gr) {
  MatchResult expanded;
  expanded.matched = on_gr.matched;
  // P expands the answer sets only; the fixpoint stays at block granularity
  // (an evaluation-internal artifact, passed through for callers that want
  // the raw fixpoint).
  expanded.fixpoint_sets = std::move(on_gr.fixpoint_sets);
  expanded.match_sets.resize(on_gr.match_sets.size());
  // Sized at the first non-empty answer set, so an unmatched query (every
  // set empty) expands without touching |V|.
  Bitset answer;
  for (size_t u = 0; u < on_gr.match_sets.size(); ++u) {
    if (on_gr.match_sets[u].empty()) continue;
    if (answer.size() == 0) answer.Resize(node_map.size());
    size_t total = 0;
    for (const NodeId block : on_gr.match_sets[u]) {
      QPGC_CHECK(block < num_blocks);
      const auto& members = members_of(block);
      for (const NodeId v : members) answer.Set(v);
      total += members.size();
    }
    auto& out = expanded.match_sets[u];
    out.reserve(total);
    // Read the set bits off and clear their words in the same pass, so the
    // bitset is empty again for the next pattern node.
    Bitset::Word* words = answer.mutable_words();
    for (size_t wi = 0; wi < answer.num_words(); ++wi) {
      Bitset::Word w = words[wi];
      if (w == 0) continue;
      words[wi] = 0;
      const NodeId base = static_cast<NodeId>(wi * Bitset::kWordBits);
      do {
        out.push_back(base + static_cast<NodeId>(std::countr_zero(w)));
        w &= w - 1;
      } while (w != 0);
    }
  }
  return expanded;
}

/// P from a batch compression artifact. O(|Qp(G)| + |V|/64) per pattern
/// node.
MatchResult ExpandMatch(const PatternCompression& pc, MatchResult on_gr);

/// Same P from the raw quotient metadata (member index + node map) instead
/// of a PatternCompression (used by the incremental layer and tests).
MatchResult ExpandMatch(const std::vector<std::vector<NodeId>>& members,
                        const std::vector<NodeId>& node_map,
                        MatchResult on_gr);

/// Convenience: evaluate a pattern on the compressed graph (F = identity,
/// then Match on Gr, then P).
MatchResult MatchOnCompressed(const PatternCompression& pc,
                              const PatternQuery& q);

/// Boolean pattern query on the compressed graph — no P needed.
bool BooleanMatchOnCompressed(const PatternCompression& pc,
                              const PatternQuery& q);

}  // namespace qpgc

#endif  // QPGC_CORE_PATTERN_SCHEME_H_
