// Copyright 2026 The QPGC Authors.
//
// incPCM (Section 5.2): incremental maintenance of the pattern preserving
// compression (the bisimulation quotient) under batch updates. Also
// unbounded for unit updates (Theorem 8).
//
// Structure (hybrid-graph formulation of the paper's PT + SplitMerge;
// supporting facts in DESIGN.md §3):
//
//  1. *minDelta.* An insertion or deletion (u, w) is redundant when u keeps
//     another pre-existing, surviving child w'' in w's pre-update block: the
//     successor-*block set* of u — all bisimulation cares about — is then
//     unchanged (the paper's insertion/deletion rules; the cancellation rule
//     falls out of ApplyBatch's no-op elimination).
//  2. *Affected cone.* A node's bisimulation class is a function of the
//     subgraph reachable from it, so only blocks that can reach a kept
//     update's source — the predecessor cone of the root blocks in Gr — can
//     change. Everything else is frozen. A frozen block, in particular, can
//     never point into the cone (the cone is predecessor-closed), so the
//     hybrid graph needs no super-to-member edges.
//  3. *Hybrid graph H.* Frozen blocks become labeled supernodes with their
//     quotient edges (exact, because a stable partition's quotient reflects
//     every member's successor-block set); cone blocks dissolve into their
//     members with real post-update out-adjacency.
//  4. *Paige–Tarjan refinement on H* yields the maximum bisimulation;
//     frozen supers never merge with each other (their unfoldings were
//     distinct and are untouched), while dissolved members may join a
//     frozen super's class. Translating member sets gives R(G ⊕ ΔG).
//
// Cost: the predecessor cone of step 2 is most of G on the served graphs
// (ROADMAP.md, item 2), so a call costs about a recompression: building H,
// refining it, building the new Gr, and an O(|V|) translation. H and Gr
// are built straight into CSR by a counting sort (graph/builder.h's
// CsrBuilder), with no global pair sort; Paige–Tarjan borrows H's flat
// in-edge array (graph/graph_view.h's DenseInEdgeView) instead of copying
// it, and the new Gr is published by pointer (serve/snapshot.h).

#ifndef QPGC_INC_INC_PCM_H_
#define QPGC_INC_INC_PCM_H_

#include <cstddef>

#include "core/pattern_scheme.h"
#include "graph/update.h"

namespace qpgc {

/// Work counters for one incPCM call.
struct IncPcmStats {
  size_t kept_updates = 0;
  size_t reduced_updates = 0;  // dropped by minDelta
  size_t dissolved_blocks = 0;
  size_t dissolved_nodes = 0;
  size_t hybrid_vertices = 0;
  size_t hybrid_edges = 0;

  /// Size of the dirty cone this call touched, in hybrid-graph units (see
  /// IncRcmStats::DirtyConeSize).
  size_t DirtyConeSize() const { return hybrid_vertices + hybrid_edges; }
};

/// Maintains pc (compression of the pre-update graph) so that afterwards
/// pc == CompressB(g_after) up to block numbering. `g_after` must already
/// have the batch applied; `effective` is ApplyBatch's return value.
IncPcmStats IncPCM(const Graph& g_after, const UpdateBatch& effective,
                   PatternCompression& pc);

}  // namespace qpgc

#endif  // QPGC_INC_INC_PCM_H_
