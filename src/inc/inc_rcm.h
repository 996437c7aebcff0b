// Copyright 2026 The QPGC Authors.
//
// incRCM (Section 5.1): incremental maintenance of the reachability
// preserving compression under batch updates. The problem is unbounded even
// for unit updates (Theorem 6, by reduction from single-source
// reachability), so no algorithm can run in time f(|AFF|); the paper's goal
// is cost that depends on |AFF| and |Gr| but never on |G|. This
// implementation does not reach it: its cost follows the cone of classes
// step 2 dissolves, which on the served graphs is most of G (below).
//
// Algorithm (hybrid-graph formulation of the paper's Split/Merge scheme;
// DESIGN.md §3 records the supporting facts):
//
//  1. *Reduce ΔG.* No-op updates were already removed by ApplyBatch. Every
//     remaining update, insertion or deletion, is tested by a BFS on the
//     post-update graph capped at a node budget: 256 nodes for an
//     insertion, 1024 for a deletion. An insertion (u, u') is dropped when
//     u reaches u' without it and without any batch insertion not yet
//     kept (a dropped insertion may never justify dropping another); a
//     deletion (u, u') is dropped when u still reaches u' after the batch.
//     Either way the update changes no reachability. A test that runs out
//     of budget keeps its update, so the reduction is exact when it fires
//     and merely conservative otherwise.
//  2. *Affected classes.* Insertions can split only the endpoint classes
//     (for any other class, members with equal closures keep equal closures
//     — the "gateway" argument). Deletions can split ancestors of [u] and
//     descendants of [u'], computed over the closure of Gr *plus* the
//     batch's class-level insertions (the union graph), which
//     over-approximates every intermediate state.
//  3. *Hybrid graph H.* Frozen classes stay as supernodes carrying their
//     (transitively reduced, closure-faithful) Gr edges; affected classes
//     dissolve into their members, which contribute their real post-update
//     adjacency. |H| is the frozen part of Gr plus the dissolved members
//     and their edges — not O(|Gr| + |AFF|): a deletion dissolves every
//     ancestor of [u] and descendant of [u'], and the traced
//     inc.rcm_cone_frac is 1.00 on bench/e2e's social_live and
//     grid_hot_cold (ROADMAP.md, item 2), so H there is about G.
//  4. *Recompress H.* Reachability equivalence on H coincides with the
//     node-level relation (frozen classes never split; every merge —
//     including SCC formation across frozen classes — is visible at the
//     H level because member sets are disjoint). Running compressR on H and
//     translating member sets yields exactly R(G ⊕ ΔG).
//
// Besides the final dense re-map of node ids into the artifact (O(|V|)),
// the cost is that of building and recompressing H: bounded by |Gr| and
// the dissolved cone, not by |AFF|, and on the served graphs close to a
// recompression of G. Every graph here — the union graph of step 2, H,
// and the new quotient and Gr — is built straight into CSR by a counting
// sort (graph/builder.h's CsrBuilder): linear in its edges plus per-node
// run sorts, with no global pair sort. H goes to compressR already
// frozen, and the new Gr is published by pointer (serve/snapshot.h), so
// no graph is built twice. A serving side whose quotient merges (almost)
// nothing skips all of it (serve/snapshot_manager.h).

#ifndef QPGC_INC_INC_RCM_H_
#define QPGC_INC_INC_RCM_H_

#include <cstddef>

#include "graph/update.h"
#include "reach/compress_r.h"

namespace qpgc {

/// Work counters for one incremental maintenance call.
struct IncRcmStats {
  /// Updates surviving redundancy reduction.
  size_t kept_updates = 0;
  /// Updates dropped by step 1's budgeted redundancy test.
  size_t reduced_updates = 0;
  /// Classes dissolved into members (the affected area's class side).
  size_t dissolved_classes = 0;
  /// Cyclic classes handled as a single aggregated vertex with refreshed
  /// class-level edges (members of an intact SCC can never diverge, so no
  /// dissolution is needed).
  size_t aggregated_classes = 0;
  /// Original nodes inside dissolved classes.
  size_t dissolved_nodes = 0;
  /// Vertices/edges of the hybrid graph actually recompressed.
  size_t hybrid_vertices = 0;
  size_t hybrid_edges = 0;

  /// Size of the dirty cone this call touched, in hybrid-graph units (on
  /// the served graphs most of |G|; ROADMAP.md, item 2).
  size_t DirtyConeSize() const { return hybrid_vertices + hybrid_edges; }
};

/// Maintains rc (the compression of the pre-update graph) so that afterwards
/// rc == CompressR(g_after) up to class numbering. `g_after` must already
/// have the batch applied; `effective` is ApplyBatch's return value.
IncRcmStats IncRCM(const Graph& g_after, const UpdateBatch& effective,
                   ReachCompression& rc);

}  // namespace qpgc

#endif  // QPGC_INC_INC_RCM_H_
