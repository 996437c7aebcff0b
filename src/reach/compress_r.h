// Copyright 2026 The QPGC Authors.
//
// compressR (Section 3.2): the reachability preserving compression function
// R. Pipeline: SCC condensation (the paper's optimization) -> transitive
// reduction (TR) of the condensation DAG -> reachability equivalence
// classes, the TR's twins (reach/equivalence.h) -> Gr, the class image of
// the TR plus cyclic self-loops: the unique TR of the class quotient (the
// paper's lines 6-8 insert no redundant edge) without a second reduction.
//
// The artifact bundles everything <R, F> needs at query time: the compressed
// graph Gr, the node map R(v) = [v]_Re (for F, O(1) rewriting), the inverse
// member index, per-class cyclic flags (non-empty self-reachability), and
// topological ranks (maintained by incRCM; Lemma 7).
//
// The pipeline is a GraphView template; the `const Graph&` entry point
// freezes a CsrGraph snapshot once and runs the whole pipeline on the flat
// layout (the batch sweeps are read-only; the incremental layer keeps the
// dynamic Graph as the source of truth). Every graph it derives — the
// condensation, the quotient and Gr — is built straight into CSR
// (graph/builder.h's CsrBuilder), and Gr is held behind a shared pointer
// so that serving snapshots publish it without a copy (serve/snapshot.h).

#ifndef QPGC_REACH_COMPRESS_R_H_
#define QPGC_REACH_COMPRESS_R_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/builder.h"
#include "graph/condensation.h"
#include "graph/csr.h"
#include "graph/graph.h"
#include "graph/graph_view.h"
#include "graph/reduction.h"
#include "graph/topology.h"
#include "reach/equivalence.h"

namespace qpgc {

/// The reachability preserving compression of a graph.
struct ReachCompression {
  /// The compressed graph Gr. Nodes are equivalence classes; cyclic classes
  /// carry a self-loop. All labels are a fixed sigma (kNoLabel) — labels are
  /// irrelevant to reachability (paper, Section 3.1). Immutable and shared:
  /// a published serving snapshot holds the same object (serve/snapshot.h),
  /// and maintenance replaces the pointer instead of editing the graph.
  /// Non-null in every artifact compressR and incRCM produce.
  std::shared_ptr<const CsrGraph> gr;
  /// The unreduced quotient (same nodes as gr, all class-level edges before
  /// transitive reduction). Queries never need it; incRCM does: frozen
  /// classes contribute these edge-faithful edges to the hybrid graph, so
  /// that refreshing one class's edges can never hide another's direct
  /// link. May accumulate closure-preserving phantom edges across
  /// incremental updates; the reduced gr stays exact regardless (the
  /// reduction is a function of the closure, which is maintained exactly).
  CsrGraph quotient;
  /// node_map[v] = R(v), the Gr-node of original node v.
  std::vector<NodeId> node_map;
  /// members[c] = original nodes represented by Gr-node c.
  std::vector<std::vector<NodeId>> members;
  /// cyclic[c] = 1 iff class c is a cyclic SCC of G.
  std::vector<uint8_t> cyclic;
  /// Topological rank r of every Gr node (Section 5.1).
  std::vector<uint32_t> ranks;
  /// |V| of the graph this was computed from.
  size_t original_num_nodes = 0;
  /// |G| = |V| + |E| of the original (for compression-ratio reporting).
  size_t original_size = 0;

  /// |Gr| = |Vr| + |Er| (the paper's size measure).
  size_t size() const { return gr->size(); }
  /// Compression ratio RCr = |Gr| / |G|.
  double CompressionRatio() const {
    return original_size == 0
               ? 1.0
               : static_cast<double>(size()) /
                     static_cast<double>(original_size);
  }
  /// Heap bytes of the artifact (Gr + node map + member index).
  size_t MemoryBytes() const;
};

/// Computes Gr = R(G) from any read-only view. Exact; equivalent to the
/// paper's quadratic algorithm but runs on the condensation with one blocked
/// TR sweep.
template <GraphView G>
ReachCompression CompressR(const G& g) {
  ReachCompression rc;
  rc.original_num_nodes = g.num_nodes();
  rc.original_size = ViewSize(g);

  const Condensation cond = BuildCondensation(g);
  const CsrGraph tr = ReduceDag(cond.dag);
  ReachPartition part = reach_detail::ExpandToNodes(
      g.num_nodes(), cond, reach_detail::TwinClasses(tr, cond.scc.cyclic));
  rc.node_map = std::move(part.class_of);
  rc.members = std::move(part.members);
  rc.cyclic = std::move(part.cyclic);
  const size_t nc = part.num_classes;

  // Intra-class edges occur only inside a cyclic class (one SCC), as its
  // self-loop. The quotient is the class image of every condensation edge
  // (every class-level edge of G), and Gr the image of the TR edges.
  std::vector<NodeId> dag_class(cond.dag.num_nodes());
  for (NodeId a = 0; a < dag_class.size(); ++a) {
    dag_class[a] = rc.node_map[cond.scc.members[a][0]];
  }
  CsrBuilder quotient_builder(nc);
  CsrBuilder gr_builder(nc);
  for (NodeId c = 0; c < nc; ++c) {
    if (!rc.cyclic[c]) continue;
    quotient_builder.AddEdge(c, c);
    gr_builder.AddEdge(c, c);
  }
  cond.dag.ForEachEdge([&](NodeId a, NodeId b) {
    quotient_builder.AddEdge(dag_class[a], dag_class[b]);
  });
  tr.ForEachEdge([&](NodeId a, NodeId b) {
    gr_builder.AddEdge(dag_class[a], dag_class[b]);
  });
  rc.quotient = quotient_builder.Build();
  rc.gr = std::make_shared<const CsrGraph>(gr_builder.Build());
  rc.ranks = DagTopoRanks(*rc.gr);
  return rc;
}

/// Batch entry point for the dynamic Graph: freezes a CsrGraph snapshot
/// once, then runs the pipeline above on the flat layout. Defined in
/// compress_r.cc.
ReachCompression CompressR(const Graph& g);

}  // namespace qpgc

#endif  // QPGC_REACH_COMPRESS_R_H_
