// Copyright 2026 The QPGC Authors.
//
// The reachability equivalence relation Re of Section 3.1: (u, v) in Re iff
// u and v have the same ancestors and the same descendants, where ancestor/
// descendant sets are taken over *non-empty* paths (Example 2 of the paper
// requires this: BSA1 ~ BSA2 although neither reaches the other; under
// reflexive semantics Re would degenerate to SCC equality).
//
// Structure theorem (property-tested against the reference below):
//   Every Re-class is either (a) exactly one cyclic SCC, or (b) a set of
//   acyclic SCC nodes with equal ancestor and descendant sets on the
//   condensation DAG.
//   Proof of (a): if u lies on a cycle then u ∈ desc(u) = desc(v) and
//   u ∈ anc(u) = anc(v), so u and v reach each other — same SCC. So cyclic
//   SCCs stay singleton classes and are kept out of the grouping in (b).
//
// TR characterization, which decides (b): on a DAG the transitive-reduction
// (TR) children of u are the minimal elements of desc(u), and desc(u) is
// the union of {c} ∪ desc(c) over those children. So desc(u) = desc(v) iff
// u and v have the same TR children; dually for ancestors and TR parents.
// Two acyclic condensation nodes are Re-equivalent iff they have the same
// TR children and the same TR parents: every class is a set of TR twins,
// which is why compressR's Gr is the class image of the TR.
//
// Two implementations:
//  * ComputeReachEquivalence — condensation, one O(|E_dag| * |V_dag| / 64)
//    blocked TR sweep of its DAG (graph/reduction.h), then acyclic nodes
//    grouped by exact equality of their sorted (TR children, TR parents)
//    arrays; a hash only picks the bucket.
//  * ComputeReachEquivalenceRef — the paper's own O(|V|(|V| + |E|)) method
//    (per-node BFS for ancestor and descendant sets), used as ground truth.

#ifndef QPGC_REACH_EQUIVALENCE_H_
#define QPGC_REACH_EQUIVALENCE_H_

#include <cstddef>
#include <vector>

#include "graph/condensation.h"
#include "graph/csr.h"
#include "graph/graph.h"
#include "graph/graph_view.h"
#include "graph/reduction.h"

namespace qpgc {

/// A partition of V into reachability equivalence classes.
struct ReachPartition {
  /// class_of[v] = equivalence class of node v.
  std::vector<NodeId> class_of;
  /// Number of classes.
  size_t num_classes = 0;
  /// members[c] = nodes of class c, ascending.
  std::vector<std::vector<NodeId>> members;
  /// cyclic[c] = 1 iff the members of c lie on cycles (then c is one SCC).
  std::vector<uint8_t> cyclic;

  /// Canonical form for equality checks in tests: classes sorted by their
  /// smallest member.
  std::vector<std::vector<NodeId>> CanonicalClasses() const;
};

namespace reach_detail {

/// Groups the condensation's nodes into Re classes, given its transitive
/// reduction `tr`: each cyclic node alone, acyclic nodes by their (TR
/// children, TR parents). Class ids are not dense.
std::vector<NodeId> TwinClasses(const CsrGraph& tr,
                                const std::vector<uint8_t>& cyclic);

/// Renumbers classes to be dense in order of first appearance and expands a
/// per-DAG-node partition to original nodes via the SCC map.
ReachPartition ExpandToNodes(size_t num_nodes, const Condensation& cond,
                             const std::vector<NodeId>& dag_cls);

}  // namespace reach_detail

/// Fast exact computation (condensation + one blocked TR sweep).
template <GraphView G>
ReachPartition ComputeReachEquivalence(const G& g,
                                       size_t block_cols = kReduceBlockCols) {
  const Condensation cond = BuildCondensation(g);
  const CsrGraph tr = ReduceDag(cond.dag, block_cols);
  return reach_detail::ExpandToNodes(
      g.num_nodes(), cond, reach_detail::TwinClasses(tr, cond.scc.cyclic));
}

/// Non-template Graph overload (compiled once in equivalence.cc).
ReachPartition ComputeReachEquivalence(const Graph& g,
                                       size_t block_cols = kReduceBlockCols);

/// Reference computation (the paper's per-node BFS algorithm).
ReachPartition ComputeReachEquivalenceRef(const Graph& g);

}  // namespace qpgc

#endif  // QPGC_REACH_EQUIVALENCE_H_
