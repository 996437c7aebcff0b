// Copyright 2026 The QPGC Authors.

#include "inc/inc_rcm.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "graph/builder.h"
#include "graph/closure.h"
#include "graph/traversal.h"
#include "util/hash.h"

namespace qpgc {

namespace {

using EdgeSet = std::unordered_set<std::pair<NodeId, NodeId>, PairHash>;

// Budget-capped BFS in `g`: true iff `from` reaches `to` via a non-empty
// path that avoids every edge in `forbidden`. Used as a *sound* redundancy
// test against the post-update graph: a confirmed alternate path means the
// update changes no closure anywhere; an exhausted budget simply keeps the
// update. In SCC-heavy graphs (the paper's social networks) this discharges
// the bulk of a random batch.
//
// `forbidden` is what makes chains of mutually-justifying insertions sound:
// when testing an insertion, all batch insertions not yet *kept* are
// forbidden, so a witness can only use pre-existing or definitely-kept
// edges (a dropped edge may never justify dropping another).
bool BoundedAltReach(const Graph& g, NodeId from, NodeId to,
                     const EdgeSet& forbidden, size_t budget,
                     std::vector<uint32_t>& stamp, uint32_t& stamp_gen) {
  ++stamp_gen;
  std::deque<NodeId> queue;
  size_t visited = 0;
  const auto blocked = [&](NodeId x, NodeId w) {
    return !forbidden.empty() && forbidden.contains({x, w});
  };
  const auto expand = [&](NodeId x) -> bool {
    for (NodeId w : g.OutNeighbors(x)) {
      if (blocked(x, w)) continue;
      if (w == to) return true;
      if (stamp[w] != stamp_gen) {
        stamp[w] = stamp_gen;
        queue.push_back(w);
        ++visited;
      }
    }
    return false;
  };
  if (expand(from)) return true;
  while (!queue.empty() && visited < budget) {
    const NodeId x = queue.front();
    queue.pop_front();
    if (expand(x)) return true;
  }
  return false;
}

}  // namespace

IncRcmStats IncRCM(const Graph& g_after, const UpdateBatch& effective,
                   ReachCompression& rc) {
  IncRcmStats stats;
  if (effective.empty()) return stats;
  QPGC_CHECK(g_after.num_nodes() == rc.original_num_nodes);

  const size_t nc = rc.members.size();
  const size_t n = g_after.num_nodes();

  // Step 1: redundancy reduction against the post-update graph. An
  // insertion (u, u') with an alternate u -> u' path (not using the new
  // edge, nor any undecided inserted edge) adds no reachability; a deletion
  // (u, u') whose endpoints stay connected in g_after removes none (and the
  // witness may freely use inserted edges — adding an edge between already
  // connected endpoints changes nothing, by induction over the dropped
  // set). Both tests are exact when they fire and merely conservative when
  // the budget runs out.
  std::vector<uint32_t> stamp(n, 0);
  uint32_t stamp_gen = 0;
  constexpr size_t kInsertBudget = 256;
  constexpr size_t kDeleteBudget = 1024;
  EdgeSet undecided_inserts;
  for (const EdgeUpdate& up : effective.updates) {
    if (up.is_insert) undecided_inserts.insert({up.u, up.v});
  }
  static const EdgeSet kNoForbidden;
  std::vector<EdgeUpdate> kept;
  kept.reserve(effective.size());
  for (const EdgeUpdate& up : effective.updates) {
    bool redundant;
    if (up.is_insert) {
      redundant = BoundedAltReach(g_after, up.u, up.v, undecided_inserts,
                                  kInsertBudget, stamp, stamp_gen);
      undecided_inserts.erase({up.u, up.v});
      if (redundant) undecided_inserts.insert({up.u, up.v});  // stays unusable
    } else {
      redundant = BoundedAltReach(g_after, up.u, up.v, kNoForbidden,
                                  kDeleteBudget, stamp, stamp_gen);
    }
    if (redundant) {
      ++stats.reduced_updates;
    } else {
      kept.push_back(up);
    }
  }
  stats.kept_updates = kept.size();
  if (kept.empty()) {
    // Quotient and reduction are functions of the closure, which is
    // unchanged.
    rc.original_size = g_after.size();
    return stats;
  }

  // Step 2: the affected area, at three granularities.
  //  * Insertion endpoints dissolve as singletons: the remaining members of
  //    their class keep their (identical, unchanged-so-far) closure and
  //    stay as a rest-supernode. Exact because trivial classes have no
  //    internal edges, and a cyclic class minus one member remains mutually
  //    reachable through the graph.
  //  * Deletion cones (ancestors of [u], descendants of [u'] over the
  //    quotient plus inserted class edges — an over-approximation of every
  //    intermediate state): a *trivial* class there may genuinely diverge
  //    member-by-member and dissolves; a *cyclic* class with intact
  //    internals cannot diverge (members reach each other, so every
  //    external loss is shared) — it is "aggregated": one vertex whose
  //    class-level edges are refreshed from its members' real adjacency.
  //  * A class containing a deleted *internal* edge must re-derive its SCC
  //    structure and dissolves.
  enum class Mode : uint8_t { kFrozen, kAggregate, kDissolve };
  std::vector<Mode> mode(nc, Mode::kFrozen);
  std::vector<uint8_t> node_dissolved(n, 0);

  const bool has_deletions =
      std::any_of(kept.begin(), kept.end(),
                  [](const EdgeUpdate& e) { return !e.is_insert; });
  if (has_deletions) {
    CsrBuilder union_builder(nc);
    rc.quotient.ForEachEdge(
        [&](NodeId c, NodeId d) { union_builder.AddEdge(c, d); });
    std::vector<NodeId> del_sources, del_targets;
    std::vector<uint8_t> internal_deletion(nc, 0);
    for (const EdgeUpdate& up : kept) {
      if (up.is_insert) {
        union_builder.AddEdge(rc.node_map[up.u], rc.node_map[up.v]);
      } else {
        const NodeId cu = rc.node_map[up.u];
        const NodeId cv = rc.node_map[up.v];
        del_sources.push_back(cu);
        del_targets.push_back(cv);
        if (cu == cv) internal_deletion[cu] = 1;
      }
    }
    const CsrGraph union_q = union_builder.Build();
    // One multi-source sweep per direction covers all deletions at once.
    const Bitset ancestors = BoundedMultiSourceReach(
        union_q, del_sources, kUnboundedDepth, Direction::kBackward);
    const Bitset descendants = BoundedMultiSourceReach(
        union_q, del_targets, kUnboundedDepth, Direction::kForward);
    const auto mark = [&](NodeId c) {
      mode[c] = rc.cyclic[c] && !internal_deletion[c] ? Mode::kAggregate
                                                      : Mode::kDissolve;
    };
    for (NodeId x = 0; x < nc; ++x) {
      if (ancestors.Test(x) || descendants.Test(x)) mark(x);
    }
    for (size_t i = 0; i < del_sources.size(); ++i) {
      mark(del_sources[i]);
      mark(del_targets[i]);
    }
  }
  for (const EdgeUpdate& up : kept) {
    if (up.is_insert) {
      node_dissolved[up.u] = 1;
      node_dissolved[up.v] = 1;
    }
  }
  for (NodeId c = 0; c < nc; ++c) {
    if (mode[c] == Mode::kDissolve) {
      ++stats.dissolved_classes;
      for (NodeId v : rc.members[c]) node_dissolved[v] = 1;
    } else if (mode[c] == Mode::kAggregate) {
      ++stats.aggregated_classes;
    }
  }

  // Step 3: hybrid graph H.
  //  * Frozen classes with surviving members: supernode + unreduced
  //    quotient edges (edge-faithful: their members' edges are untouched).
  //  * Aggregated classes: supernode + edges re-derived from surviving
  //    members' real post-update adjacency.
  //  * Dissolved members: individual vertices with real adjacency; their
  //    in-edges from surviving classes are attached at the supernode level.
  std::vector<NodeId> class_h(nc, kInvalidNode);
  NodeId nh = 0;
  for (NodeId c = 0; c < nc; ++c) {
    size_t rest = 0;
    for (NodeId v : rc.members[c]) rest += !node_dissolved[v];
    if (rest > 0) class_h[c] = nh++;
  }
  std::vector<NodeId> member_of_h;
  std::vector<NodeId> node_h(n, kInvalidNode);
  for (NodeId c = 0; c < nc; ++c) {
    for (NodeId v : rc.members[c]) {
      if (!node_dissolved[v]) continue;
      node_h[v] = nh + static_cast<NodeId>(member_of_h.size());
      member_of_h.push_back(v);
    }
  }
  stats.dissolved_nodes = member_of_h.size();

  CsrBuilder hb(nh + member_of_h.size());
  const auto target_vertex = [&](NodeId w) {
    return node_dissolved[w] ? node_h[w] : class_h[rc.node_map[w]];
  };
  rc.quotient.ForEachEdge([&](NodeId c, NodeId d) {
    if (mode[c] != Mode::kFrozen) return;  // aggregates re-derive below
    if (class_h[c] != kInvalidNode && class_h[d] != kInvalidNode) {
      hb.AddEdge(class_h[c], class_h[d]);
    }
  });
  for (NodeId c = 0; c < nc; ++c) {
    if (mode[c] != Mode::kAggregate || class_h[c] == kInvalidNode) continue;
    for (NodeId m : rc.members[c]) {
      if (node_dissolved[m]) continue;
      for (NodeId w : g_after.OutNeighbors(m)) {
        hb.AddEdge(class_h[c], target_vertex(w));
      }
    }
  }
  for (NodeId v : member_of_h) {
    const NodeId hv = node_h[v];
    for (NodeId w : g_after.OutNeighbors(v)) hb.AddEdge(hv, target_vertex(w));
    for (NodeId a : g_after.InNeighbors(v)) {
      if (!node_dissolved[a]) hb.AddEdge(class_h[rc.node_map[a]], hv);
    }
  }
  const CsrGraph h = hb.Build();
  stats.hybrid_vertices = h.num_nodes();
  stats.hybrid_edges = h.num_edges();

  // Step 4: recompress the hybrid graph (already frozen) and translate back.
  ReachCompression sub = CompressR(h);

  ReachCompression next;
  next.gr = std::move(sub.gr);
  next.quotient = std::move(sub.quotient);
  next.cyclic = std::move(sub.cyclic);
  next.ranks = std::move(sub.ranks);
  next.original_num_nodes = rc.original_num_nodes;
  next.original_size = g_after.size();
  next.members.assign(next.gr->num_nodes(), {});
  next.node_map.assign(n, kInvalidNode);
  for (NodeId hv = 0; hv < h.num_nodes(); ++hv) {
    if (hv < nh) continue;  // rest-supernodes are spliced below
    const NodeId cls = sub.node_map[hv];
    const NodeId v = member_of_h[hv - nh];
    next.node_map[v] = cls;
    next.members[cls].push_back(v);
  }
  for (NodeId c = 0; c < nc; ++c) {
    if (class_h[c] == kInvalidNode) continue;
    const NodeId cls = sub.node_map[class_h[c]];
    for (NodeId v : rc.members[c]) {
      if (node_dissolved[v]) continue;
      next.node_map[v] = cls;
      next.members[cls].push_back(v);
    }
  }
  for (auto& m : next.members) std::sort(m.begin(), m.end());

  rc = std::move(next);
  return stats;
}

}  // namespace qpgc
