// Copyright 2026 The QPGC Authors.

#include "inc/inc_pcm.h"

#include <algorithm>
#include <unordered_set>

#include "bisim/paige_tarjan.h"
#include "graph/builder.h"
#include "util/hash.h"

namespace qpgc {

IncPcmStats IncPCM(const Graph& g_after, const UpdateBatch& effective,
                   PatternCompression& pc) {
  IncPcmStats stats;
  if (effective.empty()) {
    return stats;
  }
  QPGC_CHECK(g_after.num_nodes() == pc.original_num_nodes);
  const size_t nb = pc.members.size();

  // Edges inserted by this batch (to recognize pre-existing children).
  std::unordered_set<std::pair<NodeId, NodeId>, PairHash> inserted;
  for (const EdgeUpdate& up : effective.updates) {
    if (up.is_insert) inserted.insert({up.u, up.v});
  }

  // Step 1: minDelta. (u, w) is redundant iff u has another surviving,
  // pre-existing child w'' in w's pre-update block — then u's successor
  // block set is unchanged.
  std::vector<EdgeUpdate> kept;
  kept.reserve(effective.size());
  for (const EdgeUpdate& up : effective.updates) {
    const NodeId target_block = pc.node_map[up.v];
    bool redundant = false;
    for (NodeId w2 : g_after.OutNeighbors(up.u)) {
      if (w2 == up.v) continue;
      if (pc.node_map[w2] != target_block) continue;
      if (inserted.contains({up.u, w2})) continue;  // not pre-existing
      redundant = true;
      break;
    }
    if (redundant) {
      ++stats.reduced_updates;
    } else {
      kept.push_back(up);
    }
  }
  stats.kept_updates = kept.size();
  if (kept.empty()) {
    pc.original_size = g_after.size();
    return stats;
  }

  // Step 2: the affected cone — predecessor closure in Gr of the kept
  // updates' source blocks.
  std::vector<uint8_t> dissolved(nb, 0);
  {
    std::vector<NodeId> stack;
    for (const EdgeUpdate& up : kept) {
      const NodeId root = pc.node_map[up.u];
      if (!dissolved[root]) {
        dissolved[root] = 1;
        stack.push_back(root);
      }
    }
    while (!stack.empty()) {
      const NodeId b = stack.back();
      stack.pop_back();
      for (NodeId p : pc.gr->InNeighbors(b)) {
        if (!dissolved[p]) {
          dissolved[p] = 1;
          stack.push_back(p);
        }
      }
    }
  }

  // Step 3: hybrid graph. Frozen supers keep labels and quotient edges;
  // dissolved members carry their own labels and real out-adjacency.
  std::vector<NodeId> block_h(nb, kInvalidNode);
  NodeId nh = 0;
  for (NodeId b = 0; b < nb; ++b) {
    if (!dissolved[b]) block_h[b] = nh++;
  }
  std::vector<NodeId> member_of_h;
  std::vector<NodeId> node_h(g_after.num_nodes(), kInvalidNode);
  std::vector<NodeId> dissolved_blocks;
  for (NodeId b = 0; b < nb; ++b) {
    if (!dissolved[b]) continue;
    dissolved_blocks.push_back(b);
    ++stats.dissolved_blocks;
    for (NodeId v : pc.members[b]) {
      node_h[v] = nh + static_cast<NodeId>(member_of_h.size());
      member_of_h.push_back(v);
    }
  }
  stats.dissolved_nodes = member_of_h.size();

  std::vector<Label> h_labels(nh + member_of_h.size());
  for (NodeId b = 0; b < nb; ++b) {
    if (!dissolved[b]) h_labels[block_h[b]] = pc.gr->label(b);
  }
  for (NodeId v : member_of_h) h_labels[node_h[v]] = g_after.label(v);
  CsrBuilder hb(std::move(h_labels));

  pc.gr->ForEachEdge([&](NodeId b, NodeId d) {
    if (dissolved[b]) return;  // dissolved blocks contribute member edges
    // The cone is predecessor-closed: a frozen block cannot point into it.
    QPGC_CHECK(!dissolved[d]);
    hb.AddEdge(block_h[b], block_h[d]);
  });
  for (NodeId v : member_of_h) {
    for (NodeId w : g_after.OutNeighbors(v)) {
      const NodeId bw = pc.node_map[w];
      hb.AddEdge(node_h[v], dissolved[bw] ? node_h[w] : block_h[bw]);
    }
  }
  const CsrGraph h = hb.Build();
  stats.hybrid_vertices = h.num_nodes();
  stats.hybrid_edges = h.num_edges();

  // Step 4: maximum bisimulation of the hybrid graph, translated back.
  const Partition part = PaigeTarjanBisimulation(h);

  PatternCompression next;
  next.original_num_nodes = pc.original_num_nodes;
  next.original_size = g_after.size();
  next.node_map.assign(pc.original_num_nodes, kInvalidNode);
  next.members.assign(part.num_blocks, {});

  std::vector<Label> gr_labels(part.num_blocks);
  for (NodeId hv = 0; hv < h.num_nodes(); ++hv) {
    gr_labels[part.block_of[hv]] = h.label(hv);
  }
  CsrBuilder grb(std::move(gr_labels));
  h.ForEachEdge([&](NodeId x, NodeId y) {
    grb.AddEdge(part.block_of[x], part.block_of[y]);
  });
  next.gr = std::make_shared<const CsrGraph>(grb.Build());

#ifndef NDEBUG
  // Two frozen supers can never be bisimilar (their unfoldings were distinct
  // pre-update and are untouched).
  {
    std::vector<uint8_t> seen(part.num_blocks, 0);
    for (NodeId hv = 0; hv < nh; ++hv) {
      QPGC_CHECK(!seen[part.block_of[hv]]);
      seen[part.block_of[hv]] = 1;
    }
  }
#endif

  for (NodeId hv = 0; hv < h.num_nodes(); ++hv) {
    if (hv < nh) continue;
    const NodeId v = member_of_h[hv - nh];
    next.node_map[v] = part.block_of[hv];
    next.members[part.block_of[hv]].push_back(v);
  }
  for (NodeId b = 0; b < nb; ++b) {
    if (dissolved[b]) continue;
    const NodeId cls = part.block_of[block_h[b]];
    for (NodeId v : pc.members[b]) {
      next.node_map[v] = cls;
      next.members[cls].push_back(v);
    }
  }
  for (auto& m : next.members) std::sort(m.begin(), m.end());

  pc = std::move(next);
  return stats;
}

}  // namespace qpgc
