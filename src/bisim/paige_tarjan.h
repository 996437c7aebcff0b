// Copyright 2026 The QPGC Authors.
//
// Paige–Tarjan partition refinement ("Three partition refinement
// algorithms", SIAM J. Comput. 1987, §3) specialized to the maximum
// bisimulation over labeled out-neighbors. This is the O(|E| log |V|)
// production engine: a worklist of splitter blocks, in-neighbor traversal
// via the view's InNeighbors, and the counting trick (per-edge count records
// shared by all edges from a node into one coarse block) that makes the
// three-way split — "successors only in S" / "in S and in X\S" /
// "none in S" — a single pass over the in-edges of S.
//
// Why it replaces the fixpoint signature engine on deep graphs: signature
// refinement rehashes every node once per round and a depth-d graph needs d
// rounds, Θ(d·|E|) total. Paige–Tarjan charges each node O(log |V|)
// splitter appearances ("process the smaller half"), so chains, layered
// DAGs and brooms stay near-linear. Both engines compute the identical
// coarsest stable partition (differentially tested in
// tests/paige_tarjan_test.cc).
//
// Templated over GraphView. The engine needs a dense edge-id layout for its
// count records; a DenseInEdgeView input (CsrGraph, the mmap substrate)
// provides that layout directly and the engine borrows it zero-copy, while
// other views pay one flattening scan up front — the batch entry points
// freeze a CsrGraph snapshot first for exactly this reason
// (bench_ablation_bisim measures the gap).

#ifndef QPGC_BISIM_PAIGE_TARJAN_H_
#define QPGC_BISIM_PAIGE_TARJAN_H_

#include <algorithm>
#include <cstddef>
#include <span>
#include <unordered_map>
#include <vector>

#include "bisim/partition.h"
#include "bisim/refine_detail.h"
#include "bisim/signature_bisim.h"
#include "graph/graph.h"
#include "graph/graph_view.h"
#include "util/hash.h"

namespace qpgc {

/// Maximum bisimulation via Paige–Tarjan splitter refinement. Equal (as a
/// set partition) to SignatureBisimulation(g) on every graph.
template <GraphView G>
Partition PaigeTarjanBisimulation(const G& g) {
  using bisim_detail::MakeSegments;
  using bisim_detail::Segments;

  const size_t n = g.num_nodes();
  Partition out;
  out.block_of.assign(n, 0);
  out.num_blocks = 0;
  if (n == 0) return out;

  // Initial fine partition: (label, has-out-edges). Splitting sinks from
  // non-sinks is what makes the label partition stable with respect to the
  // initial coarse block V — Paige–Tarjan's precondition — and it never
  // separates bisimilar nodes.
  NodeId num_init = 0;
  {
    std::unordered_map<uint64_t, NodeId> first;
    first.reserve(n);
    for (NodeId v = 0; v < n; ++v) {
      const uint64_t key = (static_cast<uint64_t>(g.label(v)) << 1) |
                           (g.OutDegree(v) > 0 ? 1u : 0u);
      const auto [it, inserted] = first.try_emplace(key, num_init);
      if (inserted) ++num_init;
      out.block_of[v] = it->second;
    }
  }
  Segments s = MakeSegments(out.block_of, num_init);

  // Coarse partition: one block holding every fine block.
  struct XBlock {
    std::vector<NodeId> blocks;
    bool queued = false;
  };
  std::vector<XBlock> xs(1);
  xs[0].blocks.reserve(num_init);
  for (NodeId b = 0; b < num_init; ++b) {
    s.blocks[b].x = 0;
    s.blocks[b].xpos = b;
    xs[0].blocks.push_back(b);
  }
  std::vector<NodeId> worklist;
  if (xs[0].blocks.size() >= 2) {
    xs[0].queued = true;
    worklist.push_back(0);
  }

  // In-edge CSR with dense edge ids so the splitter scan can repoint each
  // edge's count record in place. A DenseInEdgeView input (CsrGraph, the
  // mmap substrate) already stores exactly this layout, so the engine
  // borrows the view's arrays instead of copying them — O(|V| + |E|) fewer
  // bytes resident per run. On a Graph the vector-of-vectors is flattened
  // once as before, so the per-splitter scans below never chase per-node
  // heap pointers.
  const size_t m = g.num_edges();
  std::vector<size_t> in_begin_store;
  std::vector<NodeId> in_src_store;
  std::span<const NodeId> in_src;
  if constexpr (DenseInEdgeView<G>) {
    in_src = g.InEdgeSources();
    QPGC_CHECK(in_src.size() == m);
  } else {
    in_begin_store.assign(n + 1, 0);
    in_src_store.resize(m);
    size_t at = 0;
    for (NodeId w = 0; w < n; ++w) {
      in_begin_store[w] = at;
      for (NodeId v : g.InNeighbors(w)) in_src_store[at++] = v;
    }
    in_begin_store[n] = at;
    in_src = in_src_store;
  }
  const auto in_edge_begin = [&](NodeId w) -> size_t {
    if constexpr (DenseInEdgeView<G>) {
      return g.InEdgeBegin(w);
    } else {
      return in_begin_store[w];
    }
  };

  // Count records: rec_val[r] is simultaneously cnt(v, X) for the (source
  // node, coarse block) pair the record represents and the number of edges
  // whose edge_rec points at r — so a record is safely recycled the moment
  // its value reaches zero.
  std::vector<uint32_t> rec_val;
  rec_val.reserve(n + 16);
  std::vector<uint32_t> free_recs;
  std::vector<uint32_t> edge_rec(m);
  {
    std::vector<uint32_t> node_rec(n, 0);
    for (NodeId v = 0; v < n; ++v) {
      if (g.OutDegree(v) > 0) {
        node_rec[v] = static_cast<uint32_t>(rec_val.size());
        rec_val.push_back(static_cast<uint32_t>(g.OutDegree(v)));
      }
    }
    for (size_t e = 0; e < m; ++e) edge_rec[e] = node_rec[in_src[e]];
  }
  const auto alloc_rec = [&]() -> uint32_t {
    if (!free_recs.empty()) {
      const uint32_t r = free_recs.back();
      free_recs.pop_back();
      rec_val[r] = 0;
      return r;
    }
    rec_val.push_back(0);
    return static_cast<uint32_t>(rec_val.size() - 1);
  };

  // Registers a freshly split-off block with its coarse block, queueing the
  // coarse block once it turns compound.
  const auto attach_to_x = [&](NodeId nb) {
    const NodeId px = s.blocks[nb].x;
    s.blocks[nb].xpos = static_cast<uint32_t>(xs[px].blocks.size());
    xs[px].blocks.push_back(nb);
    if (xs[px].blocks.size() >= 2 && !xs[px].queued) {
      xs[px].queued = true;
      worklist.push_back(px);
    }
  };

  std::vector<uint32_t> seen(n, 0);
  uint32_t stamp = 0;
  std::vector<uint32_t> new_rec(n, 0);  // record (v, S) of the current round
  std::vector<uint32_t> old_cnt(n, 0);  // cnt(v, X) before the current round
  std::vector<NodeId> pre;              // distinct predecessors of S
  std::vector<NodeId> touched;          // blocks hit by the current marking
  std::vector<NodeId> pre_blocks;       // blocks fully inside pre(S)

  while (!worklist.empty()) {
    const NodeId x = worklist.back();
    worklist.pop_back();
    xs[x].queued = false;
    if (xs[x].blocks.size() < 2) continue;

    // Splitter S: the smaller of the first two fine blocks of x, extracted
    // into its own coarse block ("process the smaller half").
    NodeId sb = xs[x].blocks[0];
    if (s.size(xs[x].blocks[1]) < s.size(sb)) sb = xs[x].blocks[1];
    {
      const uint32_t at = s.blocks[sb].xpos;
      const NodeId last = xs[x].blocks.back();
      xs[x].blocks[at] = last;
      s.blocks[last].xpos = at;
      xs[x].blocks.pop_back();
    }
    const NodeId x1 = static_cast<NodeId>(xs.size());
    xs.emplace_back();
    xs[x1].blocks.push_back(sb);
    s.blocks[sb].x = x1;
    s.blocks[sb].xpos = 0;
    if (xs[x].blocks.size() >= 2) {
      xs[x].queued = true;
      worklist.push_back(x);
    }

    // One pass over the in-edges of S: discover pre(S), capture the old
    // cnt(v, X) at first sight of v (every v->S edge still points at the
    // (v, X) record then), and move each edge onto the new (v, S) record.
    ++stamp;
    pre.clear();
    const uint32_t s_begin = s.blocks[sb].begin;
    const uint32_t s_end = s.blocks[sb].end;
    for (uint32_t i = s_begin; i < s_end; ++i) {
      const NodeId w = s.nodes[i];
      const size_t e_begin = in_edge_begin(w);
      for (size_t e = e_begin; e < e_begin + g.InDegree(w); ++e) {
        const NodeId v = in_src[e];
        const uint32_t r_old = edge_rec[e];
        if (seen[v] != stamp) {
          seen[v] = stamp;
          old_cnt[v] = rec_val[r_old];
          new_rec[v] = alloc_rec();
          pre.push_back(v);
        }
        if (--rec_val[r_old] == 0) free_recs.push_back(r_old);
        ++rec_val[new_rec[v]];
        edge_rec[e] = new_rec[v];
      }
    }

    // Three-way split. Pass 1 cuts every touched block into "has a
    // successor in S" / "has none"; pass 2 cuts the former into
    // "successors in both S and X\S" / "only in S" (cnt(v,S) == cnt(v,X)).
    // Blocks disjoint from pre(S), and the residual halves, stay stable
    // with respect to X\S by the invariant, so only pre-blocks need pass 2.
    touched.clear();
    for (const NodeId v : pre) {
      if (s.blocks[s.blk[v]].marked == 0) touched.push_back(s.blk[v]);
      s.Mark(v);
    }
    pre_blocks.clear();
    for (const NodeId b : touched) {
      const NodeId pb = s.SplitMarked(b);
      if (pb != b) attach_to_x(pb);
      pre_blocks.push_back(pb);
    }
    for (const NodeId v : pre) {
      if (rec_val[new_rec[v]] != old_cnt[v]) s.Mark(v);
    }
    for (const NodeId b : pre_blocks) {
      if (s.blocks[b].marked == 0) continue;
      const NodeId nb = s.SplitMarked(b);
      if (nb != b) attach_to_x(nb);
    }
  }

  for (NodeId v = 0; v < n; ++v) out.block_of[v] = s.blk[v];
  out.num_blocks = s.blocks.size();
  out.Normalize();
  return out;
}

/// Forward k-bisimulation partition (k = 0 is the label partition) by
/// bounded splitter rounds: identical (as a set partition) to k rounds of
/// RefineOnce, but each round touches only the predecessors of nodes whose
/// block changed in the previous round, so deep graphs cost O(affected) per
/// round instead of Θ(|V| + |E|). The backward orientation is in
/// bisim/kbisim.h.
template <GraphView G>
Partition KBisimulation(const G& g, size_t k) {
  using bisim_detail::MakeSegments;
  using bisim_detail::Segments;

  const size_t n = g.num_nodes();
  Partition out = LabelPartition(g);
  if (n == 0 || k == 0) {
    out.Normalize();
    return out;
  }
  Segments s = MakeSegments(out.block_of, out.num_blocks);

  // Round i refines round i-1's partition by successor-block sets, exactly
  // like RefineOnce, but only nodes with a successor whose block changed in
  // the previous round can regroup. Within a touched block, every clean
  // member kept its successor-block id set (split-off subgroups get fresh
  // ids, survivors keep theirs), so one clean representative's signature
  // stands in for all of them.
  std::vector<uint8_t> dirty_flag(n, 1);
  std::vector<NodeId> dirty(n);
  for (NodeId v = 0; v < n; ++v) dirty[v] = v;
  std::vector<NodeId> changed;
  std::vector<NodeId> touched;
  std::vector<NodeId> dirty_members;
  // Splits staged per round: (block, non-keeper groups). Grouping must read
  // the pre-round partition for every block — applying a split mid-round
  // would leak the new ids into later blocks' signatures and refine faster
  // than the synchronous rounds of RefineOnce.
  std::vector<std::pair<NodeId, std::vector<std::vector<NodeId>>>> pending;

  const auto sig_of = [&](NodeId v) {
    std::vector<NodeId> sig;
    sig.reserve(g.OutDegree(v));
    for (NodeId w : g.OutNeighbors(v)) sig.push_back(s.blk[w]);
    std::sort(sig.begin(), sig.end());
    sig.erase(std::unique(sig.begin(), sig.end()), sig.end());
    return sig;
  };

  for (size_t round = 0; round < k && !dirty.empty(); ++round) {
    touched.clear();
    for (const NodeId v : dirty) {
      dirty_flag[v] = 0;
      if (s.blocks[s.blk[v]].marked == 0) touched.push_back(s.blk[v]);
      s.Mark(v);
    }

    // Phase 1: group every touched block's dirty members by signature
    // against the pre-round partition. No splits yet.
    pending.clear();
    for (const NodeId b : touched) {
      const uint32_t marked = s.blocks[b].marked;
      const uint32_t begin = s.blocks[b].begin;
      const bool has_clean = marked < s.size(b);
      dirty_members.assign(s.nodes.begin() + begin,
                           s.nodes.begin() + begin + marked);
      s.blocks[b].marked = 0;

      // Group 0 keeps the block id: the clean members' group (represented
      // by one clean signature — every clean member kept its successor-
      // block id set) when the block has any, else the first dirty group.
      std::unordered_map<std::vector<NodeId>, uint32_t, VectorHash> group_of;
      std::vector<std::vector<NodeId>> groups;
      if (has_clean) {
        const NodeId rep = s.nodes[s.blocks[b].end - 1];
        group_of.emplace(sig_of(rep), 0);
        groups.emplace_back();
      }
      for (const NodeId v : dirty_members) {
        const auto [it, inserted] = group_of.try_emplace(
            sig_of(v), static_cast<uint32_t>(groups.size()));
        if (inserted) groups.emplace_back();
        groups[it->second].push_back(v);
      }
      if (groups.size() > 1) {
        pending.emplace_back(
            b, std::vector<std::vector<NodeId>>(
                   std::make_move_iterator(groups.begin() + 1),
                   std::make_move_iterator(groups.end())));
      }
    }

    // Phase 2: apply the staged splits; members of split-off groups are the
    // ones whose block id changed this round.
    changed.clear();
    for (auto& [b, groups] : pending) {
      for (const auto& group : groups) {
        for (const NodeId v : group) s.Mark(v);
        const NodeId nb = s.SplitMarked(b);
        QPGC_DCHECK(nb != b);
        for (uint32_t i = s.blocks[nb].begin; i < s.blocks[nb].end; ++i) {
          changed.push_back(s.nodes[i]);
        }
      }
    }

    if (changed.empty()) break;
    dirty.clear();
    for (const NodeId v : changed) {
      for (const NodeId u : g.InNeighbors(v)) {
        if (!dirty_flag[u]) {
          dirty_flag[u] = 1;
          dirty.push_back(u);
        }
      }
    }
  }

  out.block_of = s.blk;
  out.num_blocks = s.blocks.size();
  out.Normalize();
  return out;
}

// Non-template Graph overloads (compiled once in paige_tarjan.cc).
Partition PaigeTarjanBisimulation(const Graph& g);
Partition KBisimulation(const Graph& g, size_t k);

}  // namespace qpgc

#endif  // QPGC_BISIM_PAIGE_TARJAN_H_
