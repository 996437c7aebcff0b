// Copyright 2026 The QPGC Authors.

#include "serve/router.h"

#include <algorithm>
#include <limits>

#include "core/pattern_scheme.h"
#include "serve/boundary_summary.h"
#include "util/common.h"

namespace qpgc {

StitchedPatternQuotient BuildStitchedPatternQuotient(
    const ShardPartition& part,
    const std::vector<std::shared_ptr<const ServingSnapshot>>& snaps) {
  const uint32_t num_shards = part.num_shards;
  QPGC_CHECK(snaps.size() == num_shards);

  // Frozen pattern sides are already compact (owned blocks only, ghost
  // blocks dropped; serve/snapshot.h), so stitched ids are just per-shard
  // block ranges laid end to end.
  std::vector<NodeId> base(num_shards + 1, 0);
  for (uint32_t s = 0; s < num_shards; ++s) {
    base[s + 1] =
        base[s] + static_cast<NodeId>(snaps[s]->pattern_gr().num_nodes());
  }
  const size_t total = base[num_shards];

  StitchedPatternQuotient st;
  st.origin.resize(total);
  // Direct CSR assembly (no dynamic-Graph round trip): per-shard intra
  // edges are a uniform base[s] shift of already sorted frozen runs, so a
  // node's stitched run only needs re-sorting when cross-shard redirects
  // were appended to it.
  std::vector<Label> labels(total);
  std::vector<uint64_t> offsets(total + 1, 0);
  size_t edge_estimate = 0;
  for (uint32_t s = 0; s < num_shards; ++s) {
    edge_estimate += snaps[s]->pattern_gr().num_edges() +
                     snaps[s]->pattern_cross_edges().size();
  }
  std::vector<NodeId> targets;
  targets.reserve(edge_estimate);
  for (uint32_t s = 0; s < num_shards; ++s) {
    const CsrGraph& gr = snaps[s]->pattern_gr();
    // Cross-shard quotient edges, sorted by source block (RefreezeMapped
    // collects them in traversal order): redirect each ghost-directed edge
    // to the ghost's block in its home shard (where the ghost is owned, so
    // its pattern_map entry is valid).
    const std::vector<std::pair<NodeId, NodeId>>& cross =
        snaps[s]->pattern_cross_edges();
    size_t ci = 0;
    for (NodeId c = 0; c < gr.num_nodes(); ++c) {
      const NodeId id = base[s] + c;
      st.origin[id] = {s, c};
      labels[id] = gr.label(c);
      const size_t run_begin = targets.size();
      for (const NodeId t : gr.OutNeighbors(c)) targets.push_back(base[s] + t);
      bool redirected = false;
      while (ci < cross.size() && cross[ci].first == c) {
        const NodeId ghost = cross[ci].second;
        const uint32_t home = part.shard_of[ghost];
        const NodeId home_block = snaps[home]->pattern_map()[ghost];
        QPGC_DCHECK(home_block != kInvalidNode);
        targets.push_back(base[home] + home_block);
        redirected = true;
        ++ci;
      }
      if (redirected) {
        // Redirects land out of order and may collapse onto one home
        // block: re-sort and dedupe this run only.
        std::sort(targets.begin() + run_begin, targets.end());
        targets.erase(std::unique(targets.begin() + run_begin, targets.end()),
                      targets.end());
      }
      offsets[id + 1] = targets.size();
    }
    QPGC_DCHECK(ci == cross.size());
  }
  st.gr.AdoptCsr(std::move(offsets), std::move(targets), std::move(labels));
  // Global node map: every node is owned by exactly one shard, where its
  // pattern_map entry is a compact (owned) block id.
  st.node_map.resize(part.num_nodes());
  for (NodeId v = 0; v < part.num_nodes(); ++v) {
    const uint32_t s = part.shard_of[v];
    const NodeId block = snaps[s]->pattern_map()[v];
    QPGC_DCHECK(block != kInvalidNode);
    st.node_map[v] = base[s] + block;
  }
  return st;
}

PinnedShards::PinnedShards(
    std::shared_ptr<const ShardPartition> part,
    std::vector<std::shared_ptr<const ServingSnapshot>> snaps,
    std::shared_ptr<StitchCache> stitch_cache)
    : part_(std::move(part)),
      snaps_(std::move(snaps)),
      stitch_cache_(std::move(stitch_cache)) {
  QPGC_CHECK(part_ != nullptr && snaps_.size() == part_->num_shards);
  for (const auto& snap : snaps_) QPGC_CHECK(snap != nullptr);
}

StitchedPatternQuotient StitchCache::Stitch(
    const ShardPartition& part,
    const std::vector<std::shared_ptr<const ServingSnapshot>>& snaps) {
  StitchedPatternQuotient st = BuildStitchedPatternQuotient(part, snaps);
  MutexLock lock(mu_);
  ++stats_.builds;
  return st;
}

StitchCache::Stats StitchCache::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

std::vector<uint64_t> PinnedShards::versions() const {
  std::vector<uint64_t> versions;
  versions.reserve(snaps_.size());
  for (const auto& snap : snaps_) versions.push_back(snap->version());
  return versions;
}

// The stitched route graph, built once per version vector: the per-shard
// frozen boundary summaries fused into ONE block-granularity CSR the
// routed-reach loop can walk with a single stamp array.
//
// Nodes ("gids") come in two flavors. Real gids [0, G) are all shards'
// summary nodes laid end to end; a real gid is *visited* — some non-empty
// path ends in its block — so its exits may be emitted freely. Virtual
// gids [G, 2G) mirror them as *entered* states: an exit whose home-shard
// entry block is summary node m contributes one edge to virtual(m), whose
// only out-edges are m's intra-shard successors as real gids. The split is
// what keeps both soundness and the hub bound: entering a shard at block m
// must not emit m's exits (the new segment would be empty; an exit in m's
// own block is reachable non-emptily iff m is cyclic, i.e. m's self-loop
// makes real(m) a successor of virtual(m)), yet m's fan-out — thousands of
// entries collapse onto few hub blocks — is scanned at most TWICE per
// query (once per flavor), not once per discovering exit. Emission itself
// is precomputed into per-real-gid annotation rows:
//
//  * finals: the (home shard, home reach-quotient block) of every known
//    entry among the gid's exits, deduplicated — the case-3 final sweep
//    seeds from the rows whose home is shard_of(v). Pruned entries (their
//    block reaches no exit of their home shard) are still listed: they
//    cannot continue the boundary walk, but their block may well reach a
//    target *inside* the home shard.
//  * stale_exits: exits unknown to their home's frozen summary (their
//    first cross-shard in-edge landed after that shard's last publish) —
//    the live-sweep fallback queue feeds from these.
//
// The mask tables are the same three facts keyed by exit *index* (the
// order ResolveWave's exit mask uses) instead of by gid, plus the reverse
// case-2 lookup. Everything the hot loops touch is therefore either a
// sequential row scan or a stamp probe into one gid-sized array — the
// previous per-(shard, node) scheme spent most of the query re-deriving
// these facts through node-indexed random loads.
struct RouteTables {
  size_t num_real = 0;  // G; gids [G, 2G) are the virtual mirrors
  size_t num_gids = 0;  // 2G

  // All row bounds of one real gid in one struct — a pop costs one cache
  // line of metadata instead of probes into three offset arrays. A virtual
  // gid has no row of its own: its whole adjacency is the mirrored row's
  // intra run, [adj_begin, intra_end).
  struct Row {
    uint32_t adj_begin;    // intra edges first ...
    uint32_t intra_end;    // ... then cross edges to virtual gids
    uint32_t adj_end;
    uint32_t final_begin;  // (home shard, home block) per known entry
    uint32_t final_end;
    uint32_t stale_begin;  // exits unknown to their home's summary
    uint32_t stale_end;
  };
  std::vector<Row> rows;  // [real gid]
  std::vector<NodeId> adj;
  std::vector<uint16_t> final_home;
  std::vector<NodeId> final_block;
  std::vector<NodeId> stale_exits;

  // One packed row per boundary exit — the mask side reads one struct
  // where it used to stride three arrays.
  struct MaskRow {
    NodeId seed_gid;  // virtual gid of the exit's entry block
                      // (kInvalidNode: stale exit or pruned block)
    NodeId block;     // home quotient block; kInvalidNode marks stale
    uint16_t home;    // valid when block != kInvalidNode
  };
  struct Shard {
    std::vector<MaskRow> mask;          // parallel to boundary_exits()
    std::vector<NodeId> mask_emit_gid;  // reverse case-2 lookup: the real
                                        // gid of THIS shard emitting the
                                        // exit (kInvalidNode if its block
                                        // was pruned — then no walk emits
                                        // it)
  };
  std::vector<Shard> shards;
};

namespace {

// Per-thread scratch for the routed Reach search: reused containers keep
// the per-query allocation count at zero in steady state. The visit-mark
// families are epoch-stamped, so "clearing" them is one counter bump per
// query, not a sweep.
struct RouteScratch {
  std::vector<NodeId> reached;         // ResolveWave's reached exit indices
  std::vector<NodeId> stale_queue;     // entries needing live-sweep fallback
  std::vector<uint32_t> node_stamp;    // [node] = epoch; stale-exit dedup
  // Quotient blocks (pre-mapped) of visited entries owned by shard_of(v),
  // each distinct block once (block_stamp dedups at insert).
  std::vector<NodeId> final_sources;
  std::vector<uint32_t> block_stamp;   // [target-shard block] = epoch
  std::vector<NodeId> gid_stack;       // route-graph traversal frontier
  std::vector<uint32_t> gid_stamp;     // [gid] = epoch; the one visit mark
  std::vector<NodeId> case2_gids;      // gids emitting v (at most one per
                                       // shard v is an exit of)
  uint32_t epoch = 0;
};

thread_local RouteScratch t_route_scratch;

// Packed routing fact for one boundary node, used only while building the
// route tables: bit 63 = the node was a known entry of its home shard's
// frozen summary, bits 32..47 = the home shard, low 32 bits = the entry
// block's summary node (kNoSummaryNode when pruned). Zero = stale/unknown.
constexpr uint64_t kRouteKnown = uint64_t{1} << 63;

constexpr uint64_t PackRoute(uint32_t shard, NodeId summary_node) {
  return kRouteKnown | (uint64_t{shard} << 32) | uint64_t{summary_node};
}

}  // namespace

PinnedShards::~PinnedShards() = default;

const RouteTables& PinnedShards::route_tables() const {
  std::call_once(route_tables_once_, [this] {
    auto tables = std::make_unique<RouteTables>();
    const uint32_t num_shards = part_->num_shards;
    // Dense per-node routing facts, one pass over the frozen entry tables.
    // Entries of shard s are owned by s, so the fills are disjoint; nodes
    // left at zero (never an entry, or their home shard's summary predates
    // them) are the stale exits. Build-time scratch only.
    std::vector<uint64_t> routes(part_->num_nodes(), 0);
    for (uint32_t s = 0; s < num_shards; ++s) {
      const FrozenBoundarySummary* summary = snaps_[s]->boundary_summary();
      if (summary == nullptr || summary->entries_ptr() == nullptr) continue;
      const std::vector<NodeId>& entries = *summary->entries_ptr();
      const std::span<const NodeId> nodes = summary->entry_summary_nodes();
      for (size_t i = 0; i < entries.size(); ++i) {
        routes[entries[i]] = PackRoute(s, nodes[i]);
      }
    }

    // Gid layout: each shard's summary nodes laid end to end (real), then
    // the virtual mirrors.
    std::vector<NodeId> base(num_shards + 1, 0);
    for (uint32_t s = 0; s < num_shards; ++s) {
      const FrozenBoundarySummary* summary = snaps_[s]->boundary_summary();
      base[s + 1] =
          base[s] +
          static_cast<NodeId>(summary == nullptr ? 0 : summary->num_nodes());
    }
    const NodeId real_gids = base[num_shards];
    tables->num_real = real_gids;
    tables->num_gids = size_t{2} * real_gids;

    // Per-source-gid dedup stamps (a node's exits collapse onto few entry
    // blocks — one virtual edge and one finals row per distinct block).
    std::vector<uint32_t> gid_mark(real_gids, 0);
    std::vector<std::vector<uint32_t>> block_mark(num_shards);
    for (uint32_t s = 0; s < num_shards; ++s) {
      block_mark[s].assign(snaps_[s]->reach_gr().num_nodes(), 0);
    }
    uint32_t stamp = 0;

    tables->rows.resize(real_gids);
    tables->shards.resize(num_shards);
    for (uint32_t s = 0; s < num_shards; ++s) {
      const FrozenBoundarySummary* summary = snaps_[s]->boundary_summary();
      if (summary == nullptr) continue;
      for (NodeId n = 0; n < summary->num_nodes(); ++n) {
        RouteTables::Row& row = tables->rows[base[s] + n];
        ++stamp;
        row.adj_begin = static_cast<uint32_t>(tables->adj.size());
        row.final_begin = static_cast<uint32_t>(tables->final_home.size());
        row.stale_begin = static_cast<uint32_t>(tables->stale_exits.size());
        // Intra-shard summary edges first (real targets) — this prefix
        // doubles as the virtual mirror's adjacency.
        for (const NodeId next : summary->OutNeighbors(n)) {
          tables->adj.push_back(base[s] + next);
        }
        row.intra_end = static_cast<uint32_t>(tables->adj.size());
        for (const NodeId x : summary->ExitsAt(n)) {
          const uint64_t route = routes[x];
          if ((route & kRouteKnown) == 0) {
            tables->stale_exits.push_back(x);
            continue;
          }
          const uint32_t home = static_cast<uint32_t>(route >> 32) & 0xFFFF;
          const NodeId block = snaps_[home]->reach_map()[x];
          if (block_mark[home][block] != stamp) {
            block_mark[home][block] = stamp;
            tables->final_home.push_back(static_cast<uint16_t>(home));
            tables->final_block.push_back(block);
          }
          const NodeId m = static_cast<NodeId>(route);
          if (m == FrozenBoundarySummary::kNoSummaryNode) continue;
          // One cross edge per distinct entry block, to its virtual mirror.
          const NodeId g2 = base[home] + m;
          if (gid_mark[g2] != stamp) {
            gid_mark[g2] = stamp;
            tables->adj.push_back(real_gids + g2);
          }
        }
        row.adj_end = static_cast<uint32_t>(tables->adj.size());
        row.final_end = static_cast<uint32_t>(tables->final_home.size());
        row.stale_end = static_cast<uint32_t>(tables->stale_exits.size());
      }
    }

    // Mask tables: the same routing facts keyed by exit index, plus the
    // reverse case-2 lookup.
    for (uint32_t s = 0; s < num_shards; ++s) {
      RouteTables::Shard& t = tables->shards[s];
      const std::vector<NodeId>& exits = snaps_[s]->boundary_exits();
      t.mask.resize(exits.size());
      t.mask_emit_gid.assign(exits.size(), kInvalidNode);
      for (size_t i = 0; i < exits.size(); ++i) {
        RouteTables::MaskRow& row = t.mask[i];
        const uint64_t route = routes[exits[i]];
        if ((route & kRouteKnown) == 0) {
          row = {kInvalidNode, kInvalidNode, 0};
          continue;
        }
        const uint32_t home = static_cast<uint32_t>(route >> 32) & 0xFFFF;
        const NodeId m = static_cast<NodeId>(route);
        row.home = static_cast<uint16_t>(home);
        row.block = snaps_[home]->reach_map()[exits[i]];
        row.seed_gid = m == FrozenBoundarySummary::kNoSummaryNode
                           ? kInvalidNode
                           : real_gids + base[home] + m;
      }
      const FrozenBoundarySummary* summary = snaps_[s]->boundary_summary();
      if (summary == nullptr) continue;
      const std::span<const NodeId> grouped = summary->exit_nodes();
      for (NodeId n = 0; n < summary->num_nodes(); ++n) {
        const auto [pb, pe] = summary->ExitRangeAt(n);
        for (size_t pos = pb; pos < pe; ++pos) {
          const auto it =
              std::lower_bound(exits.begin(), exits.end(), grouped[pos]);
          QPGC_DCHECK(it != exits.end() && *it == grouped[pos]);
          t.mask_emit_gid[it - exits.begin()] = base[s] + n;
        }
      }
    }
    route_tables_ = std::move(tables);
  });
  return *route_tables_;
}

bool PinnedShards::Reach(NodeId u, NodeId v, PathMode mode) const {
  const ShardPartition& part = *part_;
  QPGC_CHECK(u < part.num_nodes() && v < part.num_nodes());
  // Single shard: no boundaries to cross, the local snapshot is the global
  // answer (also keeps the K = 1 router at snapshot speed).
  if (part.num_shards == 1) return snaps_[0]->Reach(u, v, mode);
  if (mode == PathMode::kReflexive && u == v) return true;
  // All remaining cases need a non-empty global path. Three cases cover one
  // (the soundness argument of docs/SHARDING.md): the path stays inside
  // shard_of(u); or it ends exactly at a boundary node; or its last
  // within-shard segment starts at a visited entry owned by shard_of(v).
  // Case 1 costs one sweep of shard_of(u)'s quotient, case 3 one sweep of
  // shard_of(v)'s; everything in between walks the frozen boundary
  // summaries, each summary node expanding at most once per query.
  const uint32_t num_shards = part.num_shards;
  const uint32_t target_shard = part.shard_of[v];
  const RouteTables& tables = route_tables();
  RouteScratch& scratch = t_route_scratch;
  if (scratch.node_stamp.size() < part.num_nodes()) {
    scratch.node_stamp.resize(part.num_nodes(), 0);
  }
  if (scratch.gid_stamp.size() < tables.num_gids) {
    scratch.gid_stamp.resize(tables.num_gids, 0);
  }
  const size_t target_blocks = snaps_[target_shard]->reach_gr().num_nodes();
  if (scratch.block_stamp.size() < target_blocks) {
    scratch.block_stamp.resize(target_blocks, 0);
  }
  if (scratch.epoch == std::numeric_limits<uint32_t>::max()) {
    std::fill(scratch.gid_stamp.begin(), scratch.gid_stamp.end(), 0);
    std::fill(scratch.node_stamp.begin(), scratch.node_stamp.end(), 0);
    std::fill(scratch.block_stamp.begin(), scratch.block_stamp.end(), 0);
    scratch.epoch = 0;
  }
  const uint32_t epoch = ++scratch.epoch;
  scratch.stale_queue.clear();
  scratch.final_sources.clear();
  scratch.gid_stack.clear();

  // Case-2 lookup, once per query: the gids whose exit annotation holds v
  // (at most one per shard v is an exit of). Popping one means some
  // selected block reaches v, i.e. a global path ends exactly at boundary
  // node v — so the per-exit `x == v` comparison leaves the hot loops
  // entirely, replaced by at most num_shards compares per pop.
  scratch.case2_gids.clear();
  for (uint32_t s = 0; s < num_shards; ++s) {
    const std::vector<NodeId>& exits = snaps_[s]->boundary_exits();
    const auto it = std::lower_bound(exits.begin(), exits.end(), v);
    if (it != exits.end() && *it == v) {
      const NodeId g = tables.shards[s].mask_emit_gid[it - exits.begin()];
      if (g != kInvalidNode) scratch.case2_gids.push_back(g);
    }
  }

  const auto push_gid = [&scratch, epoch](NodeId g) {
    if (scratch.gid_stamp[g] != epoch) {
      scratch.gid_stamp[g] = epoch;
      scratch.gid_stack.push_back(g);
    }
  };
  const auto push_final = [&scratch, epoch](NodeId block) {
    if (scratch.block_stamp[block] != epoch) {
      scratch.block_stamp[block] = epoch;
      scratch.final_sources.push_back(block);
    }
  };

  // Turns shard s's ResolveWave reached-exit indices (into its
  // boundary_exits()) into route-graph steps off the mask tables: case-3
  // bookkeeping when the target shard owns the exit, entry-block seed
  // pushes, or the stale fallback queue. No exit here can equal v: v being
  // an exit of the swept shard means v's block was stamped, so ResolveWave
  // itself returned true.
  const auto enqueue_reached_exits = [&scratch, &tables, target_shard,
                                      epoch, &push_gid, &push_final](
                                         uint32_t s,
                                         const ServingSnapshot& snap) {
    const std::vector<NodeId>& exits = snap.boundary_exits();
    const RouteTables::Shard& t = tables.shards[s];
    for (const NodeId i : scratch.reached) {
      const RouteTables::MaskRow& row = t.mask[i];
      if (row.block == kInvalidNode) {
        const NodeId x = exits[i];
        if (scratch.node_stamp[x] != epoch) {
          scratch.node_stamp[x] = epoch;
          scratch.stale_queue.push_back(x);
        }
        continue;
      }
      if (row.home == target_shard) push_final(row.block);
      if (row.seed_gid != kInvalidNode) push_gid(row.seed_gid);
    }
  };

  // Case 1 + seeding: one sweep over shard_of(u)'s full quotient resolves
  // v-within-the-home-shard and every boundary exit u reaches.
  scratch.node_stamp[u] = epoch;  // u itself never needs the stale fallback
  {
    const uint32_t s = part.shard_of[u];
    const ServingSnapshot& snap = *snaps_[s];
    const NodeId sources[1] = {u};
    if (snap.ResolveWave(sources, v, scratch.reached)) return true;
    enqueue_reached_exits(s, snap);
  }

  size_t head = 0;
  while (true) {
    // Drain the route-graph traversal first: a visited gid either answers
    // case 2 outright (the precomputed case2_gids) or streams its
    // annotation rows — case-3 blocks, stale exits — and its dedup'd
    // successor edges.
    while (!scratch.gid_stack.empty()) {
      const NodeId g = scratch.gid_stack.back();
      scratch.gid_stack.pop_back();
      if (g >= tables.num_real) {
        // Virtual mirror: an "entered at this block" state. Its only moves
        // are the block's intra-shard successors (the real row's intra
        // prefix); annotations belong to the real flavor.
        const RouteTables::Row& row = tables.rows[g - tables.num_real];
        for (uint32_t j = row.adj_begin; j < row.intra_end; ++j) {
          push_gid(tables.adj[j]);
        }
        continue;
      }
      const RouteTables::Row& row = tables.rows[g];
      for (const NodeId tg : scratch.case2_gids) {
        if (g == tg) return true;
      }
      for (uint32_t j = row.final_begin; j < row.final_end; ++j) {
        if (tables.final_home[j] == target_shard) {
          push_final(tables.final_block[j]);
        }
      }
      for (uint32_t j = row.stale_begin; j < row.stale_end; ++j) {
        const NodeId x = tables.stale_exits[j];
        if (scratch.node_stamp[x] != epoch) {
          scratch.node_stamp[x] = epoch;
          scratch.stale_queue.push_back(x);
        }
      }
      for (uint32_t j = row.adj_begin; j < row.adj_end; ++j) {
        push_gid(tables.adj[j]);
      }
    }
    if (head >= scratch.stale_queue.size()) break;
    // Stale entry: live sweep of its home shard's full quotient. The sweep
    // checks v itself, so nothing is lost by skipping the summary — in
    // particular a stale entry owned by the target shard needs no case-3
    // bookkeeping, because this sweep IS its final-sweep contribution.
    const NodeId entry = scratch.stale_queue[head++];
    const uint32_t s = part.shard_of[entry];
    const ServingSnapshot& snap = *snaps_[s];
    const NodeId sources[1] = {entry};
    if (snap.ResolveWave(sources, v, scratch.reached)) return true;
    enqueue_reached_exits(s, snap);
  }

  // Case 3: one final sweep inside shard_of(v) from every visited entry it
  // owns (non-empty semantics — an entry equal to v was already caught as
  // case 2 before it could be visited), seeded straight from the
  // pre-mapped entry blocks. No exit mask: only the target verdict matters
  // here.
  if (scratch.final_sources.empty()) return false;
  return snaps_[target_shard]->ResolveTargetBlocks(scratch.final_sources, v);
}

MatchResult PinnedShards::Match(const PatternQuery& q) const {
  // Single shard: the local quotient is the global quotient.
  if (part_->num_shards == 1) return snaps_[0]->Match(q);
  // Match on the stitched quotient, then the shared expansion P over the
  // stitched node map (ascending answer sets, fixpoint at stitched-block
  // granularity — mirroring the single-manager behavior).
  const StitchedPatternQuotient& st = stitched();
  return ExpandMatchWith(
      st.gr.num_nodes(), st.node_map,
      [&](NodeId block) {
        const auto& [s, c] = st.origin[block];
        return snaps_[s]->pattern_block_members(c);
      },
      qpgc::Match(st.gr, q));
}

bool PinnedShards::BooleanMatch(const PatternQuery& q) const {
  if (part_->num_shards == 1) return snaps_[0]->BooleanMatch(q);
  return qpgc::BooleanMatch(stitched().gr, q);
}

const StitchedPatternQuotient& PinnedShards::stitched() const {
  std::call_once(stitched_once_, [this] {
    stitched_ = stitch_cache_ != nullptr
                    ? stitch_cache_->Stitch(*part_, snaps_)
                    : BuildStitchedPatternQuotient(*part_, snaps_);
  });
  return stitched_;
}

std::shared_ptr<const PinnedShards> ShardedQueryService::Pin() const {
  std::shared_ptr<const PinnedShards> replaced;  // freed after the unlock
  MutexLock lock(pins_mu_);
  // The pin holds its snapshots alive, so an equal address is the same
  // snapshot. Building under the lock keeps one pin per version vector;
  // the stitched quotient and the route tables inside it stay lazy.
  if (pins_ != nullptr) {
    uint32_t s = 0;
    while (s < pins_->num_shards() &&
           manager_.Acquire(s).get() == &pins_->shard(s)) {
      ++s;
    }
    if (s == pins_->num_shards()) return pins_;
  }
  replaced = std::move(pins_);
  pins_ = std::make_shared<const PinnedShards>(
      manager_.partition_ptr(), manager_.AcquireAll(), stitch_cache_);
  return pins_;
}

}  // namespace qpgc
