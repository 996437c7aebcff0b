// Copyright 2026 The QPGC Authors.

#include "serve/snapshot.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "graph/shard_view.h"
#include "util/memory.h"

namespace qpgc {

void FrozenReachSide::Fill(const ReachCompression& rc) {
  gr = rc.gr;
  node_map = rc.node_map;
  representation = SideRepresentation::kQuotient;
}

void FrozenReachSide::FillIdentity(std::shared_ptr<const CsrGraph> g) {
  node_map.resize(g->num_nodes());
  std::iota(node_map.begin(), node_map.end(), NodeId{0});
  gr = std::move(g);
  representation = SideRepresentation::kIdentity;
}

size_t FrozenReachSide::MemoryBytes() const {
  return gr->MemoryBytes() + VectorBytes(node_map);
}

namespace {

// Writer-side scratch for the ghost-dropping block permutation (one freeze
// runs at a time per writer thread; distinct managers freeze on distinct
// threads).
thread_local std::vector<NodeId> t_block_perm;

}  // namespace

void FrozenPatternSide::Fill(const PatternCompression& pc) {
  // Compact permutation: owned blocks keep their relative order and get
  // dense ids; ghost singleton blocks (synthetic labels) are dropped.
  const size_t num_blocks = pc.members.size();
  std::vector<NodeId>& perm = t_block_perm;
  perm.assign(num_blocks, kInvalidNode);
  NodeId owned_blocks = 0;
  for (size_t b = 0; b < num_blocks; ++b) {
    const Label label = pc.gr->label(static_cast<NodeId>(b));
    if (!IsGhostLabel(label)) {
      perm[b] = owned_blocks++;
    } else {
      // A block may only be dropped when it really is a ghost singleton
      // (label == GhostLabel(its sole member)). A *user* label that strays
      // into the ghost range would otherwise be dropped silently — fail
      // loudly instead: serving requires real labels below kGhostLabelBase
      // (graph/shard_view.h's LabelsShardable is the boundary check).
      QPGC_CHECK(pc.members[b].size() == 1 &&
                 label == GhostLabel(pc.members[b][0]));
    }
  }

  if (owned_blocks == num_blocks) {
    // No ghost blocks (every unsharded manager, and a K = 1 sharded one):
    // the permutation is the identity, so the maintained quotient is shared
    // as is, and only the map and member index are copied.
    gr = pc.gr;
    node_map = pc.node_map;
    member_offsets.assign(num_blocks + 1, 0);
    for (size_t c = 0; c < num_blocks; ++c) {
      member_offsets[c + 1] =
          member_offsets[c] + static_cast<uint32_t>(pc.members[c].size());
    }
    member_flat.resize(member_offsets[num_blocks]);
    for (size_t c = 0; c < num_blocks; ++c) {
      std::copy(pc.members[c].begin(), pc.members[c].end(),
                member_flat.begin() +
                    static_cast<ptrdiff_t>(member_offsets[c]));
    }
    cross_edges.clear();
    representation = SideRepresentation::kQuotient;
    return;
  }

  // One traversal freezes the owned-block quotient and collects the
  // ghost-directed edges; the dropped targets (ghost blocks) are then
  // rewritten to the ghost's node id — its block's sole member.
  cross_edges.clear();
  auto frozen = std::make_shared<CsrGraph>();
  frozen->RefreezeMapped(*pc.gr, perm, owned_blocks, &cross_edges);
  gr = std::move(frozen);
  representation = SideRepresentation::kQuotient;
  for (auto& [block, target] : cross_edges) {
    QPGC_DCHECK(pc.members[target].size() == 1);
    target = pc.members[target][0];
  }

  // node_map through the permutation: ghosts -> kInvalidNode.
  node_map.resize(pc.node_map.size());
  for (size_t v = 0; v < pc.node_map.size(); ++v) {
    node_map[v] = perm[pc.node_map[v]];
  }

  // Flatten the member index of the owned blocks: offsets by prefix sum,
  // then one grouped pass — two bulk arrays regardless of the block count.
  member_offsets.assign(owned_blocks + 1, 0);
  for (size_t b = 0; b < num_blocks; ++b) {
    if (perm[b] != kInvalidNode) {
      member_offsets[perm[b] + 1] = static_cast<uint32_t>(pc.members[b].size());
    }
  }
  for (size_t c = 0; c < owned_blocks; ++c) {
    member_offsets[c + 1] += member_offsets[c];
  }
  member_flat.resize(member_offsets[owned_blocks]);
  for (size_t b = 0; b < num_blocks; ++b) {
    if (perm[b] == kInvalidNode) continue;
    std::copy(pc.members[b].begin(), pc.members[b].end(),
              member_flat.begin() +
                  static_cast<ptrdiff_t>(member_offsets[perm[b]]));
  }
}

void FrozenPatternSide::FillIdentity(std::shared_ptr<const CsrGraph> g) {
  QPGC_DCHECK(std::ranges::none_of(g->labels(), IsGhostLabel));
  const size_t n = g->num_nodes();
  node_map.resize(n);
  std::iota(node_map.begin(), node_map.end(), NodeId{0});
  member_offsets.resize(n + 1);
  std::iota(member_offsets.begin(), member_offsets.end(), uint32_t{0});
  member_flat = node_map;
  cross_edges.clear();
  gr = std::move(g);
  representation = SideRepresentation::kIdentity;
}

void FrozenPatternSide::FillIdentity(const Graph& g) {
  // Every node is its own block, so the compact ids are Fill's permutation
  // with blocks read as nodes: owned nodes keep their relative order and
  // ghosts (synthetic labels) are dropped, and a dropped edge's target is
  // already the ghost's node id.
  const size_t n = g.num_nodes();
  node_map.assign(n, kInvalidNode);
  member_flat.clear();
  for (NodeId v = 0; v < n; ++v) {
    const Label label = g.label(v);
    if (IsGhostLabel(label)) {
      QPGC_CHECK(label == GhostLabel(v));  // as in Fill
      continue;
    }
    node_map[v] = static_cast<NodeId>(member_flat.size());
    member_flat.push_back(v);
  }
  member_offsets.resize(member_flat.size() + 1);
  std::iota(member_offsets.begin(), member_offsets.end(), uint32_t{0});
  cross_edges.clear();
  auto frozen = std::make_shared<CsrGraph>();
  frozen->RefreezeMapped(g, node_map, member_flat.size(), &cross_edges);
  gr = std::move(frozen);
  representation = SideRepresentation::kIdentity;
}

size_t FrozenPatternSide::MemoryBytes() const {
  return gr->MemoryBytes() + VectorBytes(node_map) +
         VectorBytes(member_offsets) + VectorBytes(member_flat) +
         VectorBytes(cross_edges);
}

ServingSnapshot::ServingSnapshot(
    uint64_t version, std::shared_ptr<const FrozenReachSide> reach,
    std::shared_ptr<const FrozenPatternSide> pattern,
    std::shared_ptr<const std::vector<NodeId>> boundary_exits,
    std::shared_ptr<const FrozenBoundarySummary> boundary_summary)
    : version_(version),
      reach_(std::move(reach)),
      pattern_(std::move(pattern)),
      boundary_exits_(std::move(boundary_exits)),
      boundary_summary_(std::move(boundary_summary)) {
  QPGC_CHECK(reach_ != nullptr && pattern_ != nullptr);
  QPGC_CHECK(reach_->gr != nullptr && pattern_->gr != nullptr);
  if (boundary_exits_ != nullptr) {
    // Exit indexes grouped by block: a counting sort (exits are few, blocks
    // many).
    const std::vector<NodeId>& exits = *boundary_exits_;
    const std::vector<NodeId>& map = reach_->node_map;
    block_exit_offsets_.assign(reach_->gr->num_nodes() + 1, 0);
    for (const NodeId x : exits) ++block_exit_offsets_[map[x] + 1];
    for (size_t b = 1; b < block_exit_offsets_.size(); ++b) {
      block_exit_offsets_[b] += block_exit_offsets_[b - 1];
    }
    block_exit_index_.resize(exits.size());
    std::vector<uint32_t> cursor(block_exit_offsets_.begin(),
                                 block_exit_offsets_.end() - 1);
    for (size_t i = 0; i < exits.size(); ++i) {
      block_exit_index_[cursor[map[exits[i]]]++] = static_cast<NodeId>(i);
    }
  }
}

const std::vector<NodeId>& ServingSnapshot::boundary_exits() const {
  static const std::vector<NodeId> kEmpty;
  return boundary_exits_ == nullptr ? kEmpty : *boundary_exits_;
}

bool ServingSnapshot::Reach(NodeId u, NodeId v, PathMode mode) const {
  const std::vector<NodeId>& map = reach_->node_map;
  QPGC_CHECK(u < map.size() && v < map.size());
  if (mode == PathMode::kReflexive && u == v) return true;
  // All remaining cases reduce to non-empty reachability on Gr: distinct
  // classes are connected iff any pair of their members is; equal classes
  // answer the diagonal through their self-loop (reach/queries.cc keeps the
  // same reduction for the unfrozen artifact).
  return BfsReaches(*reach_->gr, map[u], map[v], PathMode::kNonEmpty);
}

namespace {

// Per-thread BFS scratch for MultiSourceSweep: epoch-stamped visited and
// source-block arrays avoid both per-call allocation and per-call clearing.
struct ReachScratch {
  std::vector<uint32_t> stamp;
  std::vector<uint32_t> src_stamp;
  std::vector<NodeId> queue;
  uint32_t epoch = 0;
};

thread_local ReachScratch t_reach_scratch;

// The multi-source non-empty-path BFS over a frozen quotient shared by
// ResolveWave and ResolveTargetBlocks: stamps every quotient node reachable
// from the mapped sources by a path of length >= 1 with a fresh epoch
// (a source class itself counts as reached only when some edge — its
// self-loop for a cyclic class, or a longer cycle — comes back) and
// returns that epoch for the caller's probes.
// The source classes may be given either as original node ids (mapped
// through `map`) or directly as quotient block ids (`map` == nullptr — the
// router's route tables precompute the blocks).
uint32_t MultiSourceSweep(const CsrGraph& gr, const std::vector<NodeId>* map,
                          std::span<const NodeId> sources) {
  ReachScratch& scratch = t_reach_scratch;
  if (scratch.stamp.size() < gr.num_nodes() || scratch.epoch == UINT32_MAX) {
    scratch.stamp.assign(gr.num_nodes(), 0);
    scratch.src_stamp.assign(gr.num_nodes(), 0);
    scratch.epoch = 0;
  }
  const uint32_t epoch = ++scratch.epoch;
  std::vector<uint32_t>& stamp = scratch.stamp;
  std::vector<NodeId>& queue = scratch.queue;
  queue.clear();
  for (const NodeId s : sources) {
    // Many sources share a class (boundary-entry waves collapse onto hub
    // blocks); scanning a hub's fan-out once per *source* instead of once
    // per *class* used to dominate wide waves. The stamps only suppress
    // re-scans, not reachability: the class's out-edges are expanded the
    // first time it is seen.
    const NodeId b = map == nullptr ? s : (*map)[s];
    QPGC_DCHECK(b < gr.num_nodes());
    if (scratch.src_stamp[b] == epoch) continue;
    scratch.src_stamp[b] = epoch;
    for (const NodeId w : gr.OutNeighbors(b)) {
      if (stamp[w] != epoch) {
        stamp[w] = epoch;
        queue.push_back(w);
      }
    }
  }
  for (size_t head = 0; head < queue.size(); ++head) {
    for (const NodeId w : gr.OutNeighbors(queue[head])) {
      if (stamp[w] != epoch) {
        stamp[w] = epoch;
        queue.push_back(w);
      }
    }
  }
  return epoch;
}

}  // namespace

bool ServingSnapshot::ResolveWave(std::span<const NodeId> sources,
                                  NodeId target,
                                  std::vector<NodeId>& reached_exits) const {
  reached_exits.clear();
  if (sources.empty()) return false;
  const std::vector<NodeId>& map = reach_->node_map;
  const uint32_t epoch = MultiSourceSweep(*reach_->gr, &map, sources);
  // The sweep's queue is exactly the set of stamped blocks, each once:
  // emit their exit-index runs instead of probing the stamp per exit.
  if (!block_exit_offsets_.empty()) {
    for (const NodeId b : t_reach_scratch.queue) {
      for (uint32_t j = block_exit_offsets_[b]; j < block_exit_offsets_[b + 1];
           ++j) {
        reached_exits.push_back(block_exit_index_[j]);
      }
    }
  }
  QPGC_DCHECK(target < map.size());
  return t_reach_scratch.stamp[map[target]] == epoch;
}

bool ServingSnapshot::ResolveTargetBlocks(std::span<const NodeId> source_blocks,
                                          NodeId target) const {
  if (source_blocks.empty()) return false;
  const std::vector<NodeId>& map = reach_->node_map;
  const uint32_t epoch =
      MultiSourceSweep(*reach_->gr, /*map=*/nullptr, source_blocks);
  QPGC_DCHECK(target < map.size());
  return t_reach_scratch.stamp[map[target]] == epoch;
}

MatchResult ServingSnapshot::Match(const PatternQuery& q) const {
  // F = identity, Match on the frozen quotient, then the shared expansion P
  // over the flattened member index (ghost nodes map to kInvalidNode and
  // are skipped).
  return ExpandMatchWith(
      pattern_->member_offsets.size() - 1, pattern_->node_map,
      [this](NodeId block) { return pattern_->block_members(block); },
      qpgc::Match(*pattern_->gr, q));
}

bool ServingSnapshot::BooleanMatch(const PatternQuery& q) const {
  return qpgc::BooleanMatch(*pattern_->gr, q);
}

size_t ServingSnapshot::MemoryBytes() const {
  // Two identity sides share one frozen G: count it once.
  const size_t shared =
      reach_->gr == pattern_->gr ? reach_->gr->MemoryBytes() : 0;
  return reach_->MemoryBytes() + pattern_->MemoryBytes() - shared +
         VectorBytes(boundary_exits()) + VectorBytes(block_exit_offsets_) +
         VectorBytes(block_exit_index_) +
         (boundary_summary_ == nullptr ? 0 : boundary_summary_->MemoryBytes());
}

}  // namespace qpgc
