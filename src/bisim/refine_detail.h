// Copyright 2026 The QPGC Authors.
//
// Internal building blocks of the bisimulation code, hoisted out of the
// per-engine translation units when the engines became GraphView templates:
//
//  * Sig / SigHash — the (block, sorted distinct successor blocks) signature
//    key of the signature oracle's RefineOnce;
//  * Segments / MakeSegments — the contiguous-block permutation that lets
//    Paige–Tarjan and the bounded k-bisimulation split a block in O(moved).
//
// Not part of the public API.

#ifndef QPGC_BISIM_REFINE_DETAIL_H_
#define QPGC_BISIM_REFINE_DETAIL_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "util/common.h"
#include "util/hash.h"

namespace qpgc::bisim_detail {

// Signature of a node under a partition: (current block, sorted distinct
// successor blocks).
struct Sig {
  NodeId block;
  std::vector<NodeId> succ_blocks;
  bool operator==(const Sig& o) const {
    return block == o.block && succ_blocks == o.succ_blocks;
  }
};

struct SigHash {
  size_t operator()(const Sig& s) const {
    uint64_t h = Mix64(s.block);
    for (NodeId b : s.succ_blocks) h = HashCombine(h, b);
    return static_cast<size_t>(h);
  }
};

// Refinement state shared by Paige–Tarjan and the bounded k-bisimulation:
// `nodes` is a permutation of V in which every block occupies a contiguous
// segment, so a block splits in O(moved) by swapping marked members to the
// front of its segment and cutting the prefix off as a new block.
struct Segments {
  std::vector<NodeId> nodes;   // permutation of V, blocks contiguous
  std::vector<uint32_t> pos;   // pos[v] = index of v in nodes
  std::vector<NodeId> blk;     // blk[v] = block of v

  struct Block {
    uint32_t begin = 0;   // [begin, end) in nodes
    uint32_t end = 0;
    uint32_t marked = 0;  // marked members occupy [begin, begin + marked)
    NodeId x = 0;         // owning coarse block (Paige–Tarjan only)
    uint32_t xpos = 0;    // index within the coarse block's member list
  };
  std::vector<Block> blocks;

  uint32_t size(NodeId b) const { return blocks[b].end - blocks[b].begin; }

  void Mark(NodeId v) {
    Block& b = blocks[blk[v]];
    const uint32_t p = pos[v];
    const uint32_t q = b.begin + b.marked;
    std::swap(nodes[p], nodes[q]);
    pos[nodes[p]] = p;
    pos[nodes[q]] = q;
    ++b.marked;
  }

  // Cuts the marked prefix of `b` off as a new block and returns its id;
  // returns `b` itself (no cut) when every member is marked. Clears the mark
  // either way.
  NodeId SplitMarked(NodeId b) {
    const uint32_t marked = blocks[b].marked;
    blocks[b].marked = 0;
    if (marked == 0 || marked == size(b)) return b;
    const NodeId nb = static_cast<NodeId>(blocks.size());
    blocks.push_back(Block{blocks[b].begin, blocks[b].begin + marked, 0,
                           blocks[b].x, 0});
    blocks[b].begin += marked;
    for (uint32_t i = blocks[nb].begin; i < blocks[nb].end; ++i) {
      blk[nodes[i]] = nb;
    }
    return nb;
  }
};

// Builds contiguous segments from a dense block assignment (counting sort).
inline Segments MakeSegments(const std::vector<NodeId>& block_of,
                             size_t num_blocks) {
  const size_t n = block_of.size();
  Segments s;
  s.nodes.resize(n);
  s.pos.resize(n);
  s.blk = block_of;
  s.blocks.resize(num_blocks);
  std::vector<uint32_t> count(num_blocks, 0);
  for (NodeId v = 0; v < n; ++v) ++count[block_of[v]];
  uint32_t at = 0;
  for (size_t b = 0; b < num_blocks; ++b) {
    s.blocks[b].begin = at;
    at += count[b];
    s.blocks[b].end = at;
    count[b] = s.blocks[b].begin;  // reuse as fill cursor
  }
  for (NodeId v = 0; v < n; ++v) {
    const uint32_t p = count[block_of[v]]++;
    s.nodes[p] = v;
    s.pos[v] = p;
  }
  return s;
}

}  // namespace qpgc::bisim_detail

#endif  // QPGC_BISIM_REFINE_DETAIL_H_
