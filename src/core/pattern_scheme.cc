// Copyright 2026 The QPGC Authors.

#include "core/pattern_scheme.h"

#include <algorithm>
#include <utility>

#include "graph/csr.h"
#include "util/bitset.h"
#include "util/memory.h"

namespace qpgc {

PatternCompression CompressBFromPartition(const Graph& g, const Partition& p) {
  return CompressBFromPartition<Graph>(g, p);
}

PatternCompression CompressB(const Graph& g) {
  // Freeze once, sweep flat: partition refinement and quotient construction
  // are read-only over adjacency.
  const CsrGraph frozen(g);
  return CompressB<CsrGraph>(frozen);
}

MatchResult ExpandMatch(const PatternCompression& pc, MatchResult on_gr) {
  return ExpandMatch(pc.members, pc.node_map, std::move(on_gr));
}

MatchResult ExpandMatch(const std::vector<std::vector<NodeId>>& members,
                        const std::vector<NodeId>& node_map,
                        MatchResult on_gr) {
  return ExpandMatchWith(
      members.size(), node_map,
      [&](NodeId block) -> const std::vector<NodeId>& {
        return members[block];
      },
      std::move(on_gr));
}

MatchResult MatchOnCompressed(const PatternCompression& pc,
                              const PatternQuery& q) {
  return ExpandMatch(pc, Match(*pc.gr, q));
}

bool BooleanMatchOnCompressed(const PatternCompression& pc,
                              const PatternQuery& q) {
  return BooleanMatch(*pc.gr, q);
}

size_t PatternCompression::MemoryBytes() const {
  return gr->MemoryBytes() + VectorBytes(node_map) +
         NestedVectorBytes(members);
}

}  // namespace qpgc
