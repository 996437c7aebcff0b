// Copyright 2026 The QPGC Authors.

#include "reach/compress_r.h"

#include "graph/csr.h"
#include "util/memory.h"

namespace qpgc {

ReachCompression CompressR(const Graph& g) {
  // Freeze once, sweep flat: the whole batch pipeline (SCC, TR sweep,
  // quotient construction) is read-only over adjacency.
  const CsrGraph frozen(g);
  return CompressR<CsrGraph>(frozen);
}

size_t ReachCompression::MemoryBytes() const {
  return gr->MemoryBytes() + quotient.MemoryBytes() + VectorBytes(node_map) +
         NestedVectorBytes(members) + VectorBytes(cyclic) + VectorBytes(ranks);
}

}  // namespace qpgc
