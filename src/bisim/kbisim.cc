// Copyright 2026 The QPGC Authors.

#include "bisim/kbisim.h"

#include "graph/csr.h"

namespace qpgc {

Partition KBisimulationBackward(const Graph& g, size_t k) {
  return KBisimulationBackward<Graph>(g, k);
}

Graph QuotientGraph(const Graph& g, const Partition& p) {
  return QuotientGraph<Graph>(g, p);
}

Graph AkIndexGraph(const Graph& g, size_t k) {
  const CsrGraph frozen(g);
  return QuotientGraph(frozen, KBisimulationBackward(frozen, k));
}

}  // namespace qpgc
