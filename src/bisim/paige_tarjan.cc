// Copyright 2026 The QPGC Authors.

#include "bisim/paige_tarjan.h"

namespace qpgc {

Partition PaigeTarjanBisimulation(const Graph& g) {
  return PaigeTarjanBisimulation<Graph>(g);
}

Partition KBisimulation(const Graph& g, size_t k) {
  return KBisimulation<Graph>(g, k);
}

}  // namespace qpgc
