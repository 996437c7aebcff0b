// Copyright 2026 The QPGC Authors.

#include "bisim/engine.h"

#include "bisim/max_bisimulation.h"

namespace qpgc {

Partition MaxBisimulation(const Graph& g, BisimEngine engine) {
  return MaxBisimulation<Graph>(g, engine);
}

}  // namespace qpgc
