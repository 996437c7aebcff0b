// Copyright 2026 The QPGC Authors.
//
// Engine selection for the maximum-bisimulation computation. Three engines
// produce the identical coarsest stable partition (differentially tested):
//
//   kPaigeTarjan  splitter-based partition refinement with count records,
//                 O(|E| log |V|); the default. Near-linear on the deep
//                 chains / layered DAGs that degrade the fixpoint engines.
//   kRanked       rank-stratified signature refinement (Dovier-Piazza-
//                 Policriti style); fast when strata are shallow.
//   kSignature    global signature-refinement rounds to fixpoint,
//                 Θ(depth · |E|) worst case; kept as the simple oracle for
//                 differential testing.
//
// The enum threads through CompressB (core/pattern_scheme.h), the k-bisim
// variants (bisim/kbisim.h), and the incremental re-converge path (inc/).
// This header stays lightweight (enum + Graph overload) so enum-only
// consumers don't pull in the engine bodies; the GraphView template
// dispatch lives in bisim/max_bisimulation.h.

#ifndef QPGC_BISIM_ENGINE_H_
#define QPGC_BISIM_ENGINE_H_

#include "bisim/partition.h"
#include "graph/graph.h"

namespace qpgc {

/// Which algorithm computes the maximum bisimulation.
enum class BisimEngine {
  kPaigeTarjan,
  kRanked,
  kSignature,
};

/// Computes the maximum bisimulation of g with the chosen engine. The
/// GraphView template overload is in bisim/max_bisimulation.h.
Partition MaxBisimulation(const Graph& g,
                          BisimEngine engine = BisimEngine::kPaigeTarjan);

}  // namespace qpgc

#endif  // QPGC_BISIM_ENGINE_H_
