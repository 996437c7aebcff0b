// Copyright 2026 The QPGC Authors.

#include "inc/inc_bsim.h"

namespace qpgc {

IncPcmStats IncBsim(Graph& g, const UpdateBatch& batch,
                    PatternCompression& pc) {
  IncPcmStats total;
  for (const EdgeUpdate& up : batch.updates) {
    UpdateBatch single;
    single.updates.push_back(up);
    const UpdateBatch effective = ApplyBatch(g, single);
    const IncPcmStats s = IncPCM(g, effective, pc);
    total.kept_updates += s.kept_updates;
    total.reduced_updates += s.reduced_updates;
    total.dissolved_blocks += s.dissolved_blocks;
    total.dissolved_nodes += s.dissolved_nodes;
    total.hybrid_vertices += s.hybrid_vertices;
    total.hybrid_edges += s.hybrid_edges;
  }
  return total;
}

}  // namespace qpgc
