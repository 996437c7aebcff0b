// Copyright 2026 The QPGC Authors.
//
// IncBsim: the single-update incremental bisimulation baseline of the
// paper's Fig. 12(g) (after Saha, FSTTCS 2007). It maintains the quotient
// by invoking the incremental machinery once per update instead of once per
// batch — no cross-update redundancy elimination (minDelta) and one
// affected-cone recomputation per edge, which is exactly why incPCM's batch
// processing outperforms it.

#ifndef QPGC_INC_INC_BSIM_H_
#define QPGC_INC_INC_BSIM_H_

#include "core/pattern_scheme.h"
#include "inc/inc_pcm.h"
#include "graph/update.h"

namespace qpgc {

/// Applies `batch` to g one update at a time, maintaining pc after each
/// single update. g must be the *pre-update* graph; on return it equals the
/// post-update graph. Returns aggregate statistics.
IncPcmStats IncBsim(Graph& g, const UpdateBatch& batch, PatternCompression& pc);

}  // namespace qpgc

#endif  // QPGC_INC_INC_BSIM_H_
