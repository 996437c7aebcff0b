// Copyright 2026 The QPGC Authors.

#include "core/reach_scheme.h"

namespace qpgc {

ReachabilityPreservingCompression::ReachabilityPreservingCompression(
    const Graph& g)
    : rc_(CompressR(g)) {}

}  // namespace qpgc
