// Copyright 2026 The QPGC Authors.

#include "serve/query_service.h"

namespace qpgc {

bool QueryService::Reach(NodeId u, NodeId v, PathMode mode) const {
  return Pin()->Reach(u, v, mode);
}

MatchResult QueryService::Match(const PatternQuery& q) const {
  return Pin()->Match(q);
}

bool QueryService::BooleanMatch(const PatternQuery& q) const {
  return Pin()->BooleanMatch(q);
}

}  // namespace qpgc
