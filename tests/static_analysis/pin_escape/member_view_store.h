// Copyright 2026 The QPGC Authors.
//
// Planted [member-view-store] violations: snapshot-derived views stored in
// members of a non-view class. Both outlive every full expression, so no
// pin scope can cover them — by the next publish-and-retire cycle they
// point into freed storage. tools/qpgc_pin_escape.py MUST
// flag both; ctest runs it over this file WILL_FAIL. The fix is to hold
// the owning shared_ptr (clean shape: SnapshotHolder in the analyzer's
// unit tests) or to annotate the class QPGC_GSL_POINTER if it is a view.

#include <span>

#include "serve/snapshot.h"

namespace qpgc {

class StaleResultCache {
 public:
  void Remember(const ServingSnapshot& snap) {
    members_ = snap.pattern_block_members(0);
    side_ = &snap;
  }

 private:
  std::span<const NodeId> members_;
  const ServingSnapshot* side_ = nullptr;
};

}  // namespace qpgc
