// Copyright 2026 The QPGC Authors.
//
// Dynamic counterpart of the static lifetime gates: reproduces, at
// runtime, the exact bug class the pin-scope rule (docs/LIFETIMES.md,
// tools/qpgc_pin_escape.py) exists to prevent. A span obtained from a
// pinned snapshot is read after the pin is dropped and one publish has
// retired that snapshot — while the manager is still alive. Retirement
// frees the snapshot and its unshared sides, so the read is a guaranteed
// heap-use-after-free.
//
// Built ONLY under QPGC_SANITIZE=address (tests/static_analysis/
// CMakeLists.txt) and registered WILL_FAIL: AddressSanitizer must abort
// the process with a non-zero exit. If this test ever "passes" (exits 0),
// ASan stopped seeing the dangle — e.g. retired sides stopped being freed
// at retirement, or moved to an allocator ASan cannot poison — and the
// static rules have lost their runtime witness.
//
// NOTE: the escape below is written with named locals precisely so the
// textual gates (qpgc_lint [pin-ref], qpgc_pin_escape [pin-escape]) do not
// flag this file: the span outlives the *scope* of its named pin, which is
// the one shape only a runtime check can witness.

#include <cstdio>

#include "gen/uniform.h"
#include "serve/snapshot_manager.h"

namespace qpgc {
namespace {

int Run() {
  SnapshotManager mgr(GenerateUniform(/*num_nodes=*/60, /*num_edges=*/140,
                                      /*num_labels=*/4, /*seed=*/11));
  std::span<const NodeId> escaped;
  {
    const auto snap = mgr.Acquire();
    // Find a non-empty block so the read below dereferences for sure.
    for (NodeId b = 0; escaped.empty() && b < 60; ++b) {
      escaped = snap->pattern_block_members(b);
    }
  }  // Pin dropped: only the manager's slot still holds v1.
  if (escaped.empty()) {
    std::fprintf(stderr, "no non-empty block; cannot plant the dangle\n");
    return 1;  // Still non-zero: WILL_FAIL stays satisfied, loudly.
  }
  // A full freeze gives v2 sides of its own, so displacing v1 from the slot
  // drops v1's last handle: v1 and both of its sides are freed here.
  mgr.Publish(FreezeMode::kFull);

  // THE PLANTED USE-AFTER-RETIRE: ASan aborts here.
  NodeId sink = 0;
  for (const NodeId v : escaped) sink += v;
  std::fprintf(stderr, "survived the dangling read (sink=%u)\n", sink);
  return 0;
}

}  // namespace
}  // namespace qpgc

int main() { return qpgc::Run(); }
