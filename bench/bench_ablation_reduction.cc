// Copyright 2026 The QPGC Authors.
//
// Ablation (DESIGN.md §5): how much of compressR's edge saving comes from
// the transitive reduction (the paper's "no redundant edges" optimization,
// Section 3.2 lines 6-8) versus the equivalence quotient alone, and what
// the SCC-collapse pre-pass contributes (the RCscc column of Table 1 views
// the same question from the other side).

#include <cstdio>

#include "bench_util.h"
#include "gen/dataset_catalog.h"
#include "graph/condensation.h"
#include "reach/compress_r.h"

using namespace qpgc;

int main() {
  bench::Banner("Ablation — compressR stages: SCC collapse, quotient, "
                "transitive reduction",
                "Fan et al., SIGMOD 2012, Section 3.2 design choices");
  std::printf("%-12s | %10s %10s %10s %10s | %9s\n", "dataset", "|G|",
              "|Gscc|", "|Gr|noTR", "|Gr|", "TR-saving");
  bench::Rule();
  for (const auto& spec : ReachabilityDatasets()) {
    const Graph g = MakeDataset(spec);
    const Condensation cond = BuildCondensation(g);

    // The artifact's quotient is Gr before the transitive reduction: the
    // same classes, every class-level edge.
    const ReachCompression rc = CompressR(g);
    const CsrGraph& no_tr = rc.quotient;

    const double tr_saving =
        no_tr.num_edges() == 0
            ? 0.0
            : 1.0 - static_cast<double>(rc.gr->num_edges()) /
                        static_cast<double>(no_tr.num_edges());
    std::printf("%-12s | %10zu %10zu %10zu %10zu | %9s\n", spec.name.c_str(),
                g.size(), cond.dag.size(), no_tr.size(), rc.size(),
                bench::Pct(tr_saving).c_str());
    bench::Metric("tr_saving." + spec.name, tr_saving);
    bench::Metric("gr_size." + spec.name, static_cast<double>(rc.size()));
  }
  bench::Rule();
  std::printf("reading: |Gscc| is the SCC-collapse baseline the paper "
              "reports as RCscc's denominator;\nquotienting equivalence "
              "classes then shrinks nodes, and the transitive reduction "
              "removes\nthe remaining redundant class edges.\n");
  return 0;
}
