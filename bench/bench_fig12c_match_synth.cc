// Copyright 2026 The QPGC Authors.
//
// Fig. 12(c): pattern matching on synthetic graphs (paper: |V| = 50K,
// |E| = 435K, |L| in {10, 20}; here scaled 5x down), original vs compressed,
// across pattern sizes. Larger |L| means finer bisimulation blocks but also
// fewer candidates per query node — the paper observes Match runs faster
// with |L| = 20.

#include <cstdio>

#include "bench_util.h"
#include "core/pattern_scheme.h"
#include "gen/uniform.h"
#include "graph/csr.h"
#include "pattern/match.h"
#include "pattern/pattern_gen.h"

using namespace qpgc;

int main() {
  bench::Banner("Fig. 12(c) — pattern queries on synthetic graphs",
                "Fan et al., SIGMOD 2012, Fig. 12(c)");
  const size_t kNodes = 10000, kEdges = 87000;  // paper/5
  for (const size_t num_labels : {size_t{10}, size_t{20}}) {
    Graph g = GenerateUniform(kNodes, kEdges, num_labels, 99);
    const PatternCompression pc = CompressB(g);
    const std::vector<Label> labels = DistinctLabels(g);
    // G is timed on its CSR freeze with its label index built, as Gr has
    // both: the cut is the compression's.
    const CsrGraph frozen_g(g);
    (void)frozen_g.label_index();
    (void)pc.gr->label_index();
    std::printf("|L| = %zu (|G| = %zu, |Gr| = %zu, PCr = %s)\n", num_labels,
                g.size(), pc.size(), bench::Pct(pc.CompressionRatio()).c_str());
    std::printf("  %-10s | %12s %12s | %8s\n", "(Vp,Ep,k)", "Match(G)",
                "Match(Gr)+P", "cut");
    for (uint32_t size = 3; size <= 8; ++size) {
      PatternGenOptions options;
      options.num_nodes = size;
      options.num_edges = size;
      options.max_bound = 3;
      double t_g = 0.0, t_gr = 0.0;
      const int kQueries = 4;
      for (int i = 0; i < kQueries; ++i) {
        const PatternQuery q = RandomPattern(labels, options, size * 31 + i);
        t_g += bench::TimeOnce([&] { Match(frozen_g, q); });
        t_gr += bench::TimeOnce([&] { MatchOnCompressed(pc, q); });
      }
      std::printf("  (%u,%u,3)    | %12s %12s | %8s\n", size, size,
                  bench::Secs(t_g / kQueries).c_str(),
                  bench::Secs(t_gr / kQueries).c_str(),
                  bench::Pct(1.0 - t_gr / t_g).c_str());
      const std::string prefix =
          "L" + std::to_string(num_labels) + "." + std::to_string(size);
      bench::Metric("match_g_secs." + prefix, t_g / kQueries);
      bench::Metric("match_gr_secs." + prefix, t_gr / kQueries);
    }
    bench::Metric("pcr.L" + std::to_string(num_labels),
                  pc.CompressionRatio());
    std::printf("\n");
  }
  bench::Rule();
  std::printf("expected shape: compressed evaluation wins at every pattern "
              "size; |L| = 20 runs\nfaster than |L| = 10 (more labels = "
              "fewer candidates).\n");
  return 0;
}
