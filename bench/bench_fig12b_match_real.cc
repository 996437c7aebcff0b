// Copyright 2026 The QPGC Authors.
//
// Fig. 12(b): bounded-simulation pattern matching time on Youtube and
// Citation vs their compressed counterparts, as pattern size grows from
// (3,3,3) to (8,8,3) — (|Vp|, |Ep|, k).

#include <cstdio>

#include "bench_util.h"
#include "core/pattern_scheme.h"
#include "gen/dataset_catalog.h"
#include "graph/csr.h"
#include "pattern/match.h"
#include "pattern/pattern_gen.h"

using namespace qpgc;

namespace {

void RunDataset(const char* name) {
  const Graph g = MakeDataset(FindPatternDataset(name));
  const PatternCompression pc = CompressB(g);
  const std::vector<Label> labels = DistinctLabels(g);
  // Gr is a CsrGraph with a label index, so G is timed on its CSR freeze
  // with its index built too: the cut is the compression's, not the
  // layout's or the index's.
  const CsrGraph frozen_g(g);
  (void)frozen_g.label_index();
  (void)pc.gr->label_index();
  std::printf("%s (|G| = %zu, |Gr| = %zu, PCr = %s)\n", name, g.size(),
              pc.size(), bench::Pct(pc.CompressionRatio()).c_str());
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
      const PatternQuery q = RandomPattern(labels, options, size * 17 + i);
      t_g += bench::TimeOnce([&] { Match(frozen_g, q); });
      t_gr += bench::TimeOnce([&] { MatchOnCompressed(pc, q); });
    }
    std::printf("  (%u,%u,3)    | %12s %12s | %8s\n", size, size,
                bench::Secs(t_g / kQueries).c_str(),
                bench::Secs(t_gr / kQueries).c_str(),
                bench::Pct(1.0 - t_gr / t_g).c_str());
    const std::string prefix = std::string(name) + "." + std::to_string(size);
    bench::Metric("match_g_secs." + prefix, t_g / kQueries);
    bench::Metric("match_gr_secs." + prefix, t_gr / kQueries);
  }
  bench::Metric(std::string("pcr.") + name, pc.CompressionRatio());
}

}  // namespace

int main() {
  bench::Banner("Fig. 12(b) — pattern queries on real-life graphs",
                "Fan et al., SIGMOD 2012, Fig. 12(b); paper: Match on Gr "
                "~30% of Match on G");
  RunDataset("Youtube");
  std::printf("\n");
  RunDataset("Citation");
  bench::Rule();
  std::printf("expected shape: Match on the compressed graph is a fraction "
              "of Match on G,\nand less sensitive to pattern size.\n");
  return 0;
}
