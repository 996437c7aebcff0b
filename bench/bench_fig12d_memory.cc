// Copyright 2026 The QPGC Authors.
//
// Fig. 12(d): memory cost of G, Gr and the 2-hop index [6] built on each.
// The paper's points: (a) Gr saves >= 92% of G's memory; (b) 2-hop labels
// dwarf both graphs; (c) 2-hop can be built cheaply *on Gr* — indexes apply
// to compressed graphs unchanged. Gr is a CsrGraph, so the saving compares
// it with G's CSR freeze; G's vector-of-vectors bytes are reported beside.

#include <cstdio>

#include "bench_util.h"
#include "gen/dataset_catalog.h"
#include "graph/csr.h"
#include "index/two_hop.h"
#include "reach/compress_r.h"
#include "util/memory.h"

using namespace qpgc;

int main() {
  bench::Banner("Fig. 12(d) — memory: G, Gr, 2-hop(G), 2-hop(Gr)",
                "Fan et al., SIGMOD 2012, Fig. 12(d) (log-scale bars in the "
                "paper)");
  const char* datasets[] = {"P2P",         "wikiVote", "citHepTh",
                            "socEpinions", "facebook", "NotreDame"};
  std::printf("%-12s | %10s %10s %10s %12s %12s | %8s\n", "dataset", "G",
              "G(CSR)", "Gr(CSR)", "2hop(G)", "2hop(Gr)", "G-saving");
  bench::Rule();
  for (const char* name : datasets) {
    const Graph g = MakeDataset(FindDataset(name));
    const ReachCompression rc = CompressR(g);
    const TwoHopIndex on_g = TwoHopIndex::Build(g);
    const TwoHopIndex on_gr = TwoHopIndex::Build(*rc.gr);
    const size_t g_bytes = g.MemoryBytes();
    const size_t g_csr_bytes = CsrGraph(g).MemoryBytes();
    const size_t gr_bytes = rc.gr->MemoryBytes();
    std::printf("%-12s | %10s %10s %10s %12s %12s | %8s\n", name,
                FormatBytes(g_bytes).c_str(), FormatBytes(g_csr_bytes).c_str(),
                FormatBytes(gr_bytes).c_str(),
                FormatBytes(on_g.MemoryBytes()).c_str(),
                FormatBytes(on_gr.MemoryBytes()).c_str(),
                bench::Pct(1.0 - static_cast<double>(gr_bytes) /
                                     static_cast<double>(g_csr_bytes))
                    .c_str());
    bench::Metric(std::string("g_bytes.") + name,
                  static_cast<double>(g_bytes));
    bench::Metric(std::string("g_csr_bytes.") + name,
                  static_cast<double>(g_csr_bytes));
    bench::Metric(std::string("gr_bytes.") + name,
                  static_cast<double>(gr_bytes));
    bench::Metric(std::string("twohop_g_bytes.") + name,
                  static_cast<double>(on_g.MemoryBytes()));
    bench::Metric(std::string("twohop_gr_bytes.") + name,
                  static_cast<double>(on_gr.MemoryBytes()));
  }
  bench::Rule();
  std::printf("expected shape: Gr saves >=92%% of G's memory; 2-hop(G) >> "
              "G; 2-hop(Gr) << 2-hop(G).\n");
  return 0;
}
