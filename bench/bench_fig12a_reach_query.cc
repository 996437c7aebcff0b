// Copyright 2026 The QPGC Authors.
//
// Fig. 12(a): reachability query evaluation time on original vs compressed
// graphs, for BFS and bidirectional BFS, on five real-life datasets. The
// paper reports times normalized to BFS-on-G = 100%. Gr is a CsrGraph, so
// G is timed on its CSR freeze: the cut is the compression's, not the
// layout's.

#include <cstdio>

#include "bench_util.h"
#include "gen/dataset_catalog.h"
#include "graph/csr.h"
#include "reach/compress_r.h"
#include "reach/queries.h"

using namespace qpgc;

int main() {
  bench::Banner("Fig. 12(a) — reachability queries: G vs Gr",
                "Fan et al., SIGMOD 2012, Fig. 12(a); bars normalized to "
                "BFS on G = 100%");
  const char* datasets[] = {"P2P", "wikiVote", "citHepTh", "socEpinions",
                            "NotreDame"};
  std::printf("%-12s | %9s %9s %9s %9s | %8s %8s\n", "dataset", "BFS(G)",
              "BIBFS(G)", "BFS(Gr)", "BIBFS(Gr)", "BFScut", "ratio");
  bench::Rule();

  for (const char* name : datasets) {
    const Graph g = MakeDataset(FindDataset(name));
    const ReachCompression rc = CompressR(g);
    const CsrGraph frozen_g(g);
    const auto queries = RandomReachQueries(g.num_nodes(), 300, 7);

    const auto run = [&](ReachAlgorithm algo, bool compressed) {
      return bench::TimeOnce([&] {
        for (const auto& q : queries) {
          if (compressed) {
            AnswerOnCompressed(rc, q, PathMode::kReflexive, algo);
          } else {
            EvalReach(frozen_g, q.u, q.v, PathMode::kReflexive, algo);
          }
        }
      });
    };
    const double bfs_g = run(ReachAlgorithm::kBfs, false);
    const double bibfs_g = run(ReachAlgorithm::kBiBfs, false);
    const double bfs_gr = run(ReachAlgorithm::kBfs, true);
    const double bibfs_gr = run(ReachAlgorithm::kBiBfs, true);

    std::printf("%-12s | %9s %9s %9s %9s | %8s %8s\n", name,
                bench::Secs(bfs_g).c_str(), bench::Secs(bibfs_g).c_str(),
                bench::Secs(bfs_gr).c_str(), bench::Secs(bibfs_gr).c_str(),
                bench::Pct(1.0 - bfs_gr / bfs_g).c_str(),
                bench::Pct(rc.CompressionRatio()).c_str());
    bench::Metric(std::string("bfs_g_secs.") + name, bfs_g);
    bench::Metric(std::string("bibfs_g_secs.") + name, bibfs_g);
    bench::Metric(std::string("bfs_gr_secs.") + name, bfs_gr);
    bench::Metric(std::string("bibfs_gr_secs.") + name, bibfs_gr);
    bench::Metric(std::string("rcr.") + name, rc.CompressionRatio());
  }
  bench::Rule();
  std::printf("expected shape: queries on Gr are a small fraction of G "
              "(paper: ~2%% of BFS cost on socEpinions);\nBIBFS < BFS on "
              "both graphs.\n");
  return 0;
}
