// Copyright 2026 The QPGC Authors.
//
// Reachability analytics over a social network — the workload the paper's
// introduction motivates ("can user u's posts reach user w?"). Loads the
// socEpinions stand-in (or a SNAP edge-list file if you pass a path),
// compresses it once, then serves reachability queries from the compressed
// graph with plain BFS and with a 2-hop index built directly on Gr.
//
//   $ ./social_reachability [edge_list_file]

#include <cstdio>

#include "core/reach_scheme.h"
#include "gen/dataset_catalog.h"
#include "graph/io.h"
#include "graph/stats.h"
#include "index/two_hop.h"
#include "util/memory.h"
#include "util/timer.h"

using namespace qpgc;

int main(int argc, char** argv) {
  Graph g;
  if (argc > 1) {
    auto loaded = LoadEdgeList(argv[1]);
    if (!loaded.ok()) {
      std::fprintf(stderr, "failed to load %s: %s\n", argv[1],
                   loaded.status().ToString().c_str());
      return 1;
    }
    g = std::move(loaded).value();
    std::printf("loaded %s: %s\n", argv[1], g.DebugString().c_str());
  } else {
    g = MakeDataset(FindDataset("socEpinions"));
    std::printf("socEpinions stand-in: %s\n", g.DebugString().c_str());
  }
  std::printf("%s\n\n", FormatStats(ComputeStats(g)).c_str());

  // Compress once; queries from now on never touch G.
  Timer t;
  const ReachabilityPreservingCompression scheme(g);
  const ReachCompression& rc = scheme.artifact();
  std::printf("compressR: %.1fms;  |G| = %zu -> |Gr| = %zu  (RCr = %.2f%%)\n",
              t.ElapsedMillis(), g.size(), rc.size(),
              rc.CompressionRatio() * 100);
  std::printf("memory: G = %s (CSR freeze %s), Gr (CSR) = %s\n",
              FormatBytes(g.MemoryBytes()).c_str(),
              FormatBytes(CsrGraph(g).MemoryBytes()).c_str(),
              FormatBytes(rc.gr->MemoryBytes()).c_str());

  // Serve a query mix two ways: BFS on Gr, and a 2-hop index built ON Gr
  // (the paper's point: index techniques apply to compressed graphs as-is).
  const auto queries = RandomReachQueries(g.num_nodes(), 2000, 17);

  t.Restart();
  size_t reachable = 0;
  for (const auto& q : queries) reachable += scheme.Answer(q);
  const double bfs_ms = t.ElapsedMillis();

  t.Restart();
  const TwoHopIndex idx = TwoHopIndex::Build(*rc.gr);
  const double build_ms = t.ElapsedMillis();
  t.Restart();
  size_t reachable2 = 0;
  for (const auto& q : queries) {
    reachable2 += q.u == q.v || idx.Reaches(rc.node_map[q.u], rc.node_map[q.v],
                                            PathMode::kNonEmpty);
  }
  const double idx_ms = t.ElapsedMillis();

  std::printf("\n2000 queries, %zu reachable\n", reachable);
  std::printf("  BFS on Gr:        %8.2fms\n", bfs_ms);
  std::printf("  2-hop on Gr:      %8.2fms  (index built in %.1fms, %s)\n",
              idx_ms, build_ms, FormatBytes(idx.MemoryBytes()).c_str());
  if (reachable != reachable2) {
    std::printf("ERROR: BFS and 2-hop disagree!\n");
    return 1;
  }
  std::printf("both evaluation strategies agree on every query.\n");
  return 0;
}
