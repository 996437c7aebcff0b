// Copyright 2026 The QPGC Authors.
//
// google-benchmark microbenchmarks for the core kernels: SCC, reachability
// equivalence, both bisimulation algorithms, the two compression functions,
// query evaluation on G vs Gr, the pattern fixpoint on Gr, and 2-hop
// construction.

#include <benchmark/benchmark.h>

#include "bisim/paige_tarjan.h"
#include "bisim/signature_bisim.h"
#include "core/pattern_scheme.h"
#include "gen/adversarial.h"
#include "gen/dataset_catalog.h"
#include "gen/random_models.h"
#include "gen/uniform.h"
#include "graph/csr.h"
#include "graph/scc.h"
#include "index/two_hop.h"
#include "pattern/match.h"
#include "reach/compress_r.h"
#include "reach/equivalence.h"
#include "reach/queries.h"
#include "serve/load_gen.h"

namespace qpgc {
namespace {

Graph SocialGraph(int64_t n) {
  return PreferentialAttachment(static_cast<size_t>(n), 3, 0.5, 42);
}

Graph LabeledGraph(int64_t n) {
  Graph g = PreferentialAttachment(static_cast<size_t>(n), 3, 0.5, 42);
  AssignZipfLabels(g, 8, 0.8, 43);
  return g;
}

void BM_SCC(benchmark::State& state) {
  const Graph g = SocialGraph(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeScc(g));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.num_edges()));
}
BENCHMARK(BM_SCC)->Arg(2000)->Arg(8000)->Arg(32000);

void BM_SCC_Csr(benchmark::State& state) {
  const Graph g = SocialGraph(state.range(0));
  const CsrGraph frozen(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeScc(frozen));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.num_edges()));
}
BENCHMARK(BM_SCC_Csr)->Arg(2000)->Arg(8000)->Arg(32000);

void BM_CsrFreeze(benchmark::State& state) {
  const Graph g = SocialGraph(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CsrGraph(g));
  }
}
BENCHMARK(BM_CsrFreeze)->Arg(8000)->Arg(32000);

void BM_ReachEquivalence(benchmark::State& state) {
  const Graph g = SocialGraph(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeReachEquivalence(g));
  }
}
BENCHMARK(BM_ReachEquivalence)->Arg(2000)->Arg(8000)->Arg(32000);

void BM_CompressR(benchmark::State& state) {
  const Graph g = SocialGraph(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CompressR(g));
  }
}
BENCHMARK(BM_CompressR)->Arg(2000)->Arg(8000)->Arg(32000);

void BM_SignatureBisim(benchmark::State& state) {
  const Graph g = LabeledGraph(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SignatureBisimulation(g));
  }
}
BENCHMARK(BM_SignatureBisim)->Arg(2000)->Arg(8000);

void BM_PaigeTarjanBisim(benchmark::State& state) {
  const Graph g = LabeledGraph(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(PaigeTarjanBisimulation(g));
  }
}
BENCHMARK(BM_PaigeTarjanBisim)->Arg(2000)->Arg(8000);

void BM_PaigeTarjanBisimCsr(benchmark::State& state) {
  const Graph g = LabeledGraph(state.range(0));
  const CsrGraph frozen(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PaigeTarjanBisimulation(frozen));
  }
}
BENCHMARK(BM_PaigeTarjanBisimCsr)->Arg(2000)->Arg(8000);

void BM_PaigeTarjanBisimChain(benchmark::State& state) {
  const Graph g = LongChain(static_cast<size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PaigeTarjanBisimulation(g));
  }
}
BENCHMARK(BM_PaigeTarjanBisimChain)->Arg(4000)->Arg(16000);

void BM_PaigeTarjanBisimChainCsr(benchmark::State& state) {
  const Graph g = LongChain(static_cast<size_t>(state.range(0)), 1);
  const CsrGraph frozen(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PaigeTarjanBisimulation(frozen));
  }
}
BENCHMARK(BM_PaigeTarjanBisimChainCsr)->Arg(4000)->Arg(16000);

void BM_CompressB(benchmark::State& state) {
  const Graph g = LabeledGraph(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CompressB(g));
  }
}
BENCHMARK(BM_CompressB)->Arg(2000)->Arg(8000);

void BM_BfsOnG(benchmark::State& state) {
  const Graph g = SocialGraph(8000);
  const auto queries = RandomReachQueries(g.num_nodes(), 64, 7);
  size_t i = 0;
  for (auto _ : state) {
    const auto& q = queries[i++ % queries.size()];
    benchmark::DoNotOptimize(
        EvalReach(g, q.u, q.v, PathMode::kReflexive, ReachAlgorithm::kBfs));
  }
}
BENCHMARK(BM_BfsOnG);

void BM_BfsOnGr(benchmark::State& state) {
  const Graph g = SocialGraph(8000);
  const ReachCompression rc = CompressR(g);
  const auto queries = RandomReachQueries(g.num_nodes(), 64, 7);
  size_t i = 0;
  for (auto _ : state) {
    const auto& q = queries[i++ % queries.size()];
    benchmark::DoNotOptimize(
        AnswerOnCompressed(rc, q, PathMode::kReflexive, ReachAlgorithm::kBfs));
  }
}
BENCHMARK(BM_BfsOnGr);

// The end-to-end benchmark's match datasets: arg 0 its social graph, whose
// pattern quotient barely compresses; arg 1 its 141x141 directed grid;
// arg 2 the Citation stand-in, whose 67 selective labels leave candidate
// initialization most of a match.
Graph MatchServingGraph(int64_t which) {
  if (which == 2) return MakeDataset(FindPatternDataset("Citation"));
  Graph g = which == 0 ? PreferentialAttachment(20000, 4, 0.45, 13)
                       : DirectedGrid(141, 141);
  AssignZipfLabels(g, 4, 1.1, 14);
  return g;
}

// Match on the frozen pattern quotient (candidate sets and fixpoint, no
// expansion); one iteration runs all 8 serving patterns.
void BM_MatchOnGr(benchmark::State& state) {
  const Graph g = MatchServingGraph(state.range(0));
  const PatternCompression pc = CompressB(g);
  const CsrGraph& gr = *pc.gr;
  const std::vector<PatternQuery> patterns = ServeLoadPatterns(g, 8, 70);
  for (auto _ : state) {
    for (const PatternQuery& q : patterns) {
      benchmark::DoNotOptimize(Match(gr, q));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(patterns.size()));
}
BENCHMARK(BM_MatchOnGr)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

void BM_TwoHopBuild(benchmark::State& state) {
  const Graph g = SocialGraph(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(TwoHopIndex::Build(g));
  }
}
BENCHMARK(BM_TwoHopBuild)->Arg(2000)->Arg(8000);

void BM_TwoHopBuildOnGr(benchmark::State& state) {
  const Graph g = SocialGraph(state.range(0));
  const ReachCompression rc = CompressR(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(TwoHopIndex::Build(*rc.gr));
  }
}
BENCHMARK(BM_TwoHopBuildOnGr)->Arg(2000)->Arg(8000);

}  // namespace
}  // namespace qpgc
