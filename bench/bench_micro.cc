// Micro benchmarks (google-benchmark) of the library's hot components:
// crawling, estimation, target construction, graph assembly, triangle
// tracking, rewiring throughput, and the property analyzers. These are the
// per-component costs behind the end-to-end times in Table IV.

#include <benchmark/benchmark.h>

#include "analysis/properties.h"
#include "dk/dk_construct.h"
#include "dk/dk_extract.h"
#include "dk/triangle_tracker.h"
#include "estimation/estimators.h"
#include "graph/generators.h"
#include "restore/proposed.h"
#include "restore/rewirer.h"
#include "restore/target_degree_vector.h"
#include "restore/target_jdm.h"
#include "sampling/random_walk.h"
#include "sampling/subgraph.h"

namespace sgr {
namespace {

const Graph& SharedGraph(std::size_t n) {
  static std::map<std::size_t, Graph> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    Rng rng(0xBE7C + n);
    it = cache.emplace(n, GeneratePowerlawCluster(n, 4, 0.4, rng)).first;
  }
  return it->second;
}

SamplingList SharedWalk(const Graph& g, double fraction,
                        std::uint64_t seed) {
  QueryOracle oracle(g);
  Rng rng(seed);
  return RandomWalkSample(
      oracle, 0,
      static_cast<std::size_t>(fraction * static_cast<double>(g.NumNodes())),
      rng);
}

void BM_RandomWalkSampling(benchmark::State& state) {
  const Graph& g = SharedGraph(static_cast<std::size_t>(state.range(0)));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    QueryOracle oracle(g);
    Rng rng(seed++);
    benchmark::DoNotOptimize(
        RandomWalkSample(oracle, 0, g.NumNodes() / 10, rng));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.NumNodes() / 10));
}
BENCHMARK(BM_RandomWalkSampling)->Arg(2000)->Arg(8000);

void BM_BuildSubgraph(benchmark::State& state) {
  const Graph& g = SharedGraph(static_cast<std::size_t>(state.range(0)));
  const SamplingList walk = SharedWalk(g, 0.1, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildSubgraph(walk));
  }
}
BENCHMARK(BM_BuildSubgraph)->Arg(2000)->Arg(8000);

void BM_EstimateLocalProperties(benchmark::State& state) {
  const Graph& g = SharedGraph(static_cast<std::size_t>(state.range(0)));
  const SamplingList walk = SharedWalk(g, 0.1, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimateLocalProperties(walk));
  }
}
BENCHMARK(BM_EstimateLocalProperties)->Arg(2000)->Arg(8000);

void BM_TargetConstruction(benchmark::State& state) {
  const Graph& g = SharedGraph(static_cast<std::size_t>(state.range(0)));
  const SamplingList walk = SharedWalk(g, 0.1, 4);
  const Subgraph sub = BuildSubgraph(walk);
  const LocalEstimates est = EstimateLocalProperties(walk);
  Rng rng(5);
  for (auto _ : state) {
    TargetDegreeVectorResult dv = BuildTargetDegreeVector(sub, est, rng);
    const JointDegreeMatrix m_prime =
        SubgraphClassEdges(sub.graph, dv.subgraph_target_degrees);
    benchmark::DoNotOptimize(
        BuildTargetJdm(est, dv.n_star, m_prime, rng));
  }
}
BENCHMARK(BM_TargetConstruction)->Arg(2000)->Arg(8000);

// BuildTargetJdm alone, without the target degree vector, on a walk whose
// k*_max is in the hundreds (447), where Algorithm 4's decrement scans run
// over long rows.
void BM_BuildTargetJdm(benchmark::State& state) {
  const Graph& g = SharedGraph(static_cast<std::size_t>(state.range(0)));
  const SamplingList walk = SharedWalk(g, 0.1, 8);
  const Subgraph sub = BuildSubgraph(walk);
  const LocalEstimates est = EstimateLocalProperties(walk);
  Rng dv_rng(9);
  const TargetDegreeVectorResult dv =
      BuildTargetDegreeVector(sub, est, dv_rng);
  const JointDegreeMatrix m_prime =
      SubgraphClassEdges(sub.graph, dv.subgraph_target_degrees);
  for (auto _ : state) {
    DegreeVector n_star = dv.n_star;
    Rng rng(10);
    benchmark::DoNotOptimize(BuildTargetJdm(est, n_star, m_prime, rng));
  }
  state.counters["k_max"] = static_cast<double>(dv.n_star.size() - 1);
}
BENCHMARK(BM_BuildTargetJdm)->Arg(20000)->Unit(benchmark::kMillisecond);

void BM_AssembleGraph(benchmark::State& state) {
  const Graph& g = SharedGraph(static_cast<std::size_t>(state.range(0)));
  const SamplingList walk = SharedWalk(g, 0.1, 6);
  const Subgraph sub = BuildSubgraph(walk);
  const LocalEstimates est = EstimateLocalProperties(walk);
  Rng rng(7);
  TargetDegreeVectorResult dv = BuildTargetDegreeVector(sub, est, rng);
  const JointDegreeMatrix m_prime =
      SubgraphClassEdges(sub.graph, dv.subgraph_target_degrees);
  const JointDegreeMatrix m_star =
      BuildTargetJdm(est, dv.n_star, m_prime, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ConstructPreservingTargets(
        sub.graph, dv.subgraph_target_degrees, dv.n_star, m_star, rng));
  }
}
BENCHMARK(BM_AssembleGraph)->Arg(2000)->Arg(8000);

void BM_TriangleTrackerChurn(benchmark::State& state) {
  const Graph& g = SharedGraph(2000);
  TriangleTracker tracker(g, ExtractDegreeDependentClustering(g));
  Rng rng(8);
  for (auto _ : state) {
    const NodeId u = static_cast<NodeId>(rng.NextIndex(g.NumNodes()));
    const NodeId v = static_cast<NodeId>(rng.NextIndex(g.NumNodes()));
    if (u == v) continue;
    tracker.AddEdge(u, v);
    tracker.RemoveEdge(u, v);
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_TriangleTrackerChurn);

// The rewirer's scoring kernel: one EvaluateSwapDelta per item, over a
// fixed list of random degree-matched proposals (deg i == deg a, not a
// no-op), as Algorithm 6 draws them.
void BM_EvaluateSwapDelta(benchmark::State& state) {
  const Graph& g = SharedGraph(8000);
  const TriangleTracker tracker(g, ExtractDegreeDependentClustering(g));
  struct Proposal {
    NodeId i, j, a, b;
  };
  std::vector<Proposal> proposals;
  Rng rng(12);
  while (proposals.size() < 4096) {
    const Edge e1 = g.edge(rng.NextIndex(g.NumEdges()));
    Edge e2 = g.edge(rng.NextIndex(g.NumEdges()));
    if (rng.NextBernoulli(0.5)) std::swap(e2.u, e2.v);
    if (g.Degree(e1.u) != g.Degree(e2.u)) continue;
    if (e1.u == e2.u || e1.v == e2.v) continue;
    proposals.push_back({e1.u, e1.v, e2.u, e2.v});
  }
  std::size_t next = 0;
  for (auto _ : state) {
    const Proposal& p = proposals[next];
    next = (next + 1) % proposals.size();
    benchmark::DoNotOptimize(tracker.EvaluateSwapDelta(p.i, p.j, p.a, p.b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EvaluateSwapDelta);

void BM_RewiringAttempts(benchmark::State& state) {
  const Graph& g = SharedGraph(2000);
  const std::vector<double> target = ExtractDegreeDependentClustering(g);
  Rng rng(9);
  for (auto _ : state) {
    state.PauseTiming();
    Graph copy = g;
    state.ResumeTiming();
    RewireOptions options;
    options.rewiring_coefficient = 1.0;  // |E| attempts per iteration
    ParallelRewireOptions one_thread;    // default batch, inline scoring
    benchmark::DoNotOptimize(RewireToClusteringParallel(
        copy, 0, target, options, one_thread, rng.engine()()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.NumEdges()));
}
BENCHMARK(BM_RewiringAttempts);

void BM_TriangleCount(benchmark::State& state) {
  const Graph& g = SharedGraph(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountTrianglesPerNode(g));
  }
}
BENCHMARK(BM_TriangleCount)->Arg(2000)->Arg(8000);

void BM_EdgewiseSharedPartners(benchmark::State& state) {
  const Graph& g = SharedGraph(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EdgewiseSharedPartners(g));
  }
}
BENCHMARK(BM_EdgewiseSharedPartners)->Arg(2000)->Arg(8000);

void BM_ShortestPathProperties(benchmark::State& state) {
  const Graph& g = SharedGraph(2000);
  PropertyOptions options;
  options.max_path_sources = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeShortestPathProperties(g, options));
  }
}
BENCHMARK(BM_ShortestPathProperties)->Arg(100)->Arg(0);  // 0 = exact

void BM_ProposedEndToEnd(benchmark::State& state) {
  const Graph& g = SharedGraph(2000);
  const SamplingList walk = SharedWalk(g, 0.1, 10);
  RestorationOptions options;
  options.rewire.rewiring_coefficient =
      static_cast<double>(state.range(0));
  std::uint64_t seed = 11;
  for (auto _ : state) {
    Rng rng(seed++);
    benchmark::DoNotOptimize(RestoreProposed(walk, options, rng));
  }
}
BENCHMARK(BM_ProposedEndToEnd)->Arg(10)->Arg(100);

}  // namespace
}  // namespace sgr

BENCHMARK_MAIN();
