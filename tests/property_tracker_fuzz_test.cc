#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/properties.h"
#include "analysis/property_tracker.h"
#include "dk/dk_extract.h"
#include "graph/components.h"
#include "graph/generators.h"
#include "restore/rewirer.h"
#include "util/rng.h"

namespace sgr {
namespace {

/// Seeded adversarial swap-sequence fuzzer (json_fuzz_test.cc style):
/// draws ARBITRARY orientations of two distinct edges — unlike the
/// rewiring engines it does not require deg(i) == deg(a), because
/// removing any two edges and adding their recombination preserves every
/// degree. That widens the sequence space to the nasty configurations:
/// self-swaps (i == a), loop creation (i == b), loop destruction (a loop
/// drawn as (i, i)), repeated parallel edges, and component merge/split
/// churn.
class SwapFuzzer {
 public:
  explicit SwapFuzzer(std::uint64_t seed) : seed_(seed), rng_(seed) {}

  /// Applies one fuzzed swap to graph and tracker; returns false when
  /// the draw was degenerate (same edge twice).
  bool Step(Graph& g, PropertyTracker& tracker) {
    if (g.NumEdges() < 2) return false;
    const EdgeId e1 = rng_.NextIndex(g.NumEdges());
    const EdgeId e2 = rng_.NextIndex(g.NumEdges());
    if (e1 == e2) return false;
    const Edge first = g.edge(e1);
    const Edge second = g.edge(e2);
    const bool flip1 = rng_.NextBernoulli(0.5);
    const bool flip2 = rng_.NextBernoulli(0.5);
    const NodeId i = flip1 ? first.v : first.u;
    const NodeId j = flip1 ? first.u : first.v;
    const NodeId a = flip2 ? second.v : second.u;
    const NodeId b = flip2 ? second.u : second.v;
    g.ReplaceEdge(e1, i, b);
    g.ReplaceEdge(e2, a, j);
    tracker.ApplySwap(i, j, a, b);
    return true;
  }

  std::string Label() const {
    return "fuzz seed " + std::to_string(seed_);
  }

 private:
  std::uint64_t seed_;
  Rng rng_;
};

void ExpectVectorsNear(const std::vector<double>& expected,
                       const std::vector<double>& actual,
                       const std::string& what, const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label << ": " << what;
  for (std::size_t k = 0; k < expected.size(); ++k) {
    ASSERT_NEAR(expected[k], actual[k], 1e-12)
        << label << ": " << what << "[" << k << "]";
  }
}

void ExpectMatchesFromScratch(const Graph& g,
                              const PropertyTracker& tracker,
                              const std::string& label) {
  const GraphProperties snapshot = tracker.Snapshot();
  ASSERT_EQ(g.NumNodes(), snapshot.num_nodes) << label;
  ExpectVectorsNear(DegreeDistribution(g), snapshot.degree_dist, "P(k)",
                    label);
  ExpectVectorsNear(NeighborConnectivity(g),
                    snapshot.neighbor_connectivity, "knn(k)", label);
  ASSERT_NEAR(NetworkClusteringCoefficient(g), snapshot.clustering_global,
              1e-12)
      << label;
  ExpectVectorsNear(ExtractDegreeDependentClustering(g),
                    snapshot.clustering_by_degree, "c(k)", label);
  ExpectVectorsNear(EdgewiseSharedPartners(g), snapshot.esp_dist, "P(s)",
                    label);
  const ComponentsResult components = ConnectedComponents(g);
  ASSERT_EQ(components.sizes.size(), tracker.NumComponents()) << label;
  ASSERT_EQ(components.sizes.empty()
                ? 0u
                : components.sizes[components.largest],
            tracker.LccSize())
      << label;
}

/// The three fixture regimes the fuzzer cycles through: a dense
/// multigraph where swaps constantly create/destroy loops and parallel
/// edges, a heavy-tailed clustered graph, and a sparse cycle whose swaps
/// shatter and rejoin components.
Graph FuzzFixture(std::uint64_t seed) {
  switch (seed % 3) {
    case 0: {
      Graph g = GenerateComplete(10);
      g.AddEdge(0, 0);
      g.AddEdge(1, 1);
      g.AddEdge(2, 3);
      g.AddEdge(2, 3);
      return g;
    }
    case 1: {
      Rng rng(seed);
      Graph g = GeneratePowerlawCluster(60, 3, 0.5, rng);
      g.AddEdge(4, 4);
      const Edge doubled = g.edge(9);
      g.AddEdge(doubled.u, doubled.v);
      return g;
    }
    default:
      return GenerateCycle(40);
  }
}

TEST(PropertyTrackerFuzzTest, AdversarialSequencesCrossValidate) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Graph g = FuzzFixture(seed);
    PropertyTracker tracker(g);
    SwapFuzzer fuzzer(seed);
    std::size_t applied = 0;
    for (std::size_t step = 0; step < 2000 && applied < 200; ++step) {
      if (fuzzer.Step(g, tracker)) ++applied;
      if (applied > 0 && applied % 50 == 0) {
        ExpectMatchesFromScratch(g, tracker,
                                 fuzzer.Label() + " after " +
                                     std::to_string(applied) + " swaps");
        if (::testing::Test::HasFailure()) return;
      }
    }
    ASSERT_GE(applied, 150u) << fuzzer.Label();
    ExpectMatchesFromScratch(g, tracker, fuzzer.Label() + " final");
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(PropertyTrackerFuzzTest, CycleChurnSplitsAndMergesComponents) {
  // Swaps on a cycle fragment it into disjoint cycles and splice them
  // back — the component merge/split paths under constant churn, with
  // the component count cross-checked after every single swap.
  Graph g = GenerateCycle(48);
  PropertyTracker tracker(g);
  SwapFuzzer fuzzer(0xC0C0);
  std::size_t max_components = 1;
  std::size_t applied = 0;
  for (std::size_t step = 0; step < 4000 && applied < 400; ++step) {
    if (!fuzzer.Step(g, tracker)) continue;
    ++applied;
    ASSERT_EQ(CountComponents(g), tracker.NumComponents())
        << fuzzer.Label() << " after " << applied << " swaps";
    max_components = std::max(max_components, tracker.NumComponents());
  }
  ASSERT_GE(applied, 300u);
  // The churn must actually have split the cycle for this test to mean
  // anything.
  EXPECT_GT(max_components, 1u);
  ExpectMatchesFromScratch(g, tracker, "cycle churn final");
}

TEST(PropertyTrackerFuzzTest,
     TrackedParallelRewireByteIdenticalAcrossThreads) {
  Rng gen_rng(7);
  const Graph before = GeneratePowerlawCluster(300, 3, 0.5, gen_rng);
  std::vector<double> target(before.MaxDegree() + 1, 0.25);
  RewireOptions options;
  options.rewiring_coefficient = 25.0;
  options.track_properties = true;
  ParallelRewireOptions parallel;
  parallel.batch_size = 128;

  struct Run {
    Graph graph;
    RewireStats stats;
  };
  std::vector<Run> runs;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    parallel.threads = threads;
    Run run{before, {}};
    run.stats = RewireToClusteringParallel(run.graph, 0, target, options,
                                           parallel, /*seed=*/0xD00D);
    runs.push_back(std::move(run));
  }
  ASSERT_EQ(kConvergenceSamples, runs[0].stats.curve.size());
  EXPECT_GT(runs[0].stats.accepted, 0u);
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].graph.NumEdges(), runs[0].graph.NumEdges());
    for (EdgeId e = 0; e < runs[0].graph.NumEdges(); ++e) {
      ASSERT_EQ(runs[r].graph.edge(e).u, runs[0].graph.edge(e).u)
          << "edge " << e << " at run " << r;
      ASSERT_EQ(runs[r].graph.edge(e).v, runs[0].graph.edge(e).v)
          << "edge " << e << " at run " << r;
    }
    EXPECT_EQ(runs[r].stats.attempts, runs[0].stats.attempts);
    EXPECT_EQ(runs[r].stats.accepted, runs[0].stats.accepted);
    EXPECT_EQ(runs[r].stats.initial_distance,
              runs[0].stats.initial_distance);
    EXPECT_EQ(runs[r].stats.final_distance, runs[0].stats.final_distance);
    EXPECT_EQ(runs[r].stats.stopped_early, runs[0].stats.stopped_early);
    // The convergence curve must agree bit-for-bit, doubles included.
    ASSERT_EQ(runs[r].stats.curve.size(), runs[0].stats.curve.size());
    for (std::size_t s = 0; s < runs[0].stats.curve.size(); ++s) {
      EXPECT_EQ(runs[r].stats.curve[s].attempts,
                runs[0].stats.curve[s].attempts)
          << "sample " << s;
      EXPECT_EQ(runs[r].stats.curve[s].objective,
                runs[0].stats.curve[s].objective)
          << "sample " << s;
      EXPECT_EQ(runs[r].stats.curve[s].clustering_global,
                runs[0].stats.curve[s].clustering_global)
          << "sample " << s;
      EXPECT_EQ(runs[r].stats.curve[s].components,
                runs[0].stats.curve[s].components)
          << "sample " << s;
      EXPECT_EQ(runs[r].stats.curve[s].lcc, runs[0].stats.curve[s].lcc)
          << "sample " << s;
    }
  }
}

TEST(PropertyTrackerFuzzTest, TrackingIsPureObservationBatched) {
  Rng gen_rng(13);
  const Graph before = GeneratePowerlawCluster(200, 3, 0.5, gen_rng);
  std::vector<double> target(before.MaxDegree() + 1, 0.2);
  RewireOptions plain;
  plain.rewiring_coefficient = 20.0;
  RewireOptions tracked = plain;
  tracked.track_properties = true;
  ParallelRewireOptions parallel;
  parallel.batch_size = 64;
  parallel.threads = 2;

  Graph g_plain = before;
  const RewireStats stats_plain = RewireToClusteringParallel(
      g_plain, 0, target, plain, parallel, /*seed=*/0xBEE);
  Graph g_tracked = before;
  const RewireStats stats_tracked = RewireToClusteringParallel(
      g_tracked, 0, target, tracked, parallel, /*seed=*/0xBEE);

  ASSERT_EQ(g_plain.NumEdges(), g_tracked.NumEdges());
  for (EdgeId e = 0; e < g_plain.NumEdges(); ++e) {
    ASSERT_EQ(g_plain.edge(e).u, g_tracked.edge(e).u) << "edge " << e;
    ASSERT_EQ(g_plain.edge(e).v, g_tracked.edge(e).v) << "edge " << e;
  }
  EXPECT_EQ(stats_plain.attempts, stats_tracked.attempts);
  EXPECT_EQ(stats_plain.accepted, stats_tracked.accepted);
  EXPECT_EQ(stats_plain.rounds, stats_tracked.rounds);
  EXPECT_EQ(stats_plain.evaluated, stats_tracked.evaluated);
  EXPECT_EQ(stats_plain.conflicts, stats_tracked.conflicts);
  EXPECT_EQ(stats_plain.reevaluated, stats_tracked.reevaluated);
  EXPECT_EQ(stats_plain.initial_distance, stats_tracked.initial_distance);
  EXPECT_EQ(stats_plain.final_distance, stats_tracked.final_distance);
  EXPECT_TRUE(stats_plain.curve.empty());
  EXPECT_FALSE(stats_plain.stopped_early);
  ASSERT_EQ(kConvergenceSamples, stats_tracked.curve.size());
  EXPECT_FALSE(stats_tracked.stopped_early);
  EXPECT_EQ(stats_tracked.attempts, stats_tracked.curve.back().attempts);
  // The curve's objective is non-increasing (only improving swaps
  // commit). The engine scores against exact integer triangle state, so
  // its last objective equals the recomputed final distance to full
  // precision.
  for (std::size_t s = 1; s < stats_tracked.curve.size(); ++s) {
    EXPECT_LE(stats_tracked.curve[s].objective,
              stats_tracked.curve[s - 1].objective + 1e-9)
        << "sample " << s;
  }
  EXPECT_NEAR(stats_tracked.curve.back().objective,
              stats_tracked.final_distance, 1e-9);
}

TEST(PropertyTrackerFuzzTest, AdaptiveStopHaltsBatched) {
  Rng gen_rng(15);
  const Graph before = GeneratePowerlawCluster(250, 3, 0.6, gen_rng);
  std::vector<double> target(before.MaxDegree() + 1, 0.05);
  RewireOptions reference;
  reference.rewiring_coefficient = 30.0;
  reference.track_properties = true;
  ParallelRewireOptions parallel;
  parallel.batch_size = 64;

  Graph g_ref = before;
  const RewireStats ref = RewireToClusteringParallel(
      g_ref, 0, target, reference, parallel, /*seed=*/0x57A7);
  ASSERT_GT(ref.initial_distance, ref.final_distance);
  ASSERT_FALSE(ref.stopped_early);

  RewireOptions stopping = reference;
  stopping.stop_epsilon =
      0.5 * (ref.initial_distance + ref.final_distance);

  // The stop decision happens between rounds, so the halted run is
  // byte-identical for every worker count too.
  std::vector<RewireStats> stopped_stats;
  std::vector<Graph> stopped_graphs;
  for (const std::size_t threads : {1u, 4u}) {
    parallel.threads = threads;
    Graph g_stop = before;
    stopped_stats.push_back(RewireToClusteringParallel(
        g_stop, 0, target, stopping, parallel, /*seed=*/0x57A7));
    stopped_graphs.push_back(std::move(g_stop));
  }
  const RewireStats& stopped = stopped_stats[0];
  EXPECT_TRUE(stopped.stopped_early);
  EXPECT_GT(stopped.attempts, 0u);
  EXPECT_LT(stopped.attempts, ref.attempts);
  ASSERT_EQ(kConvergenceSamples, stopped.curve.size());
  EXPECT_LE(stopped.final_distance, stopping.stop_epsilon + 1e-9);

  EXPECT_EQ(stopped_stats[1].stopped_early, stopped.stopped_early);
  EXPECT_EQ(stopped_stats[1].attempts, stopped.attempts);
  EXPECT_EQ(stopped_stats[1].final_distance, stopped.final_distance);
  for (EdgeId e = 0; e < stopped_graphs[0].NumEdges(); ++e) {
    ASSERT_EQ(stopped_graphs[0].edge(e).u, stopped_graphs[1].edge(e).u)
        << "edge " << e;
    ASSERT_EQ(stopped_graphs[0].edge(e).v, stopped_graphs[1].edge(e).v)
        << "edge " << e;
  }

  // Epsilon already satisfied at the start: zero attempts.
  RewireOptions trivial = reference;
  trivial.stop_epsilon = 1e6;
  Graph g_trivial = before;
  const RewireStats none = RewireToClusteringParallel(
      g_trivial, 0, target, trivial, parallel, /*seed=*/0x57A7);
  EXPECT_TRUE(none.stopped_early);
  EXPECT_EQ(0u, none.attempts);
  EXPECT_EQ(0u, none.accepted);
  for (EdgeId e = 0; e < before.NumEdges(); ++e) {
    ASSERT_EQ(before.edge(e).u, g_trivial.edge(e).u) << "edge " << e;
    ASSERT_EQ(before.edge(e).v, g_trivial.edge(e).v) << "edge " << e;
  }
}

}  // namespace
}  // namespace sgr
