#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/l1.h"
#include "analysis/properties.h"
#include "dk/dk_extract.h"
#include "graph/components.h"
#include "graph/generators.h"
#include "restore/rewirer.h"
#include "util/rng.h"

namespace sgr {
namespace {

/// The invariants every rewiring run must keep: degree sequence
/// untouched, protected edge ids untouched, monotone objective,
/// accepted <= attempts.
void ExpectRewireInvariants(const Graph& before, const Graph& after,
                            std::size_t num_protected,
                            const RewireStats& stats) {
  ASSERT_EQ(after.NumNodes(), before.NumNodes());
  ASSERT_EQ(after.NumEdges(), before.NumEdges());
  for (NodeId v = 0; v < before.NumNodes(); ++v) {
    ASSERT_EQ(after.Degree(v), before.Degree(v)) << "node " << v;
  }
  for (std::size_t e = 0; e < num_protected && e < before.NumEdges(); ++e) {
    EXPECT_EQ(after.edge(e).u, before.edge(e).u) << "edge " << e;
    EXPECT_EQ(after.edge(e).v, before.edge(e).v) << "edge " << e;
  }
  EXPECT_LE(stats.accepted, stats.attempts);
  EXPECT_LE(stats.final_distance, stats.initial_distance + 1e-9);
}

/// Byte-identical runs: the same edge list (same edges, same ids, same
/// endpoint order) and every RewireStats field equal, bit for bit (the
/// distances and curve values are doubles).
void ExpectSameRun(const Graph& g, const RewireStats& stats,
                   const Graph& ref_g, const RewireStats& ref,
                   const std::string& label) {
  ASSERT_EQ(g.NumEdges(), ref_g.NumEdges()) << label;
  for (EdgeId e = 0; e < ref_g.NumEdges(); ++e) {
    ASSERT_EQ(g.edge(e).u, ref_g.edge(e).u) << "edge " << e << ", " << label;
    ASSERT_EQ(g.edge(e).v, ref_g.edge(e).v) << "edge " << e << ", " << label;
  }
  EXPECT_EQ(stats.attempts, ref.attempts) << label;
  EXPECT_EQ(stats.accepted, ref.accepted) << label;
  EXPECT_EQ(stats.initial_distance, ref.initial_distance) << label;
  EXPECT_EQ(stats.final_distance, ref.final_distance) << label;
  EXPECT_EQ(stats.rounds, ref.rounds) << label;
  EXPECT_EQ(stats.evaluated, ref.evaluated) << label;
  EXPECT_EQ(stats.conflicts, ref.conflicts) << label;
  EXPECT_EQ(stats.reevaluated, ref.reevaluated) << label;
  EXPECT_EQ(stats.stopped_early, ref.stopped_early) << label;
  ASSERT_EQ(stats.curve.size(), ref.curve.size()) << label;
  for (std::size_t i = 0; i < ref.curve.size(); ++i) {
    EXPECT_EQ(stats.curve[i].attempts, ref.curve[i].attempts) << label;
    EXPECT_EQ(stats.curve[i].objective, ref.curve[i].objective) << label;
    EXPECT_EQ(stats.curve[i].clustering_global,
              ref.curve[i].clustering_global)
        << label;
    EXPECT_EQ(stats.curve[i].components, ref.curve[i].components) << label;
    EXPECT_EQ(stats.curve[i].lcc, ref.curve[i].lcc) << label;
  }
}

/// Seeded generator matrix the property suite runs over: three models x
/// two protection regimes, all CI-sized.
struct MatrixCase {
  const char* model;
  std::uint64_t seed;
  double protect_fraction;
};

Graph BuildCase(const MatrixCase& c) {
  Rng rng(c.seed);
  if (std::string(c.model) == "powerlaw") {
    return GeneratePowerlawCluster(250, 3, 0.4, rng);
  }
  if (std::string(c.model) == "er") {
    return GenerateErdosRenyiGnm(250, 900, rng);
  }
  return GenerateCommunityGraph(240, 4, 3, 0.4, 6, rng);
}

TEST(ParallelRewireTest, PropertyMatrixKeepsInvariants) {
  const std::array<MatrixCase, 6> matrix = {
      MatrixCase{"powerlaw", 101, 0.0}, MatrixCase{"powerlaw", 102, 0.5},
      MatrixCase{"er", 103, 0.0},       MatrixCase{"er", 104, 0.3},
      MatrixCase{"community", 105, 0.0}, MatrixCase{"community", 106, 0.4}};
  for (const MatrixCase& c : matrix) {
    const Graph before = BuildCase(c);
    const auto num_protected = static_cast<std::size_t>(
        c.protect_fraction * static_cast<double>(before.NumEdges()));
    std::vector<double> target(before.MaxDegree() + 1, 0.3);

    RewireOptions options;
    options.rewiring_coefficient = 15.0;

    Graph g = before;
    ParallelRewireOptions parallel;
    parallel.batch_size = 64;
    const RewireStats stats = RewireToClusteringParallel(
        g, num_protected, target, options, parallel, c.seed + 2000);
    ExpectRewireInvariants(before, g, num_protected, stats);
    // The degree-matched 2-swap family preserves the JDM exactly.
    EXPECT_EQ(ExtractJointDegreeMatrix(before).counts(),
              ExtractJointDegreeMatrix(g).counts())
        << c.model << " seed " << c.seed;
    EXPECT_EQ(stats.rounds, (stats.attempts + 63) / 64);  // ceil(R / batch)
    EXPECT_LE(stats.evaluated, stats.attempts);
  }
}

TEST(ParallelRewireTest, ByteIdenticalAcrossThreadCounts) {
  // Scoring workers claim contiguous chunks of ⌈batch / threads⌉
  // proposals. Batches that do not divide evenly leave a partial last
  // chunk (and, with R not a multiple of the batch, a partial last
  // round); batch 257 also tracks properties. None of it may show in the
  // result.
  Rng gen_rng(7);
  const Graph before = GeneratePowerlawCluster(300, 3, 0.5, gen_rng);
  std::vector<double> target(before.MaxDegree() + 1, 0.25);
  for (const std::size_t batch : {128u, 65u, 257u, 1u, 63u}) {
    RewireOptions options;
    options.rewiring_coefficient = 25.0;
    options.track_properties = batch == 257;
    ParallelRewireOptions parallel;
    parallel.batch_size = batch;
    parallel.threads = 1;
    Graph reference = before;
    const RewireStats ref = RewireToClusteringParallel(
        reference, 0, target, options, parallel, /*seed=*/0xD00D);
    // The run must do real work for the comparison to mean anything.
    EXPECT_GT(ref.accepted, 0u) << "batch " << batch;
    for (const std::size_t threads : {2u, 3u, 4u, 8u}) {
      parallel.threads = threads;
      Graph g = before;
      const RewireStats stats = RewireToClusteringParallel(
          g, 0, target, options, parallel, /*seed=*/0xD00D);
      ExpectSameRun(g, stats, reference, ref,
                    "batch " + std::to_string(batch) + ", threads " +
                        std::to_string(threads));
    }
  }
}

TEST(ParallelRewireTest, MovesClusteringTowardTarget) {
  // Scramble first, then rewire back toward the original clustering
  // profile.
  Rng gen_rng(8);
  Graph g = GeneratePowerlawCluster(400, 3, 0.6, gen_rng);
  const std::vector<double> target = ExtractDegreeDependentClustering(g);

  RewireOptions scramble;
  scramble.rewiring_coefficient = 30.0;
  std::vector<double> low(g.MaxDegree() + 1, 0.005);
  ParallelRewireOptions parallel;
  parallel.batch_size = 256;
  parallel.threads = 2;
  RewireToClusteringParallel(g, 0, low, scramble, parallel, /*seed=*/9);
  const double gap_before =
      NormalizedL1(target, ExtractDegreeDependentClustering(g));

  RewireOptions options;
  options.rewiring_coefficient = 100.0;
  const RewireStats stats = RewireToClusteringParallel(
      g, 0, target, options, parallel, /*seed=*/0xC0FFEE);
  const double gap_after =
      NormalizedL1(target, ExtractDegreeDependentClustering(g));
  EXPECT_LT(gap_after, 0.7 * gap_before);
  EXPECT_GT(stats.accepted, 0u);
}

TEST(ParallelRewireTest, FinalDistanceMatchesFreshComputation) {
  Rng gen_rng(10);
  Graph g = GeneratePowerlawCluster(250, 3, 0.5, gen_rng);
  std::vector<double> target(g.MaxDegree() + 1, 0.25);
  RewireOptions options;
  options.rewiring_coefficient = 20.0;
  ParallelRewireOptions parallel;
  parallel.batch_size = 32;
  const RewireStats stats = RewireToClusteringParallel(
      g, 0, target, options, parallel, /*seed=*/77);
  const double expected =
      NormalizedL1(target, ExtractDegreeDependentClustering(g));
  EXPECT_NEAR(stats.final_distance, expected, 1e-6);
}

TEST(ParallelRewireTest, ConflictPathIsExercisedAndCounted) {
  // A small dense graph with a huge batch maximizes intra-round
  // collisions: commits must invalidate or re-derive later proposals of
  // the same round. Deterministic by construction, so the expectation is
  // stable.
  Rng gen_rng(11);
  Graph g = GeneratePowerlawCluster(80, 4, 0.6, gen_rng);
  std::vector<double> target(g.MaxDegree() + 1, 0.02);
  RewireOptions options;
  options.rewiring_coefficient = 50.0;
  ParallelRewireOptions parallel;
  parallel.batch_size = 2048;
  const RewireStats stats = RewireToClusteringParallel(
      g, 0, target, options, parallel, /*seed=*/0xFACE);
  EXPECT_GT(stats.accepted, 0u);
  EXPECT_GT(stats.reevaluated, 0u);
  EXPECT_LE(stats.accepted, stats.attempts);
}

TEST(ParallelRewireTest, ToleratesLoopsAndMultiEdgesAmongCandidates) {
  Rng gen_rng(20);
  Graph g = GeneratePowerlawCluster(150, 3, 0.4, gen_rng);
  g.AddEdge(0, 0);
  g.AddEdge(1, 2);
  g.AddEdge(1, 2);  // parallel
  g.AddEdge(5, 5);
  const Graph before = g;

  std::vector<double> target(g.MaxDegree() + 1, 0.2);
  RewireOptions options;
  options.rewiring_coefficient = 40.0;
  ParallelRewireOptions parallel;
  parallel.batch_size = 64;
  parallel.threads = 2;
  const RewireStats stats = RewireToClusteringParallel(
      g, 0, target, options, parallel, /*seed=*/21);
  ExpectRewireInvariants(before, g, 0, stats);
}

TEST(ParallelRewireTest, ZeroBatchFallsBackToDefault) {
  Rng gen_rng(30);
  Graph g = GeneratePowerlawCluster(120, 3, 0.3, gen_rng);
  std::vector<double> target(g.MaxDegree() + 1, 0.1);
  RewireOptions options;
  options.rewiring_coefficient = 5.0;
  ParallelRewireOptions parallel;  // batch_size = 0
  const RewireStats stats = RewireToClusteringParallel(
      g, 0, target, options, parallel, /*seed=*/3);
  EXPECT_EQ(stats.rounds, (stats.attempts + kDefaultRewireBatch - 1) /
                              kDefaultRewireBatch);
}

TEST(ParallelRewireTest, ProtectingMoreEdgesThanExistIsANoOp) {
  // num_protected_edges > |E~| used to underflow the candidate count and
  // request ~2^64 attempts.
  Rng gen_rng(50);
  Graph g = GeneratePowerlawCluster(60, 3, 0.3, gen_rng);
  const Graph before = g;
  std::vector<double> target(g.MaxDegree() + 1, 0.5);
  RewireOptions options;
  ParallelRewireOptions parallel;
  parallel.batch_size = 16;
  for (const std::size_t num_protected :
       {g.NumEdges(), g.NumEdges() + 1, g.NumEdges() + 1000}) {
    const RewireStats stats = RewireToClusteringParallel(
        g, num_protected, target, options, parallel, /*seed=*/52);
    EXPECT_EQ(stats.attempts, 0u);
    EXPECT_EQ(stats.accepted, 0u);
    EXPECT_EQ(stats.rounds, 0u);
    EXPECT_EQ(stats.initial_distance, 0.0);
  }
  // The graph is untouched.
  for (EdgeId e = 0; e < before.NumEdges(); ++e) {
    EXPECT_EQ(g.edge(e).u, before.edge(e).u);
    EXPECT_EQ(g.edge(e).v, before.edge(e).v);
  }
}

TEST(ParallelRewireTest, TrackedParallelRewireByteIdenticalAcrossThreads) {
  Rng gen_rng(7);
  const Graph before = GeneratePowerlawCluster(300, 3, 0.5, gen_rng);
  std::vector<double> target(before.MaxDegree() + 1, 0.25);
  RewireOptions options;
  options.rewiring_coefficient = 25.0;
  options.track_properties = true;
  ParallelRewireOptions parallel;
  parallel.batch_size = 128;
  parallel.threads = 1;

  Graph reference = before;
  const RewireStats ref = RewireToClusteringParallel(
      reference, 0, target, options, parallel, /*seed=*/0xD00D);
  ASSERT_EQ(kConvergenceSamples, ref.curve.size());
  EXPECT_GT(ref.accepted, 0u);
  for (const std::size_t threads : {2u, 8u}) {
    parallel.threads = threads;
    Graph g = before;
    const RewireStats stats = RewireToClusteringParallel(
        g, 0, target, options, parallel, /*seed=*/0xD00D);
    ExpectSameRun(g, stats, reference, ref,
                  "threads " + std::to_string(threads));
  }
}

TEST(ParallelRewireTest, TrackingIsPureObservationBatched) {
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

  // Everything but the curve itself matches the untracked run.
  RewireStats without_curve = stats_tracked;
  without_curve.curve.clear();
  ExpectSameRun(g_tracked, without_curve, g_plain, stats_plain,
                "tracked vs untracked");
  EXPECT_TRUE(stats_plain.curve.empty());
  EXPECT_FALSE(stats_plain.stopped_early);
  ASSERT_EQ(kConvergenceSamples, stats_tracked.curve.size());
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

TEST(ParallelRewireTest, AdaptiveStopHaltsBatched) {
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
  parallel.threads = 1;
  Graph g_stop = before;
  const RewireStats stopped = RewireToClusteringParallel(
      g_stop, 0, target, stopping, parallel, /*seed=*/0x57A7);
  EXPECT_TRUE(stopped.stopped_early);
  EXPECT_GT(stopped.attempts, 0u);
  EXPECT_LT(stopped.attempts, ref.attempts);
  ASSERT_EQ(kConvergenceSamples, stopped.curve.size());
  EXPECT_LE(stopped.final_distance, stopping.stop_epsilon + 1e-9);

  parallel.threads = 4;
  Graph g_stop4 = before;
  const RewireStats stopped4 = RewireToClusteringParallel(
      g_stop4, 0, target, stopping, parallel, /*seed=*/0x57A7);
  ExpectSameRun(g_stop4, stopped4, g_stop, stopped, "threads 4");

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

// ---------------------------------------------------------------------------
// Golden convergence curves. The digests below were recorded on the
// engine that kept a second, incrementally updated copy of the multigraph
// for its samples; they pin every sample of every curve bit for bit.

/// FNV-1a digest of a convergence curve: every field of every sample,
/// the doubles by their bit patterns.
std::uint64_t CurveFingerprint(const std::vector<ConvergenceSample>& curve) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffu;
      h *= 1099511628211ULL;
    }
  };
  const auto bits = [](double x) {
    std::uint64_t b = 0;
    std::memcpy(&b, &x, sizeof b);
    return b;
  };
  mix(curve.size());
  for (const ConvergenceSample& s : curve) {
    mix(s.attempts);
    mix(bits(s.objective));
    mix(bits(s.clustering_global));
    mix(s.components);
    mix(s.lcc);
  }
  return h;
}

/// Runs one tracked rewire of `g` in place, checks that 4 workers
/// reproduce it and that the last sample describes the returned graph
/// exactly (c̄, component count and LCC size recomputed from scratch),
/// and returns the run's stats.
RewireStats TrackedRun(Graph& g, std::size_t num_protected, double target,
                       double rc, std::size_t batch, double stop_epsilon,
                       std::uint64_t seed, const std::string& label) {
  const std::vector<double> targets(g.MaxDegree() + 1, target);
  RewireOptions options;
  options.rewiring_coefficient = rc;
  options.track_properties = true;
  options.stop_epsilon = stop_epsilon;
  ParallelRewireOptions parallel;
  parallel.batch_size = batch;
  Graph threaded = g;
  const RewireStats stats = RewireToClusteringParallel(
      g, num_protected, targets, options, parallel, seed);
  parallel.threads = 4;
  const RewireStats threaded_stats = RewireToClusteringParallel(
      threaded, num_protected, targets, options, parallel, seed);
  ExpectSameRun(threaded, threaded_stats, g, stats, label + ", threads 4");

  EXPECT_EQ(kConvergenceSamples, stats.curve.size()) << label;
  if (stats.curve.empty()) return stats;
  const ConvergenceSample& last = stats.curve.back();
  EXPECT_EQ(last.clustering_global, NetworkClusteringCoefficient(g))
      << label;
  const ComponentsResult components = ConnectedComponents(g);
  EXPECT_EQ(last.components, CountComponents(g)) << label;
  EXPECT_EQ(last.lcc, components.sizes[components.largest]) << label;
  return stats;
}

/// Arbitrary-orientation 2-swaps of two distinct edges: degree
/// preserving but not degree matched, so a cycle shatters into shorter
/// cycles, 2-cycles and loops.
void ChurnSwaps(Graph& g, std::uint64_t seed, std::size_t swaps) {
  Rng rng(seed);
  std::size_t applied = 0;
  while (applied < swaps) {
    const EdgeId e1 = rng.NextIndex(g.NumEdges());
    const EdgeId e2 = rng.NextIndex(g.NumEdges());
    if (e1 == e2) continue;
    const Edge first = g.edge(e1);
    const Edge second = g.edge(e2);
    const bool flip1 = rng.NextBernoulli(0.5);
    const bool flip2 = rng.NextBernoulli(0.5);
    const NodeId i = flip1 ? first.v : first.u;
    const NodeId j = flip1 ? first.u : first.v;
    const NodeId a = flip2 ? second.v : second.u;
    const NodeId b = flip2 ? second.u : second.v;
    g.ReplaceEdge(e1, i, b);
    g.ReplaceEdge(e2, a, j);
    ++applied;
  }
}

/// True when the component count differs between two samples of the
/// curve.
bool ComponentsMove(const RewireStats& stats) {
  const auto [low, high] = std::minmax_element(
      stats.curve.begin(), stats.curve.end(),
      [](const ConvergenceSample& a, const ConvergenceSample& b) {
        return a.components < b.components;
      });
  return low != stats.curve.end() && low->components < high->components;
}

TEST(ParallelRewireTest, TrackedCurvesMatchRecordedFingerprints) {
  // A heavy-tailed clustered graph, part of it protected.
  Rng powerlaw_rng(7);
  Graph powerlaw = GeneratePowerlawCluster(300, 3, 0.5, powerlaw_rng);
  const RewireStats powerlaw_stats =
      TrackedRun(powerlaw, 200, 0.25, 25.0, 32, 0.0, 0xD00D, "powerlaw");
  EXPECT_EQ(CurveFingerprint(powerlaw_stats.curve), 16115036873068089418u);

  // A dense multigraph with loops and parallel edges: swaps keep creating
  // and destroying both.
  Graph multigraph = GenerateComplete(10);
  multigraph.AddEdge(0, 0);
  multigraph.AddEdge(1, 1);
  multigraph.AddEdge(2, 3);
  multigraph.AddEdge(2, 3);
  const RewireStats multigraph_stats =
      TrackedRun(multigraph, 0, 0.3, 40.0, 32, 0.0, 0xB00C, "multigraph");
  EXPECT_EQ(CurveFingerprint(multigraph_stats.curve), 14481842429259137328u);

  // A churned cycle: rewiring toward c̄(2) = 0.6 closes triangles and
  // splits off components; rewiring back toward 0.05 reopens them and
  // merges components again.
  Graph cycle = GenerateCycle(48);
  ChurnSwaps(cycle, 0xC0C0, 40);
  const RewireStats split_stats =
      TrackedRun(cycle, 0, 0.6, 40.0, 1, 0.0, 0x5B17, "cycle split");
  EXPECT_EQ(CurveFingerprint(split_stats.curve), 17407323054556202288u);
  const RewireStats merge_stats =
      TrackedRun(cycle, 0, 0.05, 4.0, 1, 0.0, 0x3E6E, "cycle merge");
  EXPECT_EQ(CurveFingerprint(merge_stats.curve), 10458653538259104625u);
  // The cycle runs must actually change the component count.
  EXPECT_TRUE(ComponentsMove(split_stats));
  EXPECT_TRUE(ComponentsMove(merge_stats));

  // An adaptive stop: the curve is padded with the final state.
  Rng stop_rng(15);
  Graph stopping = GeneratePowerlawCluster(250, 3, 0.6, stop_rng);
  const RewireStats stop_stats =
      TrackedRun(stopping, 0, 0.05, 30.0, 32, 0.65, 0x57A7, "stop");
  EXPECT_TRUE(stop_stats.stopped_early);
  EXPECT_EQ(CurveFingerprint(stop_stats.curve), 2534305040349912598u);
}

}  // namespace
}  // namespace sgr
