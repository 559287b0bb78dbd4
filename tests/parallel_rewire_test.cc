#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/l1.h"
#include "dk/dk_extract.h"
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

}  // namespace
}  // namespace sgr
