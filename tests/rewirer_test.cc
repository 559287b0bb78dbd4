#include "restore/rewirer.h"

#include <gtest/gtest.h>

#include "analysis/l1.h"
#include "dk/dk_extract.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace sgr {
namespace {

/// Algorithm 6 at the paper's own schedule: one proposal per round, each
/// scored against the state its predecessor left. The batched engine's
/// larger rounds are covered by parallel_rewire_test.cc.
RewireStats RewirePaperSchedule(Graph& g, std::size_t num_protected_edges,
                                const std::vector<double>& target,
                                const RewireOptions& options,
                                std::uint64_t seed) {
  ParallelRewireOptions parallel;
  parallel.batch_size = 1;
  return RewireToClusteringParallel(g, num_protected_edges, target, options,
                                    parallel, seed);
}

TEST(RewirerTest, NoCandidatesIsNoOp) {
  Graph g = GenerateCycle(5);
  RewireOptions options;
  const RewireStats stats = RewirePaperSchedule(
      g, g.NumEdges(), {0.0, 0.0, 1.0}, options, /*seed=*/1);
  EXPECT_EQ(stats.attempts, 0u);
  EXPECT_EQ(stats.accepted, 0u);
}

TEST(RewirerTest, PreservesDegreeVectorAndJdm) {
  Rng gen_rng(2);
  Graph g = GeneratePowerlawCluster(300, 3, 0.4, gen_rng);
  const DegreeVector dv_before = ExtractDegreeVector(g);
  const JointDegreeMatrix jdm_before = ExtractJointDegreeMatrix(g);

  std::vector<double> target(g.MaxDegree() + 1, 0.3);
  RewireOptions options;
  options.rewiring_coefficient = 20.0;
  RewirePaperSchedule(g, 0, target, options, /*seed=*/3);

  EXPECT_EQ(ExtractDegreeVector(g), dv_before);
  const JointDegreeMatrix jdm_after = ExtractJointDegreeMatrix(g);
  for (const auto& [key, count] : jdm_before.counts()) {
    EXPECT_EQ(jdm_after.At(static_cast<std::uint32_t>(key >> 32),
                           static_cast<std::uint32_t>(key & 0xffffffffu)),
              count);
  }
}

TEST(RewirerTest, ProtectedEdgesAreNeverTouched) {
  Rng gen_rng(4);
  Graph g = GeneratePowerlawCluster(200, 3, 0.5, gen_rng);
  const std::size_t protected_count = g.NumEdges() / 2;
  std::vector<Edge> frozen(g.edges().begin(),
                           g.edges().begin() + protected_count);

  std::vector<double> target(g.MaxDegree() + 1, 0.0);  // push down
  RewireOptions options;
  options.rewiring_coefficient = 30.0;
  RewirePaperSchedule(g, protected_count, target, options, /*seed=*/5);

  for (std::size_t e = 0; e < protected_count; ++e) {
    EXPECT_EQ(g.edge(e).u, frozen[e].u);
    EXPECT_EQ(g.edge(e).v, frozen[e].v);
  }
}

TEST(RewirerTest, ObjectiveNeverIncreases) {
  Rng gen_rng(6);
  Graph g = GeneratePowerlawCluster(300, 3, 0.2, gen_rng);
  // Target far from present: high clustering everywhere.
  std::vector<double> target(g.MaxDegree() + 1, 0.5);
  RewireOptions options;
  options.rewiring_coefficient = 50.0;
  const RewireStats stats =
      RewirePaperSchedule(g, 0, target, options, /*seed=*/7);
  EXPECT_LE(stats.final_distance, stats.initial_distance + 1e-9);
}

TEST(RewirerTest, MovesClusteringTowardTarget) {
  // Start from a low-clustering graph, target the clustering of a
  // Holme-Kim graph with the same degree structure: rewiring should close
  // a substantial fraction of the gap.
  Rng gen_rng(8);
  Graph g = GeneratePowerlawCluster(400, 3, 0.6, gen_rng);
  const std::vector<double> target = ExtractDegreeDependentClustering(g);

  // Scramble: rewire toward a near-zero (but positive-mass) target first
  // to destroy clustering. An all-zero target would be a no-op: with
  // Σ ĉ̄ = 0 there is nothing to optimize.
  RewireOptions scramble;
  scramble.rewiring_coefficient = 30.0;
  std::vector<double> low(g.MaxDegree() + 1, 0.005);
  RewirePaperSchedule(g, 0, low, scramble, /*seed=*/9);
  const double gap_before = NormalizedL1(
      target, ExtractDegreeDependentClustering(g));

  RewireOptions options;
  options.rewiring_coefficient = 100.0;
  const RewireStats stats =
      RewirePaperSchedule(g, 0, target, options, /*seed=*/19);
  const double gap_after = NormalizedL1(
      target, ExtractDegreeDependentClustering(g));
  EXPECT_LT(gap_after, 0.7 * gap_before);
  EXPECT_GT(stats.accepted, 0u);
}

TEST(RewirerTest, FinalDistanceMatchesFreshComputation) {
  Rng gen_rng(10);
  Graph g = GeneratePowerlawCluster(250, 3, 0.5, gen_rng);
  std::vector<double> target(g.MaxDegree() + 1, 0.25);
  RewireOptions options;
  options.rewiring_coefficient = 20.0;
  const RewireStats stats =
      RewirePaperSchedule(g, 0, target, options, /*seed=*/11);

  // Recompute D from scratch and compare with the incrementally
  // maintained value.
  const std::vector<double> present = ExtractDegreeDependentClustering(g);
  const double expected = NormalizedL1(target, present);
  EXPECT_NEAR(stats.final_distance, expected, 1e-6);
}

TEST(RewirerTest, ToleratesLoopsAndMultiEdgesAmongCandidates) {
  // Generated graphs may contain self-loops and parallel edges (the
  // problem definition allows them); the rewirer must handle them without
  // corrupting degrees.
  Rng gen_rng(20);
  Graph g = GeneratePowerlawCluster(150, 3, 0.4, gen_rng);
  g.AddEdge(0, 0);
  g.AddEdge(1, 2);
  g.AddEdge(1, 2);  // parallel
  g.AddEdge(5, 5);
  const DegreeVector dv_before = ExtractDegreeVector(g);

  std::vector<double> target(g.MaxDegree() + 1, 0.2);
  RewireOptions options;
  options.rewiring_coefficient = 40.0;
  const RewireStats stats =
      RewirePaperSchedule(g, 0, target, options, /*seed=*/21);
  EXPECT_EQ(ExtractDegreeVector(g), dv_before);
  EXPECT_LE(stats.final_distance, stats.initial_distance + 1e-9);
}

TEST(RewirerTest, AttemptsFollowRcCoefficient) {
  Rng gen_rng(12);
  Graph g = GeneratePowerlawCluster(100, 3, 0.3, gen_rng);
  RewireOptions options;
  options.rewiring_coefficient = 7.0;
  const RewireStats stats =
      RewirePaperSchedule(g, 0, {0.0, 0.0, 0.1}, options, /*seed=*/13);
  EXPECT_EQ(stats.attempts, static_cast<std::size_t>(
                                7.0 * static_cast<double>(g.NumEdges())));
}

}  // namespace
}  // namespace sgr
