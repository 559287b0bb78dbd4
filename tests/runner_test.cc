#include "exp/runner.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "graph/generators.h"

namespace sgr {
namespace {

ExperimentConfig FastConfig() {
  ExperimentConfig config;
  config.query_fraction = 0.1;
  config.restoration.rewire.rewiring_coefficient = 5.0;
  return config;
}

TEST(RunnerTest, RunsAllSixMethods) {
  Rng rng(1);
  const Graph g = GeneratePowerlawCluster(400, 3, 0.4, rng);
  const GraphProperties props = ComputeProperties(g);
  const auto results = RunExperiment(g, props, FastConfig(), 42);
  ASSERT_EQ(results.size(), 6u);
  EXPECT_EQ(results[0].kind, MethodKind::kBfs);
  EXPECT_EQ(results[5].kind, MethodKind::kProposed);
  for (const auto& r : results) {
    EXPECT_GT(r.restoration.graph.NumNodes(), 0u) << MethodName(r.kind);
    EXPECT_GE(r.average_distance, 0.0);
  }
}

TEST(RunnerTest, MethodSubsetIsRespected) {
  Rng rng(2);
  const Graph g = GeneratePowerlawCluster(300, 3, 0.4, rng);
  const GraphProperties props = ComputeProperties(g);
  ExperimentConfig config = FastConfig();
  config.methods = {MethodKind::kRandomWalk, MethodKind::kProposed};
  const auto results = RunExperiment(g, props, config, 7);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].kind, MethodKind::kRandomWalk);
  EXPECT_EQ(results[1].kind, MethodKind::kProposed);
}

TEST(RunnerTest, ReproducibleWithSameSeed) {
  Rng rng(3);
  const Graph g = GeneratePowerlawCluster(300, 3, 0.4, rng);
  const GraphProperties props = ComputeProperties(g);
  ExperimentConfig config = FastConfig();
  config.methods = {MethodKind::kProposed};
  const auto a = RunExperiment(g, props, config, 11);
  const auto b = RunExperiment(g, props, config, 11);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0].restoration.graph.NumEdges(),
            b[0].restoration.graph.NumEdges());
  EXPECT_DOUBLE_EQ(a[0].average_distance, b[0].average_distance);
}

TEST(RunnerTest, DifferentSeedsGiveDifferentSamples) {
  Rng rng(4);
  const Graph g = GeneratePowerlawCluster(300, 3, 0.4, rng);
  const GraphProperties props = ComputeProperties(g);
  ExperimentConfig config = FastConfig();
  config.methods = {MethodKind::kRandomWalk};
  const auto a = RunExperiment(g, props, config, 1);
  const auto b = RunExperiment(g, props, config, 2);
  // Subgraphs from different walks almost surely differ in edge count.
  EXPECT_NE(a[0].restoration.graph.NumEdges() * 1000003u +
                a[0].restoration.graph.NumNodes(),
            b[0].restoration.graph.NumEdges() * 1000003u +
                b[0].restoration.graph.NumNodes());
}

TEST(RunnerTest, BudgetFollowsQueryFraction) {
  Rng rng(5);
  const Graph g = GeneratePowerlawCluster(500, 3, 0.4, rng);
  const GraphProperties props = ComputeProperties(g);
  ExperimentConfig config = FastConfig();
  config.query_fraction = 0.06;
  config.methods = {MethodKind::kRandomWalk};
  const auto results = RunExperiment(g, props, config, 9);
  EXPECT_EQ(results[0].restoration.subgraph_queried, 30u);
}

TEST(RunnerTest, EnvOrParsesAndFallsBack) {
  setenv("SGR_TEST_ENV_VALUE", "2.5", 1);
  EXPECT_DOUBLE_EQ(EnvOr("SGR_TEST_ENV_VALUE", 1.0), 2.5);
  unsetenv("SGR_TEST_ENV_VALUE");
  EXPECT_DOUBLE_EQ(EnvOr("SGR_TEST_ENV_VALUE", 1.0), 1.0);
  setenv("SGR_TEST_ENV_VALUE", "", 1);
  EXPECT_DOUBLE_EQ(EnvOr("SGR_TEST_ENV_VALUE", 3.0), 3.0);
  // A malformed value is an error naming the variable, never a silent
  // fallback or a numeric prefix.
  for (const char* bad : {"garbage", "2x", "-1", " 2"}) {
    setenv("SGR_TEST_ENV_VALUE", bad, 1);
    try {
      EnvOr("SGR_TEST_ENV_VALUE", 3.0);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("SGR_TEST_ENV_VALUE"),
                std::string::npos)
          << e.what();
    }
  }
  unsetenv("SGR_TEST_ENV_VALUE");
}

TEST(RunnerTest, EnvUintOrParsesCountsStrictly) {
  unsetenv("SGR_TEST_ENV_COUNT");
  EXPECT_EQ(EnvUintOr("SGR_TEST_ENV_COUNT", 4), 4u);
  setenv("SGR_TEST_ENV_COUNT", "", 1);
  EXPECT_EQ(EnvUintOr("SGR_TEST_ENV_COUNT", 4), 4u);
  setenv("SGR_TEST_ENV_COUNT", "12", 1);
  EXPECT_EQ(EnvUintOr("SGR_TEST_ENV_COUNT", 4), 12u);
  // "-1" must not wrap to 2^64 - 1, nor "2x" run as 2.
  for (const char* bad : {"-1", "2x", "2.5", "garbage"}) {
    setenv("SGR_TEST_ENV_COUNT", bad, 1);
    EXPECT_THROW(EnvUintOr("SGR_TEST_ENV_COUNT", 4), std::runtime_error)
        << bad;
  }
  unsetenv("SGR_TEST_ENV_COUNT");
}

}  // namespace
}  // namespace sgr
