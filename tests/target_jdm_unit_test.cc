// Surgical unit tests of the target-JDM machinery (Algorithms 3-4) on
// hand-crafted estimates, complementing the randomized sweeps in
// target_jdm_test.cc: each case isolates one branch of the adjustment /
// modification logic.

#include <cstdint>

#include <gtest/gtest.h>

#include "dk/dk_construct.h"
#include "estimation/estimators.h"
#include "graph/generators.h"
#include "restore/target_degree_vector.h"
#include "restore/target_jdm.h"
#include "sampling/random_walk.h"
#include "sampling/subgraph.h"
#include "util/sorted_keys.h"

namespace sgr {
namespace {

/// Estimates describing an exactly realizable world: 4 nodes of degree 1,
/// 2 of degree 2 (n = 6, 2m = 8, k̄ = 4/3), edges (1,2) x 4... built so
/// initialization lands exactly on a consistent matrix.
LocalEstimates ConsistentEstimates() {
  LocalEstimates est;
  est.num_nodes = 6.0;
  est.average_degree = 8.0 / 6.0;
  est.degree_dist = {0.0, 4.0 / 6.0, 2.0 / 6.0};
  // Graph: two paths 1-2-1: m(1,2) = 4. P(1,2) = m/2m = 0.5 per ordering.
  est.joint_dist.SetSymmetric(1, 2, 0.5);
  return est;
}

TEST(TargetJdmUnitTest, ConsistentEstimatesPassUnchanged) {
  LocalEstimates est = ConsistentEstimates();
  DegreeVector n_star = {0, 4, 2};
  Rng rng(1);
  const JointDegreeMatrix m_star =
      BuildTargetJdmFromEstimates(est, n_star, rng);
  EXPECT_EQ(m_star.At(1, 2), 4);
  EXPECT_EQ(m_star.TotalEdges(), 4);
  EXPECT_EQ(n_star, (DegreeVector{0, 4, 2}));  // untouched
  EXPECT_TRUE(m_star.SatisfiesJdm3(n_star));
}

TEST(TargetJdmUnitTest, RowDeficitFilledViaDegreeOne) {
  // Degree-3 row underfilled: the adjuster must raise it using the
  // always-available degree-1 column (D'+ contains 1).
  LocalEstimates est;
  est.num_nodes = 8.0;
  est.average_degree = 1.5;  // 2m = 12
  est.degree_dist = {0.0, 5.0 / 8.0, 0.0, 3.0 / 8.0};
  // Deliberately too-small joint mass on (1,3).
  est.joint_dist.SetSymmetric(1, 3, 0.2);  // m̂(1,3) = 12*0.2 = 2.4 -> 2
  DegreeVector n_star = {0, 5, 0, 3};      // s*(1) = 5, s*(3) = 9
  Rng rng(2);
  const JointDegreeMatrix m_star =
      BuildTargetJdmFromEstimates(est, n_star, rng);
  EXPECT_TRUE(m_star.SatisfiesJdm1());
  EXPECT_TRUE(m_star.SatisfiesJdm2());
  EXPECT_TRUE(m_star.SatisfiesJdm3(n_star));
  // The degree vector may have grown, but never shrunk.
  EXPECT_GE(n_star[1], 5);
  EXPECT_GE(n_star[3], 3);
}

TEST(TargetJdmUnitTest, DegreeOneParityHandledByGrowth) {
  // Only degree 1 exists and the initial s(1) has odd distance to s*(1):
  // lines 2-3 of Algorithm 3 must grow n*(1) to make the gap even, then
  // close it via m(1,1).
  LocalEstimates est;
  est.num_nodes = 5.0;
  est.average_degree = 1.0;
  est.degree_dist = {0.0, 1.0};
  est.joint_dist.SetSymmetric(1, 1, 1.0);  // m̂(1,1) = 5*1/2 = 2.5 -> 2
  DegreeVector n_star = {0, 5};            // s*(1) = 5, s(1) = 4: odd gap
  Rng rng(3);
  const JointDegreeMatrix m_star =
      BuildTargetJdmFromEstimates(est, n_star, rng);
  EXPECT_TRUE(m_star.SatisfiesJdm3(n_star));
  EXPECT_EQ(n_star[1] % 2, 0);  // grown to even total degree
}

TEST(TargetJdmUnitTest, ModificationLiftsEntriesToSubgraphFloor) {
  // The estimates see no (2,3) edges but the subgraph contains two: the
  // modification step must lift m*(2,3) to >= 2 while keeping JDM-1/2 and
  // restoring JDM-3 via the re-adjustment.
  LocalEstimates est;
  est.num_nodes = 12.0;
  est.average_degree = 2.5;  // 2m = 30
  est.degree_dist = {0.0, 0.25, 0.375, 0.375};
  est.joint_dist.SetSymmetric(1, 2, 0.2);
  est.joint_dist.SetSymmetric(1, 3, 0.2);
  est.joint_dist.SetSymmetric(2, 2, 0.1);
  est.joint_dist.SetSymmetric(3, 3, 0.2);
  DegreeVector n_star = {0, 3, 5, 4};

  JointDegreeMatrix m_prime;
  m_prime.SetSymmetric(2, 3, 2);

  Rng rng(4);
  const JointDegreeMatrix m_star =
      BuildTargetJdm(est, n_star, m_prime, rng);
  EXPECT_GE(m_star.At(2, 3), 2);
  EXPECT_TRUE(m_star.SatisfiesJdm1());
  EXPECT_TRUE(m_star.SatisfiesJdm2());
  EXPECT_TRUE(m_star.SatisfiesJdm3(n_star));
  EXPECT_TRUE(m_star.Dominates(m_prime));
}

TEST(TargetJdmUnitTest, LowerLimitsRespectedDuringReadjustment) {
  // Force the re-adjustment path with a large subgraph floor on the
  // diagonal: the floor must survive (JDM-4) even while row sums are
  // rebalanced.
  LocalEstimates est;
  est.num_nodes = 10.0;
  est.average_degree = 2.0;  // 2m = 20
  est.degree_dist = {0.0, 0.5, 0.5};
  est.joint_dist.SetSymmetric(1, 2, 0.3);
  est.joint_dist.SetSymmetric(2, 2, 0.4);
  DegreeVector n_star = {0, 5, 5};

  JointDegreeMatrix m_prime;
  m_prime.SetSymmetric(2, 2, 5);  // well above the estimate's ~2

  Rng rng(5);
  const JointDegreeMatrix m_star =
      BuildTargetJdm(est, n_star, m_prime, rng);
  EXPECT_GE(m_star.At(2, 2), 5);
  EXPECT_TRUE(m_star.SatisfiesJdm3(n_star));
  EXPECT_TRUE(m_star.Dominates(m_prime));
}

TEST(TargetJdmUnitTest, InitializationGuaranteesPositiveEntries) {
  // P̂(k,k') > 0 forces m*(k,k') >= 1 even when the rounded estimate is 0
  // (Section IV-C initialization: a positive estimate certifies at least
  // one such edge exists).
  LocalEstimates est;
  est.num_nodes = 100.0;
  est.average_degree = 2.0;
  est.degree_dist = {0.0, 0.99, 0.01};
  est.joint_dist.SetSymmetric(1, 1, 0.995);
  est.joint_dist.SetSymmetric(2, 2, 0.005);  // m̂ = 0.5 -> rounds to 1
  DegreeVector n_star = {0, 99, 1};
  Rng rng(6);
  const JointDegreeMatrix m_star =
      BuildTargetJdmFromEstimates(est, n_star, rng);
  EXPECT_GE(m_star.At(2, 2), 1);
}

// ---------------------------------------------------------------------------
// Golden fingerprints. Every tie BuildTargetJdm breaks is a PickRandom
// draw, so any change to the candidate scan order, the tie rule or the
// number of draws moves m*, n* or the RNG position. The digests below were
// recorded on the hash-scan implementation of Algorithms 3-4 and pin the
// indexed-row one to it bit for bit.

/// FNV-1a digest of m*'s entries (k <= k', ascending), the final n*, and
/// the next draw of the RNG that Algorithms 3-4 consumed.
std::uint64_t Fingerprint(const JointDegreeMatrix& m_star,
                          const DegreeVector& n_star, Rng& rng) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffu;
      h *= 1099511628211ULL;
    }
  };
  for (const std::uint64_t key : SortedKeys(m_star.counts())) {
    if ((key >> 32) > (key & 0xffffffffu)) continue;
    mix(key);
    mix(static_cast<std::uint64_t>(m_star.counts().at(key)));
  }
  mix(n_star.size());
  for (const std::int64_t n : n_star) mix(static_cast<std::uint64_t>(n));
  mix(rng.engine()());
  return h;
}

TEST(TargetJdmGoldenTest, RowWithoutJointMassTiesAtInfinity) {
  // Degrees 3 and 4 have nodes but no joint mass at all: every candidate
  // of their rows scores +infinity, so each unit is a uniform draw among
  // all of D ∩ [1, k].
  LocalEstimates est;
  est.num_nodes = 20.0;
  est.average_degree = 2.0;
  est.degree_dist = {0.0, 0.5, 0.3, 0.1, 0.1};
  est.joint_dist.SetSymmetric(1, 2, 0.4);
  est.joint_dist.SetSymmetric(2, 2, 0.1);
  DegreeVector n_star = {0, 10, 6, 2, 2};
  Rng rng(11);
  const JointDegreeMatrix m_star =
      BuildTargetJdmFromEstimates(est, n_star, rng);
  EXPECT_TRUE(m_star.SatisfiesJdm3(n_star));
  EXPECT_GT(m_star.RowSums(4)[4], 0);
  EXPECT_EQ(Fingerprint(m_star, n_star, rng), 3246624452183744015u);
}

TEST(TargetJdmGoldenTest, ReadjustAfterModification) {
  // Row 2 holds only m*(2,3) = 6, and the subgraph floor m'(2,3) = 7 sits
  // above it: raising the entry leaves no other entry of rows 2 or 3 above
  // its floor to compensate with, so the modification breaks JDM-3 and
  // the re-adjustment runs with m' as hard lower limits.
  LocalEstimates est;
  est.num_nodes = 9.0;
  est.average_degree = 2.0;
  est.degree_dist = {0.0, 4.0 / 9.0, 3.0 / 9.0, 2.0 / 9.0};
  est.joint_dist.SetSymmetric(2, 3, 1.0 / 3.0);  // m̂(2,3) = 6
  DegreeVector n_star = {0, 0, 3, 2};
  JointDegreeMatrix m_prime;
  m_prime.SetSymmetric(2, 3, 7);
  Rng rng(12);
  const JointDegreeMatrix m_star = BuildTargetJdm(est, n_star, m_prime, rng);
  EXPECT_TRUE(m_star.SatisfiesJdm3(n_star));
  EXPECT_TRUE(m_star.Dominates(m_prime));
  EXPECT_GT(n_star[3], 2);  // only the re-adjustment grows n*(3)
  EXPECT_EQ(Fingerprint(m_star, n_star, rng), 17088363032327915207u);
}

TEST(TargetJdmGoldenTest, DegreeOneParity) {
  // s(1) starts an odd distance from s*(1): lines 2-3 of Algorithm 3 grow
  // n*(1) before the row is closed through m(1,1) and m(1,2).
  LocalEstimates est;
  est.num_nodes = 9.0;
  est.average_degree = 1.5;
  est.degree_dist = {0.0, 6.0 / 9.0, 3.0 / 9.0};
  est.joint_dist.SetSymmetric(1, 1, 0.3);
  est.joint_dist.SetSymmetric(1, 2, 0.25);
  est.joint_dist.SetSymmetric(2, 2, 0.2);
  DegreeVector n_star = {0, 7, 3};
  JointDegreeMatrix m_prime;
  m_prime.SetSymmetric(1, 2, 3);
  Rng rng(13);
  const JointDegreeMatrix m_star = BuildTargetJdm(est, n_star, m_prime, rng);
  EXPECT_TRUE(m_star.SatisfiesJdm3(n_star));
  EXPECT_TRUE(m_star.Dominates(m_prime));
  EXPECT_EQ(n_star[1] % 2, 0);
  EXPECT_EQ(Fingerprint(m_star, n_star, rng), 17566836011185770616u);
}

TEST(TargetJdmGoldenTest, WalkDerivedHundredsOfDegrees) {
  // The pipeline's own inputs: a 10% random walk over a 12k-node
  // power-law graph, with k*_max in the hundreds so that Algorithm 4's
  // decrement scans run over long rows.
  Rng gen_rng(14);
  const Graph g = GeneratePowerlawCluster(12000, 4, 0.4, gen_rng);
  QueryOracle oracle(g);
  Rng walk_rng(15);
  const SamplingList walk = RandomWalkSample(oracle, 0, 1200, walk_rng);
  const Subgraph sub = BuildSubgraph(walk);
  const LocalEstimates est = EstimateLocalProperties(walk);
  Rng rng(16);
  TargetDegreeVectorResult dv = BuildTargetDegreeVector(sub, est, rng);
  const JointDegreeMatrix m_prime =
      SubgraphClassEdges(sub.graph, dv.subgraph_target_degrees);
  const JointDegreeMatrix m_star =
      BuildTargetJdm(est, dv.n_star, m_prime, rng);
  EXPECT_GE(dv.n_star.size(), 101u);
  EXPECT_TRUE(m_star.SatisfiesJdm3(dv.n_star));
  EXPECT_TRUE(m_star.Dominates(m_prime));
  EXPECT_EQ(Fingerprint(m_star, dv.n_star, rng), 13084857077878478614u);
}

}  // namespace
}  // namespace sgr
