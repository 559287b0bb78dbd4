#include "dk/joint_degree_matrix.h"

#include <gtest/gtest.h>

namespace sgr {
namespace {

TEST(JdmTest, AddSymmetricMaintainsBothOrderings) {
  JointDegreeMatrix m;
  m.AddSymmetric(2, 5, 3);
  EXPECT_EQ(m.At(2, 5), 3);
  EXPECT_EQ(m.At(5, 2), 3);
  EXPECT_EQ(m.At(5, 5), 0);
}

TEST(JdmTest, DiagonalIsSingleEntry) {
  JointDegreeMatrix m;
  m.AddSymmetric(4, 4, 2);
  EXPECT_EQ(m.At(4, 4), 2);
  EXPECT_EQ(m.counts().size(), 1u);
}

TEST(JdmTest, ZeroEntriesAreErased) {
  JointDegreeMatrix m;
  m.AddSymmetric(1, 2, 2);
  m.AddSymmetric(1, 2, -2);
  EXPECT_TRUE(m.counts().empty());
}

TEST(JdmTest, SetSymmetricOverwrites) {
  JointDegreeMatrix m;
  m.SetSymmetric(3, 7, 5);
  m.SetSymmetric(3, 7, 1);
  EXPECT_EQ(m.At(7, 3), 1);
  m.SetSymmetric(3, 7, 0);
  EXPECT_TRUE(m.counts().empty());
}

TEST(JdmTest, RowSumUsesMuFactor) {
  JointDegreeMatrix m;
  m.AddSymmetric(2, 2, 3);  // diagonal: µ = 2
  m.AddSymmetric(2, 5, 4);  // off-diagonal: µ = 1
  EXPECT_EQ(m.RowSums(9), (std::vector<std::int64_t>{
                              0, 0, 2 * 3 + 4, 0, 0, 4, 0, 0, 0, 0}));
}

TEST(JdmTest, TotalEdgesCountsUnorderedPairs) {
  JointDegreeMatrix m;
  m.AddSymmetric(1, 2, 3);
  m.AddSymmetric(2, 2, 5);
  EXPECT_EQ(m.TotalEdges(), 8);
}

TEST(JdmTest, MaxDegree) {
  JointDegreeMatrix m;
  EXPECT_EQ(m.MaxDegree(), 0u);
  m.AddSymmetric(3, 11, 1);
  EXPECT_EQ(m.MaxDegree(), 11u);
}

TEST(JdmTest, Jdm3AgainstDegreeVector) {
  // Path P3: degrees 1,2,1. m(1,2) = 2.
  JointDegreeMatrix m;
  m.AddSymmetric(1, 2, 2);
  const DegreeVector dv = {0, 2, 1};
  EXPECT_TRUE(m.SatisfiesJdm3(dv));
  // Wrong vector: fails.
  const DegreeVector bad = {0, 3, 1};
  EXPECT_FALSE(m.SatisfiesJdm3(bad));
}

TEST(JdmTest, Jdm3WithDiagonal) {
  // Triangle K3: degrees 2,2,2; m(2,2) = 3; s(2) = 6 = 2 * 3.
  JointDegreeMatrix m;
  m.AddSymmetric(2, 2, 3);
  EXPECT_TRUE(m.SatisfiesJdm3({0, 0, 3}));
}

TEST(JdmTest, DominatesComparesEntrywise) {
  JointDegreeMatrix hi;
  hi.AddSymmetric(1, 2, 3);
  hi.AddSymmetric(2, 2, 1);
  JointDegreeMatrix lo;
  lo.AddSymmetric(1, 2, 2);
  EXPECT_TRUE(hi.Dominates(lo));
  EXPECT_FALSE(lo.Dominates(hi));
  lo.AddSymmetric(3, 3, 1);
  EXPECT_FALSE(hi.Dominates(lo));
}

TEST(JdmTest, SymmetryInvariant) {
  JointDegreeMatrix m;
  m.AddSymmetric(1, 4, 2);
  m.AddSymmetric(4, 4, 1);
  m.AddSymmetric(1, 1, 7);
  EXPECT_TRUE(m.SatisfiesJdm1());
  EXPECT_TRUE(m.SatisfiesJdm2());
}

}  // namespace
}  // namespace sgr
