#include "linalg/matrix_util.h"

#include <cmath>

#include <gtest/gtest.h>

#include "stats/rng.h"

namespace randrecon {
namespace linalg {
namespace {

TEST(MatrixUtilTest, Trace) {
  Matrix a{{1, 9}, {9, 2}};
  EXPECT_DOUBLE_EQ(Trace(a), 3.0);
}

TEST(MatrixUtilDeathTest, TraceOfNonSquareAborts) {
  Matrix a(2, 3);
  EXPECT_DEATH({ Trace(a); }, "square");
}

TEST(MatrixUtilTest, FrobeniusNorm) {
  Matrix a{{3, 0}, {0, 4}};
  EXPECT_DOUBLE_EQ(FrobeniusNorm(a), 5.0);
  EXPECT_DOUBLE_EQ(FrobeniusNorm(Matrix(3, 3)), 0.0);
}

TEST(MatrixUtilTest, MaxAbsDifference) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{1, 2.5}, {2, 4}};
  EXPECT_DOUBLE_EQ(MaxAbsDifference(a, b), 1.0);
  EXPECT_DOUBLE_EQ(MaxAbsDifference(a, a), 0.0);
}

TEST(MatrixUtilTest, IsSymmetric) {
  EXPECT_TRUE(IsSymmetric(Matrix{{1, 2}, {2, 1}}));
  EXPECT_FALSE(IsSymmetric(Matrix{{1, 2}, {3, 1}}));
  EXPECT_FALSE(IsSymmetric(Matrix(2, 3)));
  // Tolerance is honored.
  EXPECT_TRUE(IsSymmetric(Matrix{{1, 2.0}, {2.0 + 1e-12, 1}}, 1e-9));
}

TEST(MatrixUtilTest, Symmetrize) {
  Matrix a{{1, 4}, {2, 1}};
  Matrix s = Symmetrize(a);
  EXPECT_DOUBLE_EQ(s(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(s(1, 0), 3.0);
  EXPECT_TRUE(IsSymmetric(s, 0.0));
}

TEST(MatrixUtilTest, HasOrthonormalColumns) {
  EXPECT_TRUE(HasOrthonormalColumns(Matrix::Identity(4)));
  Matrix scaled = Matrix::Identity(3) * 2.0;
  EXPECT_FALSE(HasOrthonormalColumns(scaled));
}

TEST(MatrixUtilTest, CovarianceToCorrelation) {
  Matrix cov{{4.0, 2.0}, {2.0, 9.0}};
  Matrix corr = CovarianceToCorrelation(cov);
  EXPECT_DOUBLE_EQ(corr(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(corr(1, 1), 1.0);
  EXPECT_NEAR(corr(0, 1), 2.0 / 6.0, 1e-12);
  EXPECT_NEAR(corr(1, 0), 2.0 / 6.0, 1e-12);
}

TEST(MatrixUtilTest, CovarianceToCorrelationZeroVariance) {
  Matrix cov{{0.0, 0.0}, {0.0, 4.0}};
  Matrix corr = CovarianceToCorrelation(cov);
  EXPECT_DOUBLE_EQ(corr(0, 0), 1.0);  // Diagonal pinned to 1 by convention.
  EXPECT_DOUBLE_EQ(corr(0, 1), 0.0);
}

TEST(MatrixUtilTest, CorrelationBoundsOnRandomCovariance) {
  stats::Rng rng(5);
  Matrix g = rng.GaussianMatrix(6, 6);
  Matrix cov = Symmetrize(g * g.Transpose());
  Matrix corr = CovarianceToCorrelation(cov);
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = 0; j < 6; ++j) {
      EXPECT_LE(std::fabs(corr(i, j)), 1.0 + 1e-12);
    }
  }
}

}  // namespace
}  // namespace linalg
}  // namespace randrecon
