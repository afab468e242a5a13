#include "linalg/eigen.h"

#include <cmath>

#include <gtest/gtest.h>

#include "linalg/matrix_util.h"
#include "stats/random_orthogonal.h"
#include "stats/rng.h"

namespace randrecon {
namespace linalg {
namespace {

TEST(EigenTest, DiagonalMatrixEigenvaluesSortedDescending) {
  Matrix a = Matrix::Diagonal({3.0, 7.0, 1.0});
  auto eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok()) << eig.status().ToString();
  const Vector& ev = eig.value().eigenvalues;
  ASSERT_EQ(ev.size(), 3u);
  EXPECT_NEAR(ev[0], 7.0, 1e-12);
  EXPECT_NEAR(ev[1], 3.0, 1e-12);
  EXPECT_NEAR(ev[2], 1.0, 1e-12);
}

TEST(EigenTest, Known2x2) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  Matrix a{{2, 1}, {1, 2}};
  auto eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig.value().eigenvalues[0], 3.0, 1e-10);
  EXPECT_NEAR(eig.value().eigenvalues[1], 1.0, 1e-10);
  // Eigenvector for λ=3 is (1,1)/√2 up to sign.
  const Matrix& q = eig.value().eigenvectors;
  EXPECT_NEAR(std::fabs(q(0, 0)), 1.0 / std::sqrt(2.0), 1e-10);
  EXPECT_NEAR(q(0, 0), q(1, 0), 1e-10);
}

TEST(EigenTest, EigenvectorsAreOrthonormal) {
  stats::Rng rng(7);
  Matrix g = rng.GaussianMatrix(12, 12);
  Matrix a = Symmetrize(g * g.Transpose());
  auto eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  EXPECT_TRUE(HasOrthonormalColumns(eig.value().eigenvectors, 1e-9));
}

TEST(EigenTest, ReconstructsInput) {
  stats::Rng rng(11);
  Matrix g = rng.GaussianMatrix(10, 10);
  Matrix a = Symmetrize(g + g.Transpose());
  auto eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  Matrix rebuilt =
      ComposeFromEigen(eig.value().eigenvalues, eig.value().eigenvectors);
  EXPECT_LT(MaxAbsDifference(a, rebuilt), 1e-9);
}

TEST(EigenTest, EigenEquationHolds) {
  stats::Rng rng(13);
  Matrix g = rng.GaussianMatrix(8, 8);
  Matrix a = Symmetrize(g * g.Transpose());
  auto eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  const Matrix& q = eig.value().eigenvectors;
  for (size_t k = 0; k < 8; ++k) {
    const Vector v = q.Col(k);
    const Vector av = a * v;
    for (size_t i = 0; i < 8; ++i) {
      EXPECT_NEAR(av[i], eig.value().eigenvalues[k] * v[i], 1e-8);
    }
  }
}

TEST(EigenTest, TraceEqualsEigenvalueSum) {
  // Eq. 12 of the paper: Σλᵢ = Σaᵢᵢ.
  stats::Rng rng(17);
  Matrix g = rng.GaussianMatrix(9, 9);
  Matrix a = Symmetrize(g * g.Transpose());
  auto eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  double sum = 0.0;
  for (double lambda : eig.value().eigenvalues) sum += lambda;
  EXPECT_NEAR(sum, Trace(a), 1e-8);
}

TEST(EigenTest, HandlesNegativeEigenvalues) {
  Matrix a = Matrix::Diagonal({-2.0, 5.0, -1.0});
  auto eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig.value().eigenvalues[0], 5.0, 1e-12);
  EXPECT_NEAR(eig.value().eigenvalues[1], -1.0, 1e-12);
  EXPECT_NEAR(eig.value().eigenvalues[2], -2.0, 1e-12);
}

TEST(EigenTest, OneByOne) {
  Matrix a{{4.0}};
  auto eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  EXPECT_DOUBLE_EQ(eig.value().eigenvalues[0], 4.0);
  EXPECT_DOUBLE_EQ(eig.value().eigenvectors(0, 0), 1.0);
}

TEST(EigenTest, ZeroMatrix) {
  Matrix a(4, 4);
  auto eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  for (double lambda : eig.value().eigenvalues) EXPECT_EQ(lambda, 0.0);
  EXPECT_TRUE(HasOrthonormalColumns(eig.value().eigenvectors));
}

TEST(EigenTest, RejectsNonSquare) {
  Matrix a(2, 3);
  auto eig = SymmetricEigen(a);
  EXPECT_FALSE(eig.ok());
  EXPECT_EQ(eig.status().code(), StatusCode::kInvalidArgument);
}

TEST(EigenTest, RejectsAsymmetric) {
  Matrix a{{1, 2}, {3, 4}};
  auto eig = SymmetricEigen(a);
  EXPECT_FALSE(eig.ok());
  EXPECT_EQ(eig.status().code(), StatusCode::kInvalidArgument);
}

TEST(EigenTest, RecoversPlantedSpectrum) {
  // Build A = QΛQᵀ with a known spectrum and check it is recovered —
  // exactly the §7.1 data-generation path run in reverse.
  stats::Rng rng(23);
  const Vector planted{50.0, 50.0, 10.0, 1.0, 0.5};
  Matrix q = stats::RandomOrthogonalMatrix(5, &rng);
  Matrix a = ComposeFromEigen(planted, q);
  auto eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  for (size_t i = 0; i < planted.size(); ++i) {
    EXPECT_NEAR(eig.value().eigenvalues[i], planted[i], 1e-8);
  }
}

TEST(EigenTest, ComposeWithReducedBasis) {
  // ComposeFromEigen with p < m columns builds the rank-p approximation.
  stats::Rng rng(29);
  Matrix q = stats::RandomOrthogonalMatrix(4, &rng);
  const Vector top2{9.0, 4.0};
  Matrix partial = ComposeFromEigen(top2, q.LeftColumns(2));
  EXPECT_EQ(partial.rows(), 4u);
  auto eig = SymmetricEigen(partial);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig.value().eigenvalues[0], 9.0, 1e-8);
  EXPECT_NEAR(eig.value().eigenvalues[1], 4.0, 1e-8);
  EXPECT_NEAR(eig.value().eigenvalues[2], 0.0, 1e-8);
  EXPECT_NEAR(eig.value().eigenvalues[3], 0.0, 1e-8);
}

class EigenSizeSweepTest : public ::testing::TestWithParam<size_t> {};

TEST_P(EigenSizeSweepTest, RandomSpdRoundTrip) {
  const size_t m = GetParam();
  stats::Rng rng(1000 + m);
  Matrix g = rng.GaussianMatrix(m, m);
  Matrix a = Symmetrize(g * g.Transpose());
  auto eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok()) << "m=" << m;
  // Descending order.
  for (size_t i = 0; i + 1 < m; ++i) {
    EXPECT_GE(eig.value().eigenvalues[i], eig.value().eigenvalues[i + 1]);
  }
  // SPD input: all eigenvalues >= 0 (tolerance for rounding).
  EXPECT_GE(eig.value().eigenvalues.back(), -1e-8);
  // Round trip.
  Matrix rebuilt =
      ComposeFromEigen(eig.value().eigenvalues, eig.value().eigenvectors);
  EXPECT_LT(MaxAbsDifference(a, rebuilt), 1e-7 * (1.0 + FrobeniusNorm(a)));
  EXPECT_TRUE(HasOrthonormalColumns(eig.value().eigenvectors, 1e-8));
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenSizeSweepTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 100,
                                           128));

}  // namespace
}  // namespace linalg
}  // namespace randrecon
