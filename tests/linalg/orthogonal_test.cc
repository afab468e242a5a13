#include "linalg/orthogonal.h"

#include <cmath>

#include <gtest/gtest.h>

#include "linalg/matrix_util.h"
#include "stats/rng.h"

namespace randrecon {
namespace linalg {
namespace {

TEST(GramSchmidtTest, OrthonormalizesRandomSquare) {
  stats::Rng rng(1);
  Matrix g = rng.GaussianMatrix(10, 10);
  auto q = GramSchmidtOrthonormalize(g);
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(HasOrthonormalColumns(q.value(), 1e-9));
}

TEST(GramSchmidtTest, PreservesColumnSpan) {
  // The first orthonormal column must be parallel to the first input
  // column.
  Matrix a{{2, 1}, {0, 1}};
  auto q = GramSchmidtOrthonormalize(a);
  ASSERT_TRUE(q.ok());
  EXPECT_NEAR(std::fabs(q.value()(0, 0)), 1.0, 1e-12);
  EXPECT_NEAR(q.value()(1, 0), 0.0, 1e-12);
}

TEST(GramSchmidtTest, TallMatrixOk) {
  stats::Rng rng(2);
  Matrix g = rng.GaussianMatrix(8, 3);
  auto q = GramSchmidtOrthonormalize(g);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().rows(), 8u);
  EXPECT_EQ(q.value().cols(), 3u);
  EXPECT_TRUE(HasOrthonormalColumns(q.value(), 1e-9));
}

TEST(GramSchmidtTest, RejectsWideMatrix) {
  auto q = GramSchmidtOrthonormalize(Matrix(2, 5));
  EXPECT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
}

TEST(GramSchmidtTest, RejectsRankDeficient) {
  Matrix a{{1, 2}, {1, 2}};  // Columns are parallel.
  auto q = GramSchmidtOrthonormalize(a);
  EXPECT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kNumericalError);
}

TEST(GramSchmidtTest, IdentityIsFixedPoint) {
  auto q = GramSchmidtOrthonormalize(Matrix::Identity(4));
  ASSERT_TRUE(q.ok());
  EXPECT_LT(MaxAbsDifference(q.value(), Matrix::Identity(4)), 1e-12);
}

}  // namespace
}  // namespace linalg
}  // namespace randrecon
