#include "linalg/vector_ops.h"

#include <cmath>

#include <gtest/gtest.h>

namespace randrecon {
namespace linalg {
namespace {

TEST(VectorOpsTest, Dot) {
  EXPECT_DOUBLE_EQ(Dot({1, 2, 3}, {4, 5, 6}), 32.0);
  EXPECT_DOUBLE_EQ(Dot({}, {}), 0.0);
}

TEST(VectorOpsDeathTest, DotSizeMismatchAborts) {
  EXPECT_DEATH({ Dot({1.0}, {1.0, 2.0}); }, "RR_CHECK");
}

TEST(VectorOpsTest, Norm) {
  EXPECT_DOUBLE_EQ(Norm({3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(Norm({0, 0, 0}), 0.0);
}

TEST(VectorOpsTest, AddSubtract) {
  EXPECT_EQ(Add({1, 2}, {3, 4}), (Vector{4, 6}));
  EXPECT_EQ(Subtract({3, 4}, {1, 2}), (Vector{2, 2}));
}


TEST(VectorOpsTest, AddScaled) {
  Vector a{1, 1};
  AddScaled(&a, 2.0, {3, 4});
  EXPECT_EQ(a, (Vector{7, 9}));
}

TEST(VectorOpsTest, MeanVarianceSum) {
  Vector v{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Mean(v), 2.5);
  EXPECT_DOUBLE_EQ(Sum(v), 10.0);
  EXPECT_DOUBLE_EQ(Variance(v), 1.25);  // Population convention.
}

TEST(VectorOpsTest, MeanOfEmptyIsZero) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Sum({}), 0.0);
}

TEST(VectorOpsTest, VarianceOfConstantIsZero) {
  EXPECT_DOUBLE_EQ(Variance({5, 5, 5}), 0.0);
}

TEST(VectorOpsTest, MaxAbs) {
  EXPECT_DOUBLE_EQ(MaxAbs({1, -7, 3}), 7.0);
  EXPECT_DOUBLE_EQ(MaxAbs({}), 0.0);
}

}  // namespace
}  // namespace linalg
}  // namespace randrecon
