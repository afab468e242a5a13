#include "stats/mvn.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "linalg/eigen.h"
#include "linalg/matrix_util.h"
#include "stats/moments.h"
#include "stats/random_orthogonal.h"
#include "stats/rng.h"

namespace randrecon {
namespace stats {
namespace {

using linalg::Matrix;
using linalg::Vector;

TEST(MvnTest, SampleShape) {
  auto sampler = MultivariateNormalSampler::CreateZeroMean(Matrix::Identity(3));
  ASSERT_TRUE(sampler.ok());
  Rng rng(1);
  Matrix sample = sampler.value().SampleMatrix(50, &rng);
  EXPECT_EQ(sample.rows(), 50u);
  EXPECT_EQ(sample.cols(), 3u);
}

TEST(MvnTest, MeanIsRespected) {
  Vector mean{5.0, -3.0};
  auto sampler = MultivariateNormalSampler::Create(mean, Matrix::Identity(2));
  ASSERT_TRUE(sampler.ok());
  Rng rng(2);
  Matrix sample = sampler.value().SampleMatrix(20000, &rng);
  const Vector sample_mean = ColumnMeans(sample);
  EXPECT_NEAR(sample_mean[0], 5.0, 0.05);
  EXPECT_NEAR(sample_mean[1], -3.0, 0.05);
}

TEST(MvnTest, CovarianceIsReproduced) {
  Matrix cov{{4.0, 1.5}, {1.5, 2.0}};
  auto sampler = MultivariateNormalSampler::CreateZeroMean(cov);
  ASSERT_TRUE(sampler.ok());
  Rng rng(3);
  Matrix sample = sampler.value().SampleMatrix(50000, &rng);
  Matrix sample_cov = SampleCovariance(sample);
  EXPECT_LT(linalg::MaxAbsDifference(sample_cov, cov), 0.1);
}

TEST(MvnTest, SingularCovarianceSamplesOnSubspace) {
  // Rank-1 covariance: all samples proportional to (1, 1).
  Matrix cov{{1.0, 1.0}, {1.0, 1.0}};
  auto sampler = MultivariateNormalSampler::CreateZeroMean(cov);
  ASSERT_TRUE(sampler.ok()) << sampler.status().ToString();
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    const Vector x = sampler.value().SampleRecord(&rng);
    EXPECT_NEAR(x[0], x[1], 1e-9);
  }
}

TEST(MvnTest, ZeroCovarianceGivesConstantSamples) {
  auto sampler =
      MultivariateNormalSampler::Create({2.0, 3.0}, Matrix(2, 2));
  ASSERT_TRUE(sampler.ok());
  Rng rng(5);
  const Vector x = sampler.value().SampleRecord(&rng);
  EXPECT_DOUBLE_EQ(x[0], 2.0);
  EXPECT_DOUBLE_EQ(x[1], 3.0);
}

TEST(MvnTest, SpikedSpectrumCovarianceReproduced) {
  // The §7.1 shape: a few large eigenvalues, many tiny ones.
  Rng rng(6);
  const Vector spectrum{100.0, 100.0, 1.0, 1.0, 1.0, 1.0};
  Matrix q = RandomOrthogonalMatrix(6, &rng);
  Matrix cov = linalg::ComposeFromEigen(spectrum, q);
  auto sampler = MultivariateNormalSampler::CreateZeroMean(cov);
  ASSERT_TRUE(sampler.ok());
  Matrix sample = sampler.value().SampleMatrix(40000, &rng);
  Matrix sample_cov = SampleCovariance(sample);
  EXPECT_LT(linalg::MaxAbsDifference(sample_cov, cov),
            0.05 * linalg::FrobeniusNorm(cov));
}

TEST(MvnTest, RejectsNonSquareCovariance) {
  auto sampler = MultivariateNormalSampler::CreateZeroMean(Matrix(2, 3));
  EXPECT_FALSE(sampler.ok());
  EXPECT_EQ(sampler.status().code(), StatusCode::kInvalidArgument);
}

TEST(MvnTest, RejectsMeanLengthMismatch) {
  auto sampler =
      MultivariateNormalSampler::Create({1.0}, Matrix::Identity(2));
  EXPECT_FALSE(sampler.ok());
  EXPECT_EQ(sampler.status().code(), StatusCode::kInvalidArgument);
}

TEST(MvnTest, RejectsAsymmetricCovariance) {
  auto sampler =
      MultivariateNormalSampler::CreateZeroMean(Matrix{{1, 0.5}, {0, 1}});
  EXPECT_FALSE(sampler.ok());
}

TEST(MvnTest, RejectsIndefiniteCovariance) {
  auto sampler = MultivariateNormalSampler::CreateZeroMean(
      Matrix::Diagonal({1.0, -0.5}));
  EXPECT_FALSE(sampler.ok());
  EXPECT_EQ(sampler.status().code(), StatusCode::kNumericalError);
}

TEST(MvnTest, DeterministicGivenSeed) {
  Matrix cov{{2.0, 0.3}, {0.3, 1.0}};
  auto sampler = MultivariateNormalSampler::CreateZeroMean(cov);
  ASSERT_TRUE(sampler.ok());
  Rng rng1(77), rng2(77);
  Matrix a = sampler.value().SampleMatrix(10, &rng1);
  Matrix b = sampler.value().SampleMatrix(10, &rng2);
  EXPECT_TRUE(a == b);
}

TEST(MvnTest, BatchSampleMatrixReproducesMoments) {
  Matrix cov{{4.0, 1.5}, {1.5, 2.0}};
  Vector mean{1.0, -2.0};
  auto sampler = MultivariateNormalSampler::Create(mean, cov);
  ASSERT_TRUE(sampler.ok());
  Philox gen(42, 0);
  Matrix sample = sampler.value().SampleMatrix(60000, &gen);
  const Vector sample_mean = ColumnMeans(sample);
  EXPECT_NEAR(sample_mean[0], 1.0, 0.05);
  EXPECT_NEAR(sample_mean[1], -2.0, 0.05);
  const Matrix sample_cov = SampleCovariance(sample);
  EXPECT_NEAR(sample_cov(0, 0), 4.0, 0.15);
  EXPECT_NEAR(sample_cov(0, 1), 1.5, 0.1);
  EXPECT_NEAR(sample_cov(1, 1), 2.0, 0.1);
}

TEST(MvnTest, SampleRecordsAtIsPartitionInvariant) {
  // Any split of [0, n) into SampleRecordsAt calls — and any thread
  // count — must assemble the byte-identical record block.
  Matrix cov{{2.0, 0.5, 0.0}, {0.5, 1.0, 0.25}, {0.0, 0.25, 3.0}};
  auto sampler = MultivariateNormalSampler::CreateZeroMean(cov);
  ASSERT_TRUE(sampler.ok());
  const Philox base(7, 1);
  const size_t n = 700;  // spans several kBatchBlockRows blocks
  Matrix whole(n, 3);
  sampler.value().SampleRecordsAt(base, 0, n, &whole);
  for (size_t chunk : {size_t{1}, size_t{7}, size_t{64}, size_t{256},
                       size_t{700}}) {
    Matrix assembled(n, 3);
    for (size_t begin = 0; begin < n; begin += chunk) {
      const size_t rows = std::min(chunk, n - begin);
      sampler.value().SampleRecordsAt(base, begin, rows, &assembled, begin);
    }
    EXPECT_EQ(linalg::MaxAbsDifference(whole, assembled), 0.0)
        << "chunk " << chunk;
  }
  for (int threads : {1, 2, 4}) {
    ParallelOptions options;
    options.num_threads = threads;
    Matrix assembled(n, 3);
    sampler.value().SampleRecordsAt(base, 0, n, &assembled, 0, options);
    EXPECT_EQ(linalg::MaxAbsDifference(whole, assembled), 0.0)
        << "threads " << threads;
  }
}

TEST(MvnTest, SampleRecordsAtOffsetWindowsMatch) {
  auto sampler = MultivariateNormalSampler::CreateZeroMean(Matrix::Identity(2));
  ASSERT_TRUE(sampler.ok());
  const Philox base(3, 9);
  Matrix whole(600, 2);
  sampler.value().SampleRecordsAt(base, 0, 600, &whole);
  Matrix window(100, 2);
  sampler.value().SampleRecordsAt(base, 250, 100, &window);
  for (size_t i = 0; i < 100; ++i) {
    for (size_t j = 0; j < 2; ++j) {
      ASSERT_EQ(window(i, j), whole(250 + i, j)) << i << "," << j;
    }
  }
}

TEST(MvnTest, BatchStreamsWithDifferentSeedsDiffer) {
  auto sampler = MultivariateNormalSampler::CreateZeroMean(Matrix::Identity(2));
  ASSERT_TRUE(sampler.ok());
  Matrix a(10, 2), b(10, 2);
  sampler.value().SampleRecordsAt(Philox(1, 0), 0, 10, &a);
  sampler.value().SampleRecordsAt(Philox(2, 0), 0, 10, &b);
  EXPECT_GT(linalg::MaxAbsDifference(a, b), 0.0);
}

}  // namespace
}  // namespace stats
}  // namespace randrecon
