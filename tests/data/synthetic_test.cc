#include "data/synthetic.h"

#include <cmath>

#include <gtest/gtest.h>

#include "linalg/eigen.h"
#include "linalg/matrix_util.h"
#include "stats/moments.h"
#include "stats/rng.h"

namespace randrecon {
namespace data {
namespace {

using linalg::Matrix;
using linalg::Vector;

TEST(TwoLevelSpectrumTest, Shape) {
  const Vector s = TwoLevelSpectrum(5, 2, 100.0, 1.0);
  EXPECT_EQ(s, (Vector{100, 100, 1, 1, 1}));
}

TEST(TwoLevelSpectrumTest, AllPrincipal) {
  const Vector s = TwoLevelSpectrum(3, 3, 7.0, 1.0);
  EXPECT_EQ(s, (Vector{7, 7, 7}));
}

TEST(TwoLevelSpectrumWithTraceTest, TraceIsPinned) {
  // Eq. 12: Σλ must equal m · per-attribute variance.
  for (size_t m : {5u, 20u, 100u}) {
    const Vector s = TwoLevelSpectrumWithTrace(m, 5, 1.0, 100.0);
    EXPECT_NEAR(SpectrumTrace(s), static_cast<double>(m) * 100.0, 1e-9)
        << "m=" << m;
  }
}

TEST(TwoLevelSpectrumWithTraceTest, ResidualsStayFixed) {
  const Vector s = TwoLevelSpectrumWithTrace(10, 2, 1.5, 50.0);
  for (size_t i = 2; i < 10; ++i) EXPECT_DOUBLE_EQ(s[i], 1.5);
  EXPECT_DOUBLE_EQ(s[0], s[1]);
  EXPECT_GT(s[0], 1.5);
}

TEST(TwoLevelSpectrumWithTraceDeathTest, ImpossibleTraceAborts) {
  // Residual 100 with average variance 1: principal would be < residual.
  EXPECT_DEATH({ TwoLevelSpectrumWithTrace(10, 2, 100.0, 1.0); },
               "trace too small");
}

TEST(GenerateSpectrumDatasetTest, ShapesAndGroundTruth) {
  stats::Rng rng(61);
  SyntheticDatasetSpec spec;
  spec.eigenvalues = {50.0, 10.0, 1.0};
  auto result = GenerateSpectrumDataset(spec, 100, &rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const SyntheticDataset& s = result.value();
  EXPECT_EQ(s.dataset.num_records(), 100u);
  EXPECT_EQ(s.dataset.num_attributes(), 3u);
  EXPECT_EQ(s.covariance.rows(), 3u);
  EXPECT_EQ(s.eigenvalues, spec.eigenvalues);
  EXPECT_TRUE(linalg::HasOrthonormalColumns(s.eigenvectors, 1e-9));
}

TEST(GenerateSpectrumDatasetTest, CovarianceMatchesSpectrum) {
  stats::Rng rng(62);
  SyntheticDatasetSpec spec;
  spec.eigenvalues = {9.0, 4.0, 1.0, 0.25};
  auto result = GenerateSpectrumDataset(spec, 10, &rng);
  ASSERT_TRUE(result.ok());
  auto eig = linalg::SymmetricEigen(result.value().covariance);
  ASSERT_TRUE(eig.ok());
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(eig.value().eigenvalues[i], spec.eigenvalues[i], 1e-9);
  }
}

TEST(GenerateSpectrumDatasetTest, SampleCovarianceApproachesTruth) {
  stats::Rng rng(63);
  SyntheticDatasetSpec spec;
  spec.eigenvalues = {20.0, 5.0, 1.0};
  auto result = GenerateSpectrumDataset(spec, 40000, &rng);
  ASSERT_TRUE(result.ok());
  const Matrix sample_cov =
      stats::SampleCovariance(result.value().dataset.records());
  EXPECT_LT(linalg::MaxAbsDifference(sample_cov, result.value().covariance),
            0.05 * linalg::FrobeniusNorm(result.value().covariance));
}

TEST(GenerateSpectrumDatasetTest, MeanIsRespected) {
  stats::Rng rng(64);
  SyntheticDatasetSpec spec;
  spec.eigenvalues = {1.0, 1.0};
  spec.mean = {10.0, -5.0};
  auto result = GenerateSpectrumDataset(spec, 20000, &rng);
  ASSERT_TRUE(result.ok());
  const Vector means = stats::ColumnMeans(result.value().dataset.records());
  EXPECT_NEAR(means[0], 10.0, 0.05);
  EXPECT_NEAR(means[1], -5.0, 0.05);
}

TEST(GenerateSpectrumDatasetTest, TraceEqualsSummedAttributeVariances) {
  // Eq. 12 again, now on the generated covariance matrix.
  stats::Rng rng(65);
  SyntheticDatasetSpec spec;
  spec.eigenvalues = TwoLevelSpectrum(8, 3, 40.0, 2.0);
  auto result = GenerateSpectrumDataset(spec, 10, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(linalg::Trace(result.value().covariance),
              SpectrumTrace(spec.eigenvalues), 1e-9);
}

TEST(GenerateSpectrumDatasetTest, RejectsEmptySpectrum) {
  stats::Rng rng(66);
  EXPECT_FALSE(GenerateSpectrumDataset({}, 10, &rng).ok());
}

TEST(GenerateSpectrumDatasetTest, RejectsNegativeEigenvalue) {
  stats::Rng rng(67);
  SyntheticDatasetSpec spec;
  spec.eigenvalues = {1.0, -0.5};
  EXPECT_FALSE(GenerateSpectrumDataset(spec, 10, &rng).ok());
}

TEST(GenerateSpectrumDatasetTest, RejectsMeanLengthMismatch) {
  stats::Rng rng(68);
  SyntheticDatasetSpec spec;
  spec.eigenvalues = {1.0, 1.0};
  spec.mean = {0.0};
  EXPECT_FALSE(GenerateSpectrumDataset(spec, 10, &rng).ok());
}

TEST(GaussianMixtureDatasetTest, ShapesAndLabels) {
  stats::Rng rng(69);
  Matrix means{{-10.0, -10.0}, {10.0, 10.0}};
  auto mixture =
      GenerateGaussianMixtureDataset(means, {4.0, 1.0}, 500, &rng);
  ASSERT_TRUE(mixture.ok()) << mixture.status().ToString();
  EXPECT_EQ(mixture.value().dataset.num_records(), 500u);
  EXPECT_EQ(mixture.value().dataset.num_attributes(), 2u);
  EXPECT_EQ(mixture.value().labels.size(), 500u);
  // Both clusters should be populated.
  size_t cluster_one = 0;
  for (size_t label : mixture.value().labels) cluster_one += label;
  EXPECT_GT(cluster_one, 100u);
  EXPECT_LT(cluster_one, 400u);
}

TEST(GaussianMixtureDatasetTest, RecordsCenterOnTheirClusterMean) {
  stats::Rng rng(70);
  Matrix means{{-20.0, 0.0}, {20.0, 0.0}};
  auto mixture =
      GenerateGaussianMixtureDataset(means, {1.0, 1.0}, 3000, &rng);
  ASSERT_TRUE(mixture.ok());
  double sum0 = 0.0;
  size_t count0 = 0;
  for (size_t i = 0; i < 3000; ++i) {
    if (mixture.value().labels[i] == 0) {
      sum0 += mixture.value().dataset.records()(i, 0);
      ++count0;
    }
  }
  EXPECT_NEAR(sum0 / static_cast<double>(count0), -20.0, 0.3);
}

TEST(GaussianMixtureDatasetTest, Validation) {
  stats::Rng rng(71);
  EXPECT_FALSE(
      GenerateGaussianMixtureDataset(Matrix(), {1.0}, 10, &rng).ok());
  EXPECT_FALSE(GenerateGaussianMixtureDataset(Matrix(2, 3), {1.0, 2.0}, 10,
                                              &rng)
                   .ok());
}

TEST(GenerateSpectrumDatasetTest, DeterministicForFixedSeed) {
  SyntheticDatasetSpec spec;
  spec.eigenvalues = {5.0, 2.0};
  stats::Rng rng1(99), rng2(99);
  auto a = GenerateSpectrumDataset(spec, 20, &rng1);
  auto b = GenerateSpectrumDataset(spec, 20, &rng2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a.value().dataset.records() == b.value().dataset.records());
}

}  // namespace
}  // namespace data
}  // namespace randrecon
