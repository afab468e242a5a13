#include "core/covariance_estimation.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "linalg/eigen.h"
#include "linalg/matrix_util.h"
#include "perturb/schemes.h"
#include "stats/moments.h"
#include "stats/rng.h"

namespace randrecon {
namespace core {
namespace {

using linalg::Matrix;
using linalg::Vector;

TEST(Theorem51Test, RecoversOriginalCovarianceFromDisguisedData) {
  // The headline of Theorem 5.1: Cov(Y) − σ²I ≈ Cov(X).
  stats::Rng rng(101);
  data::SyntheticDatasetSpec spec;
  spec.eigenvalues = {40.0, 10.0, 3.0, 1.0};
  auto synthetic = data::GenerateSpectrumDataset(spec, 50000, &rng);
  ASSERT_TRUE(synthetic.ok());
  auto scheme = perturb::IndependentNoiseScheme::Gaussian(4, 5.0);
  auto disguised = scheme.Disguise(synthetic.value().dataset, &rng);
  ASSERT_TRUE(disguised.ok());

  auto moments =
      EstimateOriginalMoments(disguised.value().records(), scheme.noise_model());
  ASSERT_TRUE(moments.ok());
  EXPECT_LT(linalg::MaxAbsDifference(moments.value().covariance,
                                     synthetic.value().covariance),
            0.05 * linalg::FrobeniusNorm(synthetic.value().covariance));
}

TEST(Theorem51Test, OffDiagonalsUntouchedDiagonalShifted) {
  // Direct statement check: Cov(Y) equals Cov(X) off-diagonal and
  // Cov(X) + σ² on the diagonal — verified via the estimator on
  // synthetic data where both sides are computable.
  stats::Rng rng(102);
  data::SyntheticDatasetSpec spec;
  spec.eigenvalues = {20.0, 5.0};
  auto synthetic = data::GenerateSpectrumDataset(spec, 80000, &rng);
  ASSERT_TRUE(synthetic.ok());
  const double sigma = 3.0;
  auto scheme = perturb::IndependentNoiseScheme::Gaussian(2, sigma);
  auto disguised = scheme.Disguise(synthetic.value().dataset, &rng);
  ASSERT_TRUE(disguised.ok());

  const Matrix cov_y = stats::SampleCovariance(disguised.value().records());
  const Matrix cov_x = stats::SampleCovariance(synthetic.value().dataset.records());
  EXPECT_NEAR(cov_y(0, 1), cov_x(0, 1), 0.3);
  EXPECT_NEAR(cov_y(0, 0), cov_x(0, 0) + sigma * sigma, 0.5);
  EXPECT_NEAR(cov_y(1, 1), cov_x(1, 1) + sigma * sigma, 0.5);
}

TEST(MomentEstimationTest, MeanEstimateTracksOriginal) {
  stats::Rng rng(103);
  data::SyntheticDatasetSpec spec;
  spec.eigenvalues = {5.0, 5.0};
  spec.mean = {100.0, -50.0};
  auto synthetic = data::GenerateSpectrumDataset(spec, 30000, &rng);
  ASSERT_TRUE(synthetic.ok());
  auto scheme = perturb::IndependentNoiseScheme::Gaussian(2, 4.0);
  auto disguised = scheme.Disguise(synthetic.value().dataset, &rng);
  ASSERT_TRUE(disguised.ok());
  auto moments =
      EstimateOriginalMoments(disguised.value().records(), scheme.noise_model());
  ASSERT_TRUE(moments.ok());
  EXPECT_NEAR(moments.value().mean[0], 100.0, 0.2);
  EXPECT_NEAR(moments.value().mean[1], -50.0, 0.2);
}

TEST(MomentEstimationTest, PsdClipRemovesNegativeEigenvalues) {
  // Small n: the subtraction overshoots and the raw estimate is
  // indefinite; clipping must restore PSD.
  stats::Rng rng(104);
  data::SyntheticDatasetSpec spec;
  spec.eigenvalues = {1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
  auto synthetic = data::GenerateSpectrumDataset(spec, 30, &rng);
  ASSERT_TRUE(synthetic.ok());
  auto scheme = perturb::IndependentNoiseScheme::Gaussian(6, 5.0);
  auto disguised = scheme.Disguise(synthetic.value().dataset, &rng);
  ASSERT_TRUE(disguised.ok());

  const Matrix& y = disguised.value().records();
  auto moments = EstimateOriginalMoments(y, scheme.noise_model());
  ASSERT_TRUE(moments.ok());
  auto eig = linalg::SymmetricEigen(moments.value().covariance);
  ASSERT_TRUE(eig.ok());
  EXPECT_GE(eig.value().eigenvalues.back(), -1e-9);

  // The raw estimate Cov(Y) − Σr of the same input has a negative
  // eigenvalue, so the clip had one to remove.
  auto raw_eig = linalg::SymmetricEigen(stats::SampleCovariance(y) -
                                        scheme.noise_model().covariance());
  ASSERT_TRUE(raw_eig.ok());
  EXPECT_LT(raw_eig.value().eigenvalues.back(), 0.0);
}

TEST(MomentEstimationTest, EigenFloorKeepsMatrixInvertible) {
  stats::Rng rng(105);
  data::SyntheticDatasetSpec spec;
  spec.eigenvalues = {10.0, 0.0};  // Singular original covariance.
  auto synthetic = data::GenerateSpectrumDataset(spec, 500, &rng);
  ASSERT_TRUE(synthetic.ok());
  auto scheme = perturb::IndependentNoiseScheme::Gaussian(2, 2.0);
  auto disguised = scheme.Disguise(synthetic.value().dataset, &rng);
  ASSERT_TRUE(disguised.ok());
  MomentEstimationOptions options;
  options.eigen_floor = 0.1;
  auto moments = EstimateOriginalMoments(disguised.value().records(),
                                         scheme.noise_model(), options);
  ASSERT_TRUE(moments.ok());
  auto eig = linalg::SymmetricEigen(moments.value().covariance);
  ASSERT_TRUE(eig.ok());
  EXPECT_GE(eig.value().eigenvalues.back(), 0.1 - 1e-9);
}

TEST(MomentEstimationTest, BulkAveragingFlattensNonPrincipalSpectrum) {
  stats::Rng rng(106);
  data::SyntheticDatasetSpec spec;
  spec.eigenvalues = data::TwoLevelSpectrum(20, 3, 200.0, 1.0);
  auto synthetic = data::GenerateSpectrumDataset(spec, 400, &rng);
  ASSERT_TRUE(synthetic.ok());
  auto scheme = perturb::IndependentNoiseScheme::Gaussian(20, 5.0);
  auto disguised = scheme.Disguise(synthetic.value().dataset, &rng);
  ASSERT_TRUE(disguised.ok());

  MomentEstimationOptions options;
  options.bulk_average_nonprincipal = true;
  auto moments = EstimateOriginalMoments(disguised.value().records(),
                                         scheme.noise_model(), options);
  ASSERT_TRUE(moments.ok());
  auto eig = linalg::SymmetricEigen(moments.value().covariance);
  ASSERT_TRUE(eig.ok());
  // All non-principal eigenvalues equal (the bulk average).
  const Vector& ev = eig.value().eigenvalues;
  for (size_t i = 4; i < 20; ++i) {
    EXPECT_NEAR(ev[i], ev[3], 1e-8) << "i=" << i;
  }
  EXPECT_GT(ev[2], 10.0 * ev[3]);  // Principal part preserved.
}

TEST(MomentEstimationTest, CorrelatedNoiseUsesTheorem82) {
  stats::Rng rng(107);
  data::SyntheticDatasetSpec spec;
  spec.eigenvalues = {25.0, 9.0, 4.0};
  auto synthetic = data::GenerateSpectrumDataset(spec, 40000, &rng);
  ASSERT_TRUE(synthetic.ok());
  Matrix sigma_r{{4.0, 1.0, 0.5}, {1.0, 3.0, 0.2}, {0.5, 0.2, 2.0}};
  auto scheme = perturb::CorrelatedGaussianScheme::Create(sigma_r);
  ASSERT_TRUE(scheme.ok());
  auto disguised = scheme.value().Disguise(synthetic.value().dataset, &rng);
  ASSERT_TRUE(disguised.ok());
  auto moments = EstimateOriginalMoments(disguised.value().records(),
                                         scheme.value().noise_model());
  ASSERT_TRUE(moments.ok());
  EXPECT_LT(linalg::MaxAbsDifference(moments.value().covariance,
                                     synthetic.value().covariance),
            0.06 * linalg::FrobeniusNorm(synthetic.value().covariance));
}

TEST(MomentEstimationTest, RejectsTooFewRecords) {
  auto moments = EstimateOriginalMoments(
      Matrix(1, 2), perturb::NoiseModel::IndependentGaussian(2, 1.0));
  EXPECT_FALSE(moments.ok());
}

TEST(MomentEstimationTest, RejectsShapeMismatch) {
  auto moments = EstimateOriginalMoments(
      Matrix(10, 3), perturb::NoiseModel::IndependentGaussian(2, 1.0));
  EXPECT_FALSE(moments.ok());
  EXPECT_EQ(moments.status().code(), StatusCode::kInvalidArgument);
}

// Spectrum checks of the PSD clip on exact inputs: under unit noise
// (Σr = I) the disguised covariance Σ̂x + I makes Σ̂x the listed matrix.
linalg::Matrix PlusUnitNoise(Matrix cov_x) {
  for (size_t i = 0; i < cov_x.rows(); ++i) cov_x(i, i) += 1.0;
  return cov_x;
}

TEST(OriginalSpectrumTest, ClipRaisesNegativeEigenvalueToZero) {
  const auto noise = perturb::NoiseModel::IndependentGaussian(2, 1.0);
  const Matrix cov_y = PlusUnitNoise(Matrix::Diagonal({5.0, -2.0}));
  auto spectrum = EstimateOriginalSpectrum(cov_y, noise);
  ASSERT_TRUE(spectrum.ok());
  EXPECT_EQ(spectrum.value().eigenvalues, (Vector{5.0, 0.0}));
  // The recomposed matrix carries the clipped spectrum.
  auto clipped = EstimateOriginalCovariance(cov_y, noise);
  ASSERT_TRUE(clipped.ok());
  auto eig = linalg::SymmetricEigen(clipped.value());
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig.value().eigenvalues[0], 5.0, 1e-10);
  EXPECT_NEAR(eig.value().eigenvalues[1], 0.0, 1e-10);
}

TEST(OriginalSpectrumTest, ClipLeavesPsdEstimateUntouched) {
  const auto noise = perturb::NoiseModel::IndependentGaussian(2, 1.0);
  const Matrix cov_x{{2, 1}, {1, 2}};
  const Matrix cov_y = PlusUnitNoise(cov_x);
  auto spectrum = EstimateOriginalSpectrum(cov_y, noise);
  auto own = linalg::SymmetricEigen(cov_x);
  ASSERT_TRUE(spectrum.ok());
  ASSERT_TRUE(own.ok());
  EXPECT_EQ(spectrum.value().eigenvalues, own.value().eigenvalues);
  // No eigenvalue moved, so Σ̂x is returned, not recomposed.
  auto clipped = EstimateOriginalCovariance(cov_y, noise);
  ASSERT_TRUE(clipped.ok());
  EXPECT_EQ(std::memcmp(clipped.value().data(), cov_x.data(),
                        cov_x.size() * sizeof(double)),
            0);
}

TEST(OriginalSpectrumTest, ClipHonorsFloor) {
  const auto noise = perturb::NoiseModel::IndependentGaussian(2, 1.0);
  const Matrix cov_y = PlusUnitNoise(Matrix::Diagonal({5.0, 0.001}));
  MomentEstimationOptions options;
  options.eigen_floor = 0.5;
  auto spectrum = EstimateOriginalSpectrum(cov_y, noise, options);
  ASSERT_TRUE(spectrum.ok());
  EXPECT_EQ(spectrum.value().eigenvalues, (Vector{5.0, 0.5}));
  auto clipped = EstimateOriginalCovariance(cov_y, noise, options);
  ASSERT_TRUE(clipped.ok());
  auto eig = linalg::SymmetricEigen(clipped.value());
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig.value().eigenvalues[1], 0.5, 1e-10);
}

TEST(OriginalSpectrumTest, BulkAverageOfOneAttributeTakesTheClip) {
  // A 1 x 1 spectrum has no bulk to average: with the bulk average on it
  // is floored like any PSD-clipped spectrum.
  const auto noise = perturb::NoiseModel::IndependentGaussian(1, 1.0);
  const Matrix cov_y = Matrix::Diagonal({0.5});  // Below σ² = 1.
  MomentEstimationOptions options;
  options.bulk_average_nonprincipal = true;
  options.eigen_floor = 0.1;
  auto spectrum = EstimateOriginalSpectrum(cov_y, noise, options);
  ASSERT_TRUE(spectrum.ok());
  EXPECT_EQ(spectrum.value().eigenvalues, (Vector{0.1}));
  auto clipped = EstimateOriginalCovariance(cov_y, noise, options);
  ASSERT_TRUE(clipped.ok());
  EXPECT_EQ(clipped.value()(0, 0), 0.1);
}

class Theorem51SampleSizeSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(Theorem51SampleSizeSweep, EstimateConvergesWithN) {
  // The paper: "when the number of samples becomes larger, the
  // approximation becomes more accurate." The envelope bounds the mean
  // max-abs error over independent trials: one trial's largest entry
  // sits ~2.6 standard errors under 200/√n, which a single draw can
  // cross by chance.
  const size_t n = GetParam();
  constexpr int kTrials = 8;
  stats::Rng seeds(108);
  data::SyntheticDatasetSpec spec;
  spec.eigenvalues = {30.0, 10.0, 1.0};
  auto scheme = perturb::IndependentNoiseScheme::Gaussian(3, 5.0);
  double total_error = 0.0;
  for (int trial = 0; trial < kTrials; ++trial) {
    stats::Rng rng(seeds.NextSeed());
    auto synthetic = data::GenerateSpectrumDataset(spec, n, &rng);
    ASSERT_TRUE(synthetic.ok());
    auto disguised = scheme.Disguise(synthetic.value().dataset, &rng);
    ASSERT_TRUE(disguised.ok());
    auto moments = EstimateOriginalMoments(disguised.value().records(),
                                           scheme.noise_model());
    ASSERT_TRUE(moments.ok());
    total_error += linalg::MaxAbsDifference(moments.value().covariance,
                                            synthetic.value().covariance);
  }
  // Loose O(1/√n)-style envelope: generous constant, still decreasing.
  EXPECT_LT(total_error / kTrials, 200.0 / std::sqrt(static_cast<double>(n)))
      << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(SampleSizes, Theorem51SampleSizeSweep,
                         ::testing::Values(200, 800, 3200, 12800));

}  // namespace
}  // namespace core
}  // namespace randrecon
