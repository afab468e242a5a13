#include "core/spectral_filtering.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/ndr.h"
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

TEST(SfBoundTest, MatchesMarchenkoPasturFormula) {
  // σ²(1 + √(m/n))².
  const double bound =
      SpectralFilteringReconstructor::NoiseEigenvalueUpperBound(25.0, 400, 100);
  const double expected = 25.0 * (1.0 + 0.5) * (1.0 + 0.5);
  EXPECT_NEAR(bound, expected, 1e-12);
}

TEST(SfBoundTest, GrowsWithDimensionShrinksWithSamples) {
  const double base =
      SpectralFilteringReconstructor::NoiseEigenvalueUpperBound(4.0, 1000, 50);
  EXPECT_GT(SpectralFilteringReconstructor::NoiseEigenvalueUpperBound(4.0, 1000,
                                                                      100),
            base);
  EXPECT_LT(
      SpectralFilteringReconstructor::NoiseEigenvalueUpperBound(4.0, 4000, 50),
      base);
}

TEST(SfBoundTest, PureNoiseEigenvaluesRespectTheBound) {
  // The bound's whole claim: eigenvalues of a pure-noise sample
  // covariance stay (essentially) below it.
  stats::Rng rng(141);
  const size_t n = 2000, m = 40;
  const double sigma = 3.0;
  auto scheme = perturb::IndependentNoiseScheme::Gaussian(m, sigma);
  Matrix noise = scheme.GenerateNoise(n, &rng);
  auto eig = linalg::SymmetricEigen(stats::SampleCovariance(noise));
  ASSERT_TRUE(eig.ok());
  const double bound = SpectralFilteringReconstructor::NoiseEigenvalueUpperBound(
      sigma * sigma, n, m);
  EXPECT_LT(eig.value().eigenvalues[0], bound * 1.05);
}

TEST(SfTest, RecoversCorrelatedSignal) {
  stats::Rng rng(142);
  data::SyntheticDatasetSpec spec;
  spec.eigenvalues = data::TwoLevelSpectrum(30, 3, 600.0, 1.0);
  auto synthetic = data::GenerateSpectrumDataset(spec, 1500, &rng);
  ASSERT_TRUE(synthetic.ok());
  auto scheme = perturb::IndependentNoiseScheme::Gaussian(30, 5.0);
  auto disguised = scheme.Disguise(synthetic.value().dataset, &rng);
  ASSERT_TRUE(disguised.ok());

  SpectralFilteringReconstructor sf;
  NdrReconstructor ndr;
  auto sf_hat = sf.Reconstruct(disguised.value().records(), scheme.noise_model());
  auto ndr_hat =
      ndr.Reconstruct(disguised.value().records(), scheme.noise_model());
  ASSERT_TRUE(sf_hat.ok());
  ASSERT_TRUE(ndr_hat.ok());
  const Matrix& x = synthetic.value().dataset.records();
  EXPECT_LT(stats::RootMeanSquareError(x, sf_hat.value()),
            0.6 * stats::RootMeanSquareError(x, ndr_hat.value()));
}

TEST(SfTest, PureNoiseCollapsesToOneComponent) {
  // With no signal every eigenvalue sits below the bound; SF keeps one
  // component and the reconstruction is close to the column means.
  stats::Rng rng(143);
  const size_t n = 1500, m = 10;
  Matrix x(n, m);  // Zero original.
  auto scheme = perturb::IndependentNoiseScheme::Gaussian(m, 4.0);
  Matrix y = x + scheme.GenerateNoise(n, &rng);
  SpectralFilteringReconstructor sf;
  auto x_hat = sf.Reconstruct(y, scheme.noise_model());
  ASSERT_TRUE(x_hat.ok());
  // RMSE ≈ σ·sqrt(1/m) per Theorem 5.2 with p = 1: ≈ 1.26.
  const double rmse = stats::RootMeanSquareError(x, x_hat.value());
  EXPECT_LT(rmse, 2.0);
  EXPECT_GT(rmse, 0.8);
}

TEST(SfTest, AllRejectedSpectrumKeepsOneComponent) {
  stats::Rng rng(144);
  data::SyntheticDatasetSpec spec;
  spec.eigenvalues = data::TwoLevelSpectrum(20, 5, 100.0, 20.0);
  auto synthetic = data::GenerateSpectrumDataset(spec, 2000, &rng);
  ASSERT_TRUE(synthetic.ok());
  auto scheme = perturb::IndependentNoiseScheme::Gaussian(20, 5.0);
  auto disguised = scheme.Disguise(synthetic.value().dataset, &rng);
  ASSERT_TRUE(disguised.ok());

  // A noise model claiming σ = 50 lifts the bound 100-fold, above every
  // eigenvalue: SF falls back to one component -> heavy signal loss. The
  // honest bound (≈ 30) sits below even the bulk level 20 + σ² = 45, so
  // it keeps every direction.
  const Matrix& y = disguised.value().records();
  const auto lying_noise = perturb::NoiseModel::IndependentGaussian(20, 50.0);
  auto eig = linalg::SymmetricEigen(stats::SampleCovariance(y));
  ASSERT_TRUE(eig.ok());
  EXPECT_EQ(SelectSfComponents(eig.value().eigenvalues, lying_noise, 2000), 1u);
  EXPECT_EQ(SelectSfComponents(eig.value().eigenvalues, scheme.noise_model(),
                               2000),
            20u);
  auto strict_hat = SpectralFilteringReconstructor().Reconstruct(y, lying_noise);
  auto default_hat =
      SpectralFilteringReconstructor().Reconstruct(y, scheme.noise_model());
  ASSERT_TRUE(strict_hat.ok());
  ASSERT_TRUE(default_hat.ok());
  const Matrix& x = synthetic.value().dataset.records();
  EXPECT_GT(stats::RootMeanSquareError(x, strict_hat.value()),
            stats::RootMeanSquareError(x, default_hat.value()));
}

TEST(SfTest, DoesNotUseOriginalCovariance) {
  // SF must run on Cov(Y) alone — feed it a noise model whose variance
  // lies and confirm behaviour changes only through the bound.
  stats::Rng rng(145);
  data::SyntheticDatasetSpec spec;
  spec.eigenvalues = data::TwoLevelSpectrum(10, 2, 300.0, 1.0);
  auto synthetic = data::GenerateSpectrumDataset(spec, 1000, &rng);
  ASSERT_TRUE(synthetic.ok());
  auto scheme = perturb::IndependentNoiseScheme::Gaussian(10, 4.0);
  auto disguised = scheme.Disguise(synthetic.value().dataset, &rng);
  ASSERT_TRUE(disguised.ok());
  SpectralFilteringReconstructor sf;
  auto honest = sf.Reconstruct(disguised.value().records(), scheme.noise_model());
  // Lying model (σ = 100): bound explodes, everything filtered down to
  // one component.
  auto lying = sf.Reconstruct(disguised.value().records(),
                              perturb::NoiseModel::IndependentGaussian(10, 100.0));
  ASSERT_TRUE(honest.ok());
  ASSERT_TRUE(lying.ok());
  EXPECT_GT(linalg::MaxAbsDifference(honest.value(), lying.value()), 0.1);
}

TEST(SfTest, RejectsShapeMismatch) {
  SpectralFilteringReconstructor sf;
  EXPECT_FALSE(
      sf.Reconstruct(Matrix(5, 3),
                     perturb::NoiseModel::IndependentGaussian(2, 1.0))
          .ok());
}

TEST(SfTest, NameIsStable) {
  EXPECT_EQ(SpectralFilteringReconstructor().name(), "SF");
}

}  // namespace
}  // namespace core
}  // namespace randrecon
