#include "perturb/schemes.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "linalg/eigen.h"
#include "linalg/matrix_util.h"
#include "linalg/vector_ops.h"
#include "stats/moments.h"
#include "stats/random_orthogonal.h"
#include "stats/rng.h"

namespace randrecon {
namespace perturb {
namespace {

using linalg::Matrix;
using linalg::Vector;

TEST(IndependentSchemeTest, NoiseMomentsMatchSpec) {
  auto scheme = IndependentNoiseScheme::Gaussian(3, 4.0);
  stats::Rng rng(81);
  Matrix noise = scheme.GenerateNoise(30000, &rng);
  const Vector means = stats::ColumnMeans(noise);
  const Vector vars = stats::ColumnVariances(noise);
  for (size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(means[j], 0.0, 0.1);
    EXPECT_NEAR(vars[j], 16.0, 0.5);
  }
}

TEST(IndependentSchemeTest, NoiseColumnsAreUncorrelated) {
  auto scheme = IndependentNoiseScheme::Gaussian(3, 2.0);
  stats::Rng rng(82);
  Matrix noise = scheme.GenerateNoise(30000, &rng);
  const Matrix corr = stats::SampleCorrelation(noise);
  EXPECT_NEAR(corr(0, 1), 0.0, 0.03);
  EXPECT_NEAR(corr(0, 2), 0.0, 0.03);
  EXPECT_NEAR(corr(1, 2), 0.0, 0.03);
}

TEST(IndependentSchemeTest, UniformNoiseBoundedAndZeroMean) {
  auto scheme = IndependentNoiseScheme::Uniform(2, 3.0);
  stats::Rng rng(83);
  Matrix noise = scheme.GenerateNoise(5000, &rng);
  for (size_t i = 0; i < noise.rows(); ++i) {
    for (size_t j = 0; j < 2; ++j) {
      EXPECT_GE(noise(i, j), -3.0);
      EXPECT_LT(noise(i, j), 3.0);
    }
  }
  EXPECT_NEAR(stats::ColumnMeans(noise)[0], 0.0, 0.1);
  EXPECT_DOUBLE_EQ(scheme.noise_model().Variance(0), 3.0);  // (2·3)²/12.
}

TEST(DisguiseTest, DisguisedEqualsOriginalPlusNoise) {
  auto scheme = IndependentNoiseScheme::Gaussian(2, 1.0);
  Matrix x{{1.0, 2.0}, {3.0, 4.0}};
  data::Dataset original(x);
  // Same seed twice: once through Disguise, once through GenerateNoise.
  stats::Rng rng1(84), rng2(84);
  auto disguised = scheme.Disguise(original, &rng1);
  ASSERT_TRUE(disguised.ok());
  Matrix expected_noise = scheme.GenerateNoise(2, &rng2);
  EXPECT_LT(linalg::MaxAbsDifference(disguised.value().records(),
                                     x + expected_noise),
            1e-12);
  // Attribute names preserved.
  EXPECT_EQ(disguised.value().attribute_names(), original.attribute_names());
}

TEST(DisguiseTest, RejectsAttributeMismatch) {
  auto scheme = IndependentNoiseScheme::Gaussian(3, 1.0);
  data::Dataset original(Matrix(5, 2));
  stats::Rng rng(85);
  EXPECT_FALSE(scheme.Disguise(original, &rng).ok());
}

TEST(CorrelatedSchemeTest, NoiseCovarianceMatchesSigmaR) {
  Matrix sigma_r{{4.0, 1.5}, {1.5, 3.0}};
  auto scheme = CorrelatedGaussianScheme::Create(sigma_r);
  ASSERT_TRUE(scheme.ok());
  stats::Rng rng(86);
  Matrix noise = scheme.value().GenerateNoise(40000, &rng);
  EXPECT_LT(
      linalg::MaxAbsDifference(stats::SampleCovariance(noise), sigma_r), 0.15);
  EXPECT_TRUE(scheme.value().noise_model().is_correlated());
}

TEST(CorrelatedSchemeTest, MimicCovarianceScales) {
  Matrix sigma_x{{10.0, 5.0}, {5.0, 8.0}};
  auto scheme = CorrelatedGaussianScheme::MimicCovariance(sigma_x, 0.5);
  ASSERT_TRUE(scheme.ok());
  EXPECT_LT(linalg::MaxAbsDifference(scheme.value().noise_model().covariance(),
                                     sigma_x * 0.5),
            1e-12);
}

TEST(CorrelatedSchemeTest, MimicPreservesCorrelationStructure) {
  // §8.1: Σr ∝ Σx means identical correlation-coefficient matrices.
  Matrix sigma_x{{10.0, 5.0}, {5.0, 8.0}};
  auto scheme = CorrelatedGaussianScheme::MimicCovariance(sigma_x, 0.25);
  ASSERT_TRUE(scheme.ok());
  EXPECT_LT(linalg::MaxAbsDifference(
                linalg::CovarianceToCorrelation(sigma_x),
                linalg::CovarianceToCorrelation(
                    scheme.value().noise_model().covariance())),
            1e-12);
}

TEST(CorrelatedSchemeTest, MimicRejectsNonPositiveScale) {
  EXPECT_FALSE(
      CorrelatedGaussianScheme::MimicCovariance(Matrix::Identity(2), 0.0).ok());
}

TEST(CorrelatedSchemeTest, FromEigenstructureComposesCovariance) {
  stats::Rng rng(87);
  Matrix q = stats::RandomOrthogonalMatrix(4, &rng);
  const Vector noise_ev{8.0, 4.0, 2.0, 1.0};
  auto scheme = CorrelatedGaussianScheme::FromEigenstructure(q, noise_ev);
  ASSERT_TRUE(scheme.ok());
  auto eig =
      linalg::SymmetricEigen(scheme.value().noise_model().covariance());
  ASSERT_TRUE(eig.ok());
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(eig.value().eigenvalues[i], noise_ev[i], 1e-9);
  }
}

TEST(CorrelatedSchemeTest, FromEigenstructureValidation) {
  stats::Rng rng(88);
  Matrix q = stats::RandomOrthogonalMatrix(3, &rng);
  EXPECT_FALSE(
      CorrelatedGaussianScheme::FromEigenstructure(q, {1.0, 2.0}).ok());
  EXPECT_FALSE(
      CorrelatedGaussianScheme::FromEigenstructure(q, {1.0, 2.0, -1.0}).ok());
  Matrix not_orthogonal = q * 2.0;
  EXPECT_FALSE(CorrelatedGaussianScheme::FromEigenstructure(
                   not_orthogonal, {1.0, 2.0, 3.0})
                   .ok());
}

TEST(CorrelatedSchemeTest, CreateRejectsNonPsd) {
  EXPECT_FALSE(
      CorrelatedGaussianScheme::Create(Matrix::Diagonal({1.0, -2.0})).ok());
}

TEST(InterpolateSpectraTest, EndpointsAndMidpoint) {
  const Vector a{10.0, 0.0};
  const Vector b{0.0, 10.0};
  EXPECT_EQ(InterpolateSpectra(a, b, 0.0), a);
  EXPECT_EQ(InterpolateSpectra(a, b, 1.0), b);
  EXPECT_EQ(InterpolateSpectra(a, b, 0.5), (Vector{5.0, 5.0}));
}

TEST(InterpolateSpectraTest, PreservesTotalMass) {
  const Vector a{8.0, 2.0, 0.0};
  const Vector b{1.0, 4.0, 5.0};
  for (double t : {0.1, 0.3, 0.7}) {
    const Vector mix = InterpolateSpectra(a, b, t);
    EXPECT_NEAR(linalg::Sum(mix), 10.0, 1e-12);
  }
}

TEST(InterpolateSpectraDeathTest, RejectsBadArguments) {
  EXPECT_DEATH({ InterpolateSpectra({1.0}, {1.0, 2.0}, 0.5); }, "RR_CHECK");
  EXPECT_DEATH({ InterpolateSpectra({1.0}, {2.0}, 1.5); }, "out of");
}

TEST(Theorem82Test, DisguisedCovarianceIsSumOfParts) {
  // Σy = Σx + Σr on real sampled data (Theorem 8.2).
  stats::Rng rng(89);
  data::SyntheticDatasetSpec spec;
  spec.eigenvalues = {30.0, 10.0, 2.0};
  auto synthetic = data::GenerateSpectrumDataset(spec, 60000, &rng);
  ASSERT_TRUE(synthetic.ok());
  Matrix sigma_r{{5.0, 2.0, 0.0}, {2.0, 5.0, 1.0}, {0.0, 1.0, 5.0}};
  auto scheme = CorrelatedGaussianScheme::Create(sigma_r);
  ASSERT_TRUE(scheme.ok());
  auto disguised = scheme.value().Disguise(synthetic.value().dataset, &rng);
  ASSERT_TRUE(disguised.ok());
  const Matrix sigma_y =
      stats::SampleCovariance(disguised.value().records());
  const Matrix expected = synthetic.value().covariance + sigma_r;
  EXPECT_LT(linalg::MaxAbsDifference(sigma_y, expected),
            0.05 * linalg::FrobeniusNorm(expected));
}

TEST(SchemesTest, AddNoiseAtMatchesIndependentNoiseStatistics) {
  const auto scheme = IndependentNoiseScheme::Gaussian(3, 2.0);
  const size_t n = 60000;
  Matrix chunk(n, 3, 0.0);
  scheme.AddNoiseAt(stats::Philox(17, 0), 0, n, &chunk);
  const Matrix cov = stats::SampleCovariance(chunk);
  EXPECT_NEAR(cov(0, 0), 4.0, 0.15);
  EXPECT_NEAR(cov(1, 1), 4.0, 0.15);
  EXPECT_NEAR(cov(0, 1), 0.0, 0.1);
  const linalg::Vector means = stats::ColumnMeans(chunk);
  for (size_t j = 0; j < 3; ++j) EXPECT_NEAR(means[j], 0.0, 0.05);
}

TEST(SchemesTest, AddNoiseAtIsSplitInvariant) {
  // Adding noise for [0, n) in one call equals any sequence of
  // consecutive-range calls — the chunk-size invariance the perturbing
  // record source builds on.
  const auto scheme = IndependentNoiseScheme::Uniform(2, 1.5);
  const stats::Philox base(3, 2);
  const size_t n = 700;
  Matrix whole(n, 2, 0.0);
  scheme.AddNoiseAt(base, 0, n, &whole);
  for (size_t chunk_rows : {size_t{1}, size_t{7}, size_t{64}, size_t{256}}) {
    Matrix pieces(n, 2, 0.0);
    for (size_t begin = 0; begin < n; begin += chunk_rows) {
      const size_t rows = std::min(chunk_rows, n - begin);
      Matrix piece(rows, 2, 0.0);
      scheme.AddNoiseAt(base, begin, rows, &piece);
      for (size_t i = 0; i < rows; ++i) {
        for (size_t j = 0; j < 2; ++j) pieces(begin + i, j) = piece(i, j);
      }
    }
    EXPECT_EQ(linalg::MaxAbsDifference(whole, pieces), 0.0)
        << "chunk " << chunk_rows;
  }
}

TEST(SchemesTest, VectorizedOverrideKeepsTheBaseStream) {
  // IndependentNoiseScheme's vectorized AddNoiseAt is an optimization of
  // the base path (GenerateNoise per generation block), not a second
  // stream: scalar draws equal the batch fills they replace.
  const stats::Philox base(41, 0);
  const size_t n = 600;
  for (const auto& scheme : {IndependentNoiseScheme::Gaussian(3, 2.0),
                             IndependentNoiseScheme::Uniform(3, 1.5)}) {
    Matrix vectorized(n, 3, 0.0);
    scheme.AddNoiseAt(base, 5, n, &vectorized);
    Matrix generic(n, 3, 0.0);
    scheme.RandomizationScheme::AddNoiseAt(base, 5, n, &generic);
    EXPECT_EQ(linalg::MaxAbsDifference(vectorized, generic), 0.0)
        << scheme.noise_model().Marginal(0).ToString();
  }
}

TEST(SchemesTest, CorrelatedNoiseIsTheMvnRecordStream) {
  // Block b of correlated noise is SampleMatrix over base.Substream(b),
  // i.e. the sampler's own record stream over `base`.
  const Matrix sigma_r{{4.0, 1.2}, {1.2, 2.0}};
  auto scheme = CorrelatedGaussianScheme::Create(sigma_r);
  ASSERT_TRUE(scheme.ok());
  auto sampler = stats::MultivariateNormalSampler::CreateZeroMean(sigma_r);
  ASSERT_TRUE(sampler.ok());
  const stats::Philox base(9, 4);
  const size_t n = 700;
  Matrix noise(n, 2, 0.0);
  scheme.value().AddNoiseAt(base, 100, n, &noise);
  Matrix records(n, 2);
  sampler.value().SampleRecordsAt(base, 100, n, &records);
  EXPECT_EQ(linalg::MaxAbsDifference(noise, records), 0.0);
}

TEST(SchemesTest, CorrelatedAddNoiseAtReproducesCovariance) {
  Matrix sigma_r{{4.0, 1.2}, {1.2, 2.0}};
  auto scheme = CorrelatedGaussianScheme::Create(sigma_r);
  ASSERT_TRUE(scheme.ok());
  const size_t n = 60000;
  Matrix chunk(n, 2, 0.0);
  scheme.value().AddNoiseAt(stats::Philox(23, 0), 0, n, &chunk);
  const Matrix cov = stats::SampleCovariance(chunk);
  EXPECT_LT(linalg::MaxAbsDifference(cov, sigma_r),
            0.05 * linalg::FrobeniusNorm(sigma_r));
}

}  // namespace
}  // namespace perturb
}  // namespace randrecon
