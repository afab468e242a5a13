#include "core/numerical_bayes.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/be_dr.h"
#include "data/synthetic.h"
#include "linalg/matrix_util.h"
#include "linalg/vector_ops.h"
#include "perturb/schemes.h"
#include "stats/moments.h"
#include "stats/rng.h"

namespace randrecon {
namespace core {
namespace {

using linalg::Matrix;
using linalg::Vector;

GaussianMixturePrior SingleComponent(const Vector& mean,
                                     const Matrix& covariance) {
  auto prior = GaussianMixturePrior::Create(
      {GaussianComponent{1.0, mean, covariance}});
  EXPECT_TRUE(prior.ok()) << prior.status().ToString();
  return std::move(prior).value();
}

TEST(GaussianMixturePriorTest, CreateValidation) {
  EXPECT_FALSE(GaussianMixturePrior::Create({}).ok());
  // Dimension mismatch between components.
  EXPECT_FALSE(GaussianMixturePrior::Create(
                   {GaussianComponent{1.0, {0.0}, Matrix::Identity(1)},
                    GaussianComponent{1.0, {0.0, 0.0}, Matrix::Identity(2)}})
                   .ok());
  // Non-positive weight.
  EXPECT_FALSE(GaussianMixturePrior::Create(
                   {GaussianComponent{0.0, {0.0}, Matrix::Identity(1)}})
                   .ok());
  // Indefinite covariance.
  EXPECT_FALSE(GaussianMixturePrior::Create(
                   {GaussianComponent{1.0, {0.0, 0.0},
                                      Matrix::Diagonal({1.0, -1.0})}})
                   .ok());
}

TEST(GaussianMixturePriorTest, SingleGaussianLogDensity) {
  GaussianMixturePrior prior =
      SingleComponent({0.0, 0.0}, Matrix::Identity(2));
  // N(0; 0, I2) density = 1/(2π).
  EXPECT_NEAR(prior.LogDensity({0.0, 0.0}), -std::log(2.0 * M_PI), 1e-10);
  // One unit away: subtract 1/2.
  EXPECT_NEAR(prior.LogDensity({1.0, 0.0}), -std::log(2.0 * M_PI) - 0.5,
              1e-10);
}

TEST(GaussianMixturePriorTest, GradientMatchesFiniteDifferences) {
  std::vector<GaussianComponent> components;
  components.push_back(
      {0.4, {1.0, -2.0}, Matrix{{2.0, 0.5}, {0.5, 1.0}}});
  components.push_back(
      {0.6, {-3.0, 4.0}, Matrix{{1.5, -0.2}, {-0.2, 0.8}}});
  auto prior = GaussianMixturePrior::Create(std::move(components));
  ASSERT_TRUE(prior.ok());
  const Vector x{0.3, 0.7};
  const Vector gradient = prior.value().LogDensityGradient(x);
  const double h = 1e-6;
  for (size_t j = 0; j < 2; ++j) {
    Vector plus = x, minus = x;
    plus[j] += h;
    minus[j] -= h;
    const double numeric = (prior.value().LogDensity(plus) -
                            prior.value().LogDensity(minus)) /
                           (2.0 * h);
    EXPECT_NEAR(gradient[j], numeric, 1e-5) << "j=" << j;
  }
}

TEST(GaussianMixturePriorTest, WeightsAreNormalized) {
  auto prior = GaussianMixturePrior::Create(
      {GaussianComponent{3.0, {0.0}, Matrix::Identity(1)},
       GaussianComponent{1.0, {5.0}, Matrix::Identity(1)}});
  ASSERT_TRUE(prior.ok());
  EXPECT_NEAR(prior.value().component(0).weight, 0.75, 1e-12);
  EXPECT_NEAR(prior.value().component(1).weight, 0.25, 1e-12);
}

TEST(NumericalBayesTest, SingleComponentMatchesClosedFormEq11) {
  // With one Gaussian component the MAP optimum is Eq. 11; the gradient
  // ascent must land on the same reconstruction BE-DR computes.
  stats::Rng rng(241);
  data::SyntheticDatasetSpec spec;
  spec.eigenvalues = data::TwoLevelSpectrum(5, 2, 60.0, 2.0);
  auto synthetic = data::GenerateSpectrumDataset(spec, 200, &rng);
  ASSERT_TRUE(synthetic.ok());
  auto scheme = perturb::IndependentNoiseScheme::Gaussian(5, 3.0);
  auto disguised = scheme.Disguise(synthetic.value().dataset, &rng);
  ASSERT_TRUE(disguised.ok());

  const Matrix original_cov =
      stats::SampleCovariance(synthetic.value().dataset.records());
  const Vector original_mean =
      stats::ColumnMeans(synthetic.value().dataset.records());

  NumericalBayesReconstructor numerical(
      SingleComponent(original_mean, original_cov));
  BeDrOptions closed_options;
  closed_options.oracle_covariance = original_cov;
  closed_options.oracle_mean = original_mean;
  BayesEstimateReconstructor closed(closed_options);

  auto numerical_hat =
      numerical.Reconstruct(disguised.value().records(), scheme.noise_model());
  auto closed_hat =
      closed.Reconstruct(disguised.value().records(), scheme.noise_model());
  ASSERT_TRUE(numerical_hat.ok()) << numerical_hat.status().ToString();
  ASSERT_TRUE(closed_hat.ok());
  EXPECT_LT(
      linalg::MaxAbsDifference(numerical_hat.value(), closed_hat.value()),
      1e-4);
}

TEST(NumericalBayesTest, MixturePriorBeatsSingleGaussianOnClusteredData) {
  // Two well-separated clusters: BE-DR's single-Gaussian prior smears
  // them; the mixture-prior MAP snaps records toward the right cluster.
  stats::Rng rng(242);
  Matrix means{{-15.0, -15.0, -15.0, -15.0}, {15.0, 15.0, 15.0, 15.0}};
  auto mixture = data::GenerateGaussianMixtureDataset(
      means, Vector{8.0, 4.0, 2.0, 1.0}, 600, &rng);
  ASSERT_TRUE(mixture.ok()) << mixture.status().ToString();
  const Matrix& x = mixture.value().dataset.records();

  const double sigma = 6.0;
  auto scheme = perturb::IndependentNoiseScheme::Gaussian(4, sigma);
  Matrix y = x + scheme.GenerateNoise(600, &rng);

  // The numerical attack with the true mixture prior.
  std::vector<GaussianComponent> components;
  for (size_t k = 0; k < 2; ++k) {
    components.push_back(GaussianComponent{
        0.5, means.Row(k), mixture.value().within_covariance});
  }
  auto prior = GaussianMixturePrior::Create(std::move(components));
  ASSERT_TRUE(prior.ok());
  NumericalBayesReconstructor numerical(std::move(prior).value());
  auto nb_hat = numerical.Reconstruct(y, scheme.noise_model());
  ASSERT_TRUE(nb_hat.ok());

  // Plain BE-DR (single Gaussian fitted to the pooled data).
  BayesEstimateReconstructor be;
  auto be_hat = be.Reconstruct(y, scheme.noise_model());
  ASSERT_TRUE(be_hat.ok());

  const double nb_rmse = stats::RootMeanSquareError(x, nb_hat.value());
  const double be_rmse = stats::RootMeanSquareError(x, be_hat.value());
  EXPECT_LT(nb_rmse, 0.8 * be_rmse);
  EXPECT_LT(nb_rmse, sigma);  // It must actually filter noise.
}

TEST(NumericalBayesTest, WorksWithCorrelatedNoiseModel) {
  stats::Rng rng(243);
  const Vector mean(3, 0.0);
  Matrix cov = Matrix::Diagonal({30.0, 20.0, 10.0});
  auto noise_model = perturb::NoiseModel::CorrelatedGaussian(
      Matrix{{4.0, 1.0, 0.0}, {1.0, 4.0, 1.0}, {0.0, 1.0, 4.0}});
  ASSERT_TRUE(noise_model.ok());
  NumericalBayesReconstructor numerical(SingleComponent(mean, cov));
  Matrix y = rng.GaussianMatrix(50, 3);
  auto x_hat = numerical.Reconstruct(y, noise_model.value());
  ASSERT_TRUE(x_hat.ok()) << x_hat.status().ToString();
  EXPECT_EQ(x_hat.value().rows(), 50u);
}

TEST(NumericalBayesTest, ValidationErrors) {
  NumericalBayesReconstructor numerical(
      SingleComponent({0.0, 0.0}, Matrix::Identity(2)));
  // Prior dimension mismatch.
  EXPECT_FALSE(numerical
                   .Reconstruct(Matrix(10, 3),
                                perturb::NoiseModel::IndependentGaussian(3, 1.0))
                   .ok());
  // Shape mismatch between data and noise model.
  EXPECT_FALSE(numerical
                   .Reconstruct(Matrix(10, 2),
                                perturb::NoiseModel::IndependentGaussian(3, 1.0))
                   .ok());
}

TEST(NumericalBayesTest, NameIsStable) {
  NumericalBayesReconstructor numerical(
      SingleComponent({0.0}, Matrix::Identity(1)));
  EXPECT_EQ(numerical.name(), "NB-DR");
}

}  // namespace
}  // namespace core
}  // namespace randrecon
