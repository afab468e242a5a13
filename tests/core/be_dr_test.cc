#include "core/be_dr.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/ndr.h"
#include "core/pca_dr.h"
#include "core/udr.h"
#include "data/synthetic.h"
#include "linalg/matrix_util.h"
#include "perturb/schemes.h"
#include "stats/moments.h"
#include "stats/rng.h"

namespace randrecon {
namespace core {
namespace {

using linalg::Matrix;
using linalg::Vector;

struct Scenario {
  data::SyntheticDataset synthetic;
  data::Dataset disguised;
  perturb::NoiseModel noise;
};

Scenario MakeScenario(size_t m, size_t p, double principal, double residual,
                      size_t n, double sigma, uint64_t seed) {
  stats::Rng rng(seed);
  data::SyntheticDatasetSpec spec;
  spec.eigenvalues = data::TwoLevelSpectrum(m, p, principal, residual);
  auto synthetic = data::GenerateSpectrumDataset(spec, n, &rng);
  EXPECT_TRUE(synthetic.ok());
  auto scheme = perturb::IndependentNoiseScheme::Gaussian(m, sigma);
  auto disguised = scheme.Disguise(synthetic.value().dataset, &rng);
  EXPECT_TRUE(disguised.ok());
  return {std::move(synthetic).value(), std::move(disguised).value(),
          scheme.noise_model()};
}

TEST(BeDrTest, BeatsNdrAndUdrOnCorrelatedData) {
  Scenario s = MakeScenario(25, 3, 600.0, 1.0, 1500, 5.0, 121);
  const Matrix& x = s.synthetic.dataset.records();
  BayesEstimateReconstructor be;
  UdrOptions udr_options;
  udr_options.estimator = UdrDensityEstimator::kGaussianClosedForm;
  UdrReconstructor udr(udr_options);
  NdrReconstructor ndr;
  auto be_hat = be.Reconstruct(s.disguised.records(), s.noise);
  auto udr_hat = udr.Reconstruct(s.disguised.records(), s.noise);
  auto ndr_hat = ndr.Reconstruct(s.disguised.records(), s.noise);
  ASSERT_TRUE(be_hat.ok());
  ASSERT_TRUE(udr_hat.ok());
  ASSERT_TRUE(ndr_hat.ok());
  const double be_rmse = stats::RootMeanSquareError(x, be_hat.value());
  EXPECT_LT(be_rmse, stats::RootMeanSquareError(x, udr_hat.value()));
  EXPECT_LT(be_rmse, stats::RootMeanSquareError(x, ndr_hat.value()));
}

TEST(BeDrTest, OracleBeBeatsOraclePca) {
  // §6/§7: "BE-DR achieves better performance than PCA-DR ... consistent
  // throughout all our experiments" — exact statement holds with the
  // §5.3 oracle covariance both schemes share.
  Scenario s = MakeScenario(40, 5, 700.0, 1.0, 1000, 5.0, 122);
  const Matrix original_cov =
      stats::SampleCovariance(s.synthetic.dataset.records());
  BeDrOptions be_options;
  be_options.oracle_covariance = original_cov;
  PcaOptions pca_options;
  pca_options.oracle_covariance = original_cov;
  auto be_hat = BayesEstimateReconstructor(be_options)
                    .Reconstruct(s.disguised.records(), s.noise);
  auto pca_hat = PcaReconstructor(pca_options)
                     .Reconstruct(s.disguised.records(), s.noise);
  ASSERT_TRUE(be_hat.ok());
  ASSERT_TRUE(pca_hat.ok());
  const Matrix& x = s.synthetic.dataset.records();
  EXPECT_LT(stats::RootMeanSquareError(x, be_hat.value()),
            stats::RootMeanSquareError(x, pca_hat.value()));
}

TEST(BeDrTest, LiteralFormulaMatchesGainForm) {
  // Eq. 11 evaluated verbatim must agree with the default gain form when
  // Σ̂x is invertible.
  Scenario s = MakeScenario(8, 2, 100.0, 2.0, 600, 3.0, 123);
  BeDrOptions literal;
  literal.use_literal_formula = true;
  literal.moment_options.eigen_floor = 1e-6;
  BeDrOptions gain;
  gain.moment_options.eigen_floor = 1e-6;
  auto literal_hat = BayesEstimateReconstructor(literal).Reconstruct(
      s.disguised.records(), s.noise);
  auto gain_hat = BayesEstimateReconstructor(gain).Reconstruct(
      s.disguised.records(), s.noise);
  ASSERT_TRUE(literal_hat.ok()) << literal_hat.status().ToString();
  ASSERT_TRUE(gain_hat.ok());
  EXPECT_LT(linalg::MaxAbsDifference(literal_hat.value(), gain_hat.value()),
            1e-6);
}

TEST(BeDrTest, Theorem81LiteralMatchesGainFormUnderCorrelatedNoise) {
  stats::Rng rng(124);
  data::SyntheticDatasetSpec spec;
  spec.eigenvalues = data::TwoLevelSpectrum(6, 2, 80.0, 2.0);
  auto synthetic = data::GenerateSpectrumDataset(spec, 800, &rng);
  ASSERT_TRUE(synthetic.ok());
  auto scheme = perturb::CorrelatedGaussianScheme::MimicCovariance(
      synthetic.value().covariance, 0.2);
  ASSERT_TRUE(scheme.ok());
  auto disguised = scheme.value().Disguise(synthetic.value().dataset, &rng);
  ASSERT_TRUE(disguised.ok());

  BeDrOptions literal;
  literal.use_literal_formula = true;
  literal.moment_options.eigen_floor = 1e-6;
  BeDrOptions gain;
  gain.moment_options.eigen_floor = 1e-6;
  auto literal_hat = BayesEstimateReconstructor(literal).Reconstruct(
      disguised.value().records(), scheme.value().noise_model());
  auto gain_hat = BayesEstimateReconstructor(gain).Reconstruct(
      disguised.value().records(), scheme.value().noise_model());
  ASSERT_TRUE(literal_hat.ok()) << literal_hat.status().ToString();
  ASSERT_TRUE(gain_hat.ok());
  EXPECT_LT(linalg::MaxAbsDifference(literal_hat.value(), gain_hat.value()),
            1e-6);
}

TEST(BeDrTest, IndependentDataReducesToUnivariateShrinkage) {
  // §6: "when the correlations among data are low ... the results of
  // BE-DR should converge to the univariate data reconstruction."
  stats::Rng rng(125);
  const size_t n = 8000, m = 4;
  const double sx = 4.0, sigma = 3.0;
  Matrix x(n, m);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) x(i, j) = rng.Gaussian(0.0, sx);
  }
  auto scheme = perturb::IndependentNoiseScheme::Gaussian(m, sigma);
  Matrix y = x + scheme.GenerateNoise(n, &rng);

  BayesEstimateReconstructor be;
  UdrOptions udr_options;
  udr_options.estimator = UdrDensityEstimator::kGaussianClosedForm;
  UdrReconstructor udr(udr_options);
  auto be_hat = be.Reconstruct(y, scheme.noise_model());
  auto udr_hat = udr.Reconstruct(y, scheme.noise_model());
  ASSERT_TRUE(be_hat.ok());
  ASSERT_TRUE(udr_hat.ok());
  const double be_rmse = stats::RootMeanSquareError(x, be_hat.value());
  const double udr_rmse = stats::RootMeanSquareError(x, udr_hat.value());
  EXPECT_NEAR(be_rmse, udr_rmse, 0.05 * udr_rmse);
}

TEST(BeDrTest, GainFormHandlesSingularEstimatedCovariance) {
  // Strong rank deficiency: m = 10 but rank 1. The gain form must not
  // fail even though Σ̂x is (near-)singular.
  Scenario s = MakeScenario(10, 1, 500.0, 0.0, 400, 2.0, 126);
  BayesEstimateReconstructor be;
  auto x_hat = be.Reconstruct(s.disguised.records(), s.noise);
  ASSERT_TRUE(x_hat.ok()) << x_hat.status().ToString();
}

TEST(BeDrTest, LiteralFormulaFailsGracefullyOnSingularCovariance) {
  Scenario s = MakeScenario(2, 1, 50.0, 1.0, 300, 2.0, 127);
  BeDrOptions literal;
  literal.use_literal_formula = true;
  // An exactly singular prior covariance: Eq. 11 needs Σx⁻¹, which does
  // not exist; the gain form handles the same input fine.
  literal.oracle_covariance = Matrix::Diagonal({4.0, 0.0});
  auto x_hat = BayesEstimateReconstructor(literal).Reconstruct(
      s.disguised.records(), s.noise);
  EXPECT_FALSE(x_hat.ok());
  EXPECT_EQ(x_hat.status().code(), StatusCode::kNumericalError);
  EXPECT_NE(x_hat.status().message().find("eigen_floor"), std::string::npos);

  BeDrOptions gain;
  gain.oracle_covariance = Matrix::Diagonal({4.0, 0.0});
  EXPECT_TRUE(BayesEstimateReconstructor(gain)
                  .Reconstruct(s.disguised.records(), s.noise)
                  .ok());
}

TEST(BeDrTest, OracleMeanIsUsed) {
  Scenario s = MakeScenario(5, 1, 50.0, 1.0, 300, 2.0, 128);
  BeDrOptions options;
  options.oracle_mean = Vector(5, 1000.0);  // Deliberately absurd prior mean.
  auto biased = BayesEstimateReconstructor(options).Reconstruct(
      s.disguised.records(), s.noise);
  auto normal = BayesEstimateReconstructor().Reconstruct(
      s.disguised.records(), s.noise);
  ASSERT_TRUE(biased.ok());
  ASSERT_TRUE(normal.ok());
  // The absurd prior mean must pull the reconstruction away.
  EXPECT_GT(linalg::MaxAbsDifference(biased.value(), normal.value()), 1.0);
}

TEST(BeDrTest, OracleDimensionValidation) {
  Scenario s = MakeScenario(5, 1, 50.0, 1.0, 300, 2.0, 129);
  BeDrOptions bad_cov;
  bad_cov.oracle_covariance = Matrix::Identity(3);
  EXPECT_FALSE(BayesEstimateReconstructor(bad_cov)
                   .Reconstruct(s.disguised.records(), s.noise)
                   .ok());
  BeDrOptions bad_mean;
  bad_mean.oracle_mean = Vector(3, 0.0);
  EXPECT_FALSE(BayesEstimateReconstructor(bad_mean)
                   .Reconstruct(s.disguised.records(), s.noise)
                   .ok());
}

TEST(BeDrTest, ZeroNoiseLimitReturnsDataUnchanged) {
  // As σ → 0 the gain K → I and BE-DR trusts the observation completely.
  Scenario s = MakeScenario(6, 2, 100.0, 1.0, 500, 0.01, 130);
  BayesEstimateReconstructor be;
  auto x_hat = be.Reconstruct(s.disguised.records(), s.noise);
  ASSERT_TRUE(x_hat.ok());
  EXPECT_LT(linalg::MaxAbsDifference(x_hat.value(), s.disguised.records()),
            0.05);
}

TEST(BeDrTest, HugeNoiseShrinksToMean) {
  // As σ → ∞ the posterior collapses onto the prior mean.
  Scenario s = MakeScenario(4, 2, 10.0, 1.0, 2000, 1000.0, 131);
  BeDrOptions options;
  options.oracle_covariance = s.synthetic.covariance;
  options.oracle_mean = Vector(4, 0.0);
  auto x_hat = BayesEstimateReconstructor(options).Reconstruct(
      s.disguised.records(), s.noise);
  ASSERT_TRUE(x_hat.ok());
  for (size_t i = 0; i < 20; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_LT(std::fabs(x_hat.value()(i, j)), 1.0);
    }
  }
}

TEST(BeDrTest, NameIsStable) {
  EXPECT_EQ(BayesEstimateReconstructor().name(), "BE-DR");
}

}  // namespace
}  // namespace core
}  // namespace randrecon
