// Full-pipeline integration tests: generate -> disguise -> (CSV round
// trip) -> attack -> evaluate, exercising the same flow as the examples.

#include <cstdio>

#include <gtest/gtest.h>

#include "core/attack_suite.h"
#include "core/be_dr.h"
#include "data/csv.h"
#include "data/realistic.h"
#include "data/synthetic.h"
#include "linalg/matrix_util.h"
#include "perturb/schemes.h"
#include "stats/dissimilarity.h"
#include "stats/moments.h"
#include "stats/rng.h"

namespace randrecon {
namespace {

using linalg::Matrix;

TEST(EndToEndTest, SyntheticPipelineThroughCsv) {
  // The adversary's realistic position: they receive the disguised table
  // as a *file*, not in memory.
  stats::Rng rng(171);
  data::SyntheticDatasetSpec spec;
  spec.eigenvalues = data::TwoLevelSpectrum(12, 2, 300.0, 1.0);
  auto synthetic = data::GenerateSpectrumDataset(spec, 800, &rng);
  ASSERT_TRUE(synthetic.ok());
  auto scheme = perturb::IndependentNoiseScheme::Gaussian(12, 5.0);
  auto disguised = scheme.Disguise(synthetic.value().dataset, &rng);
  ASSERT_TRUE(disguised.ok());

  const std::string path = ::testing::TempDir() + "/disguised.csv";
  ASSERT_TRUE(data::WriteCsv(disguised.value(), path).ok());
  auto loaded = data::ReadCsv(path);
  ASSERT_TRUE(loaded.ok());
  std::remove(path.c_str());

  core::AttackSuite suite = core::AttackSuite::PaperSuite();
  auto reports = suite.RunAll(synthetic.value().dataset, loaded.value(),
                              scheme.noise_model());
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  // BE-DR must break most of the privacy on this strongly correlated
  // table: RMSE well under the noise floor of 5.
  for (const auto& report : reports.value()) {
    if (report.attack_name == "BE-DR") {
      EXPECT_LT(report.rmse, 2.8);
      EXPECT_GT(report.fraction_within_epsilon, 0.5);
    }
  }
}

TEST(EndToEndTest, MedicalRecordsAttackLeaksSensitiveColumns) {
  // The §3 motivating scenario on the realistic medical table.
  stats::Rng rng(172);
  auto table = data::GenerateLatentFactorTable(data::MedicalRecordsSpec(),
                                               2000, &rng);
  ASSERT_TRUE(table.ok());
  // Disguise every attribute with σ = 20% of its own stddev-scale noise;
  // use a fixed sizable σ in raw units for simplicity.
  auto scheme =
      perturb::IndependentNoiseScheme::Gaussian(table.value().num_attributes(),
                                                10.0);
  auto disguised = scheme.Disguise(table.value(), &rng);
  ASSERT_TRUE(disguised.ok());

  core::BayesEstimateReconstructor be;
  auto x_hat =
      be.Reconstruct(disguised.value().records(), scheme.noise_model());
  ASSERT_TRUE(x_hat.ok());
  auto report = core::EvaluateReconstruction("BE-DR", table.value().records(),
                                             x_hat.value());
  ASSERT_TRUE(report.ok());
  // Strong factor structure: most of the 10-unit noise must be filtered
  // out on the tightly coupled vitals columns.
  auto idx = table.value().AttributeIndex("systolic_bp");
  ASSERT_TRUE(idx.ok());
  EXPECT_LT(report.value().per_attribute_rmse[idx.value()], 8.0);
}

TEST(EndToEndTest, CorrelatedNoiseDefenseRaisesReconstructionError) {
  // §8's defense, end to end: same data, same noise power, noise
  // correlation mimicking the data -> all attacks get worse.
  stats::Rng rng(173);
  data::SyntheticDatasetSpec spec;
  spec.eigenvalues = data::TwoLevelSpectrum(20, 4, 480.0, 1.0);
  auto synthetic = data::GenerateSpectrumDataset(spec, 1200, &rng);
  ASSERT_TRUE(synthetic.ok());
  const double sigma2 = 25.0;
  const double trace_x = linalg::Trace(synthetic.value().covariance);
  const double scale = sigma2 * 20.0 / trace_x;  // Equal total noise power.

  auto iid = perturb::IndependentNoiseScheme::Gaussian(20, 5.0);
  auto mimic = perturb::CorrelatedGaussianScheme::MimicCovariance(
      synthetic.value().covariance, scale);
  ASSERT_TRUE(mimic.ok());

  auto disguised_iid = iid.Disguise(synthetic.value().dataset, &rng);
  auto disguised_mimic = mimic.value().Disguise(synthetic.value().dataset, &rng);
  ASSERT_TRUE(disguised_iid.ok());
  ASSERT_TRUE(disguised_mimic.ok());

  core::BayesEstimateReconstructor be;
  auto hat_iid = be.Reconstruct(disguised_iid.value().records(),
                                iid.noise_model());
  auto hat_mimic = be.Reconstruct(disguised_mimic.value().records(),
                                  mimic.value().noise_model());
  ASSERT_TRUE(hat_iid.ok());
  ASSERT_TRUE(hat_mimic.ok());
  const Matrix& x = synthetic.value().dataset.records();
  const double rmse_iid = stats::RootMeanSquareError(x, hat_iid.value());
  const double rmse_mimic = stats::RootMeanSquareError(x, hat_mimic.value());
  EXPECT_GT(rmse_mimic, 1.5 * rmse_iid);
}

TEST(EndToEndTest, DefenseKeepsAggregateDistributionRecoverable) {
  // §8.1's utility argument: under correlated noise the miner can still
  // recover Σx via Theorem 8.2 — data mining on aggregates survives.
  stats::Rng rng(174);
  data::SyntheticDatasetSpec spec;
  spec.eigenvalues = data::TwoLevelSpectrum(8, 2, 80.0, 2.0);
  auto synthetic = data::GenerateSpectrumDataset(spec, 50000, &rng);
  ASSERT_TRUE(synthetic.ok());
  auto mimic = perturb::CorrelatedGaussianScheme::MimicCovariance(
      synthetic.value().covariance, 0.3);
  ASSERT_TRUE(mimic.ok());
  auto disguised = mimic.value().Disguise(synthetic.value().dataset, &rng);
  ASSERT_TRUE(disguised.ok());

  const Matrix sigma_y = stats::SampleCovariance(disguised.value().records());
  const Matrix recovered = sigma_y - mimic.value().noise_model().covariance();
  EXPECT_LT(linalg::MaxAbsDifference(recovered, synthetic.value().covariance),
            0.06 * linalg::FrobeniusNorm(synthetic.value().covariance));
}

TEST(EndToEndTest, UniformNoiseIsAlsoAttackable) {
  // The attacks only need the noise *variance* (PCA/BE) or pdf (UDR);
  // uniform perturbation is no safer.
  stats::Rng rng(175);
  data::SyntheticDatasetSpec spec;
  spec.eigenvalues = data::TwoLevelSpectrum(15, 3, 400.0, 1.0);
  auto synthetic = data::GenerateSpectrumDataset(spec, 1000, &rng);
  ASSERT_TRUE(synthetic.ok());
  // Uniform noise on [-8.66, 8.66): variance = 25, same power as σ = 5.
  auto scheme = perturb::IndependentNoiseScheme::Uniform(15, 8.6602540378);
  auto disguised = scheme.Disguise(synthetic.value().dataset, &rng);
  ASSERT_TRUE(disguised.ok());

  core::BayesEstimateReconstructor be;
  auto x_hat =
      be.Reconstruct(disguised.value().records(), scheme.noise_model());
  ASSERT_TRUE(x_hat.ok());
  const double rmse = stats::RootMeanSquareError(
      synthetic.value().dataset.records(), x_hat.value());
  EXPECT_LT(rmse, 3.0);  // Noise floor is 5.
}

TEST(EndToEndTest, DissimilarityMetricSeparatesSchemes) {
  stats::Rng rng(176);
  data::SyntheticDatasetSpec spec;
  spec.eigenvalues = data::TwoLevelSpectrum(10, 3, 100.0, 1.0);
  auto synthetic = data::GenerateSpectrumDataset(spec, 4000, &rng);
  ASSERT_TRUE(synthetic.ok());

  auto mimic = perturb::CorrelatedGaussianScheme::MimicCovariance(
      synthetic.value().covariance, 0.25);
  ASSERT_TRUE(mimic.ok());
  auto iid = perturb::IndependentNoiseScheme::Gaussian(10, 5.0);

  const Matrix corr_x =
      linalg::CovarianceToCorrelation(synthetic.value().covariance);
  auto dis_mimic = stats::CorrelationDissimilarity(
      corr_x,
      linalg::CovarianceToCorrelation(mimic.value().noise_model().covariance()));
  auto dis_iid = stats::CorrelationDissimilarity(
      corr_x, linalg::CovarianceToCorrelation(iid.noise_model().covariance()));
  ASSERT_TRUE(dis_mimic.ok());
  ASSERT_TRUE(dis_iid.ok());
  EXPECT_LT(dis_mimic.value(), 1e-9);
  EXPECT_GT(dis_iid.value(), 0.05);
}

}  // namespace
}  // namespace randrecon
