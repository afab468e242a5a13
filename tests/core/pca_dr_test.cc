#include "core/pca_dr.h"

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/ndr.h"
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

/// Standard fixture data: spiked spectrum, disguised with iid Gaussian σ.
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

TEST(SelectNumComponentsTest, FixedCountClamped) {
  PcaOptions options;
  options.selection = PcSelection::kFixedCount;
  options.fixed_count = 3;
  EXPECT_EQ(SelectNumComponents({9, 8, 7, 6}, options), 3u);
  options.fixed_count = 99;
  EXPECT_EQ(SelectNumComponents({9, 8, 7, 6}, options), 4u);
  options.fixed_count = 0;
  EXPECT_EQ(SelectNumComponents({9, 8, 7, 6}, options), 1u);
}

TEST(SelectNumComponentsTest, VarianceFraction) {
  PcaOptions options;
  options.selection = PcSelection::kVarianceFraction;
  options.variance_fraction = 0.90;
  // 100 + 80 = 180 of 200 = 90%.
  EXPECT_EQ(SelectNumComponents({100, 80, 15, 5}, options), 2u);
  options.variance_fraction = 0.91;
  EXPECT_EQ(SelectNumComponents({100, 80, 15, 5}, options), 3u);
  options.variance_fraction = 1.0;
  EXPECT_EQ(SelectNumComponents({100, 80, 15, 5}, options), 4u);
}

TEST(SelectNumComponentsTest, VarianceFractionIgnoresNegatives) {
  PcaOptions options;
  options.selection = PcSelection::kVarianceFraction;
  options.variance_fraction = 0.99;
  EXPECT_EQ(SelectNumComponents({10, -5, -5}, options), 1u);
}

TEST(SelectNumComponentsTest, LargestGapFindsTwoLevelSplit) {
  PcaOptions options;  // Default kLargestGap.
  EXPECT_EQ(SelectNumComponents({400, 399, 398, 5, 4, 3}, options), 3u);
  EXPECT_EQ(SelectNumComponents({1000, 2, 1}, options), 1u);
}

TEST(SelectNumComponentsTest, LargestGapFlatSpectrumKeepsAll) {
  // No dominant structure -> p = m (the dominance check).
  PcaOptions options;
  EXPECT_EQ(SelectNumComponents({100, 99, 98, 97}, options), 4u);
  EXPECT_EQ(SelectNumComponents({1.0}, options), 1u);
}

TEST(SelectNumComponentsTest, GapDominanceCutsAtHalf) {
  // The gap counts only if the eigenvalue after it is at most half the one
  // before it.
  PcaOptions options;
  // λ2/λ1 = 0.49 and 0.5: accepted as a gap.
  EXPECT_EQ(SelectNumComponents({100, 49, 48}, options), 1u);
  EXPECT_EQ(SelectNumComponents({100, 50, 49}, options), 1u);
  // λ2/λ1 = 0.51: rejected, keep all.
  EXPECT_EQ(SelectNumComponents({100, 51, 50}, options), 3u);
}

TEST(PcaDrTest, FullRankProjectionReturnsDisguisedData) {
  // §5.2.2: "If p = m ... the reconstruction procedure gets back to Y."
  Scenario s = MakeScenario(6, 2, 50.0, 5.0, 400, 2.0, 111);
  PcaOptions options;
  options.selection = PcSelection::kFixedCount;
  options.fixed_count = 6;
  PcaReconstructor pca(options);
  auto x_hat = pca.Reconstruct(s.disguised.records(), s.noise);
  ASSERT_TRUE(x_hat.ok());
  EXPECT_LT(linalg::MaxAbsDifference(x_hat.value(), s.disguised.records()),
            1e-8);
}

TEST(PcaDrTest, BeatsNdrOnCorrelatedData) {
  Scenario s = MakeScenario(30, 3, 500.0, 1.0, 1000, 5.0, 112);
  PcaReconstructor pca;
  NdrReconstructor ndr;
  auto pca_hat = pca.Reconstruct(s.disguised.records(), s.noise);
  auto ndr_hat = ndr.Reconstruct(s.disguised.records(), s.noise);
  ASSERT_TRUE(pca_hat.ok());
  ASSERT_TRUE(ndr_hat.ok());
  const Matrix& x = s.synthetic.dataset.records();
  EXPECT_LT(stats::RootMeanSquareError(x, pca_hat.value()),
            0.6 * stats::RootMeanSquareError(x, ndr_hat.value()));
}

TEST(PcaDrTest, DiagnosticsReportSelectedComponents) {
  Scenario s = MakeScenario(20, 4, 300.0, 1.0, 2000, 5.0, 113);
  PcaReconstructor pca;
  PcaDiagnostics diagnostics;
  auto x_hat = pca.ReconstructWithDiagnostics(s.disguised.records(), s.noise,
                                              &diagnostics);
  ASSERT_TRUE(x_hat.ok());
  EXPECT_EQ(diagnostics.num_components, 4u);  // Gap rule finds the truth.
  EXPECT_EQ(diagnostics.eigenvalues.size(), 20u);
  EXPECT_GT(diagnostics.retained_variance_fraction, 0.9);
}

TEST(PcaDrTest, OracleCovarianceModeWorks) {
  Scenario s = MakeScenario(15, 3, 200.0, 1.0, 800, 5.0, 114);
  PcaOptions options;
  options.oracle_covariance = s.synthetic.covariance;
  PcaReconstructor pca(options);
  PcaDiagnostics diagnostics;
  auto x_hat = pca.ReconstructWithDiagnostics(s.disguised.records(), s.noise,
                                              &diagnostics);
  ASSERT_TRUE(x_hat.ok());
  EXPECT_EQ(diagnostics.num_components, 3u);
  // Oracle eigenvalues are exact.
  EXPECT_NEAR(diagnostics.eigenvalues[0], 200.0, 1e-6);
  EXPECT_NEAR(diagnostics.eigenvalues[3], 1.0, 1e-6);
}

TEST(PcaDrTest, OracleDimensionMismatchRejected) {
  Scenario s = MakeScenario(5, 2, 50.0, 1.0, 100, 2.0, 115);
  PcaOptions options;
  options.oracle_covariance = Matrix::Identity(4);
  PcaReconstructor pca(options);
  EXPECT_FALSE(pca.Reconstruct(s.disguised.records(), s.noise).ok());
}

TEST(PcaDrTest, MeansAreRestored) {
  // Non-zero-mean data: the §5.1.1 center/add-back steps must round-trip.
  stats::Rng rng(116);
  data::SyntheticDatasetSpec spec;
  spec.eigenvalues = data::TwoLevelSpectrum(8, 2, 100.0, 1.0);
  spec.mean = Vector(8, 50.0);
  auto synthetic = data::GenerateSpectrumDataset(spec, 3000, &rng);
  ASSERT_TRUE(synthetic.ok());
  auto scheme = perturb::IndependentNoiseScheme::Gaussian(8, 3.0);
  auto disguised = scheme.Disguise(synthetic.value().dataset, &rng);
  ASSERT_TRUE(disguised.ok());
  PcaReconstructor pca;
  auto x_hat = pca.Reconstruct(disguised.value().records(), scheme.noise_model());
  ASSERT_TRUE(x_hat.ok());
  const Vector means = stats::ColumnMeans(x_hat.value());
  for (size_t j = 0; j < 8; ++j) EXPECT_NEAR(means[j], 50.0, 0.5);
}

TEST(PcaDrTest, HigherCorrelationGivesBetterReconstruction) {
  // §5.2: more redundancy -> more noise filtered. Same m, increasing p
  // (weaker correlation) must not improve accuracy.
  double prev_rmse = 0.0;
  for (size_t p : {2u, 8u, 16u}) {
    Scenario s = MakeScenario(16, p, 1600.0 / static_cast<double>(p), 1.0,
                              1500, 5.0, 117);
    PcaReconstructor pca;
    auto x_hat = pca.Reconstruct(s.disguised.records(), s.noise);
    ASSERT_TRUE(x_hat.ok());
    const double rmse = stats::RootMeanSquareError(
        s.synthetic.dataset.records(), x_hat.value());
    if (p > 2u) {
      EXPECT_GT(rmse, prev_rmse) << "p=" << p;
    }
    prev_rmse = rmse;
  }
}

TEST(PcaDrTest, RejectsShapeMismatch) {
  PcaReconstructor pca;
  EXPECT_FALSE(
      pca.Reconstruct(Matrix(5, 3),
                      perturb::NoiseModel::IndependentGaussian(2, 1.0))
          .ok());
}

TEST(PcaDrTest, NameIsStable) { EXPECT_EQ(PcaReconstructor().name(), "PCA-DR"); }

TEST(ProjectRecordsTest, MatchesCompositionAndIsRowCountInvariant) {
  // (Y − 1µᵀ) Q Qᵀ + 1µᵀ against plain loops, at a size where the
  // products take the blocked kernel path.
  stats::Rng rng(46);
  const size_t n = 300;
  const size_t m = 40;
  const size_t p = 12;
  const Matrix y = rng.GaussianMatrix(n, m);
  const Matrix q = rng.GaussianMatrix(m, p);
  const Vector mean = rng.GaussianVector(m);
  Matrix expected(n, m);
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> scores(p, 0.0);
    for (size_t k = 0; k < p; ++k) {
      for (size_t j = 0; j < m; ++j) scores[k] += (y(i, j) - mean[j]) * q(j, k);
    }
    for (size_t j = 0; j < m; ++j) {
      double sum = 0.0;
      for (size_t k = 0; k < p; ++k) sum += scores[k] * q(j, k);
      expected(i, j) = sum + mean[j];
    }
  }
  Matrix scores(n, p);
  Matrix whole(n, m);
  ProjectRecords(y.data(), n, mean, q, scores.data(), whole.data());
  EXPECT_LE(linalg::MaxAbsDifference(whole, expected), 1e-10);

  // Chunked calls (7 rows, then the rest) give every row the same bits.
  Matrix chunked(n, m);
  ProjectRecords(y.data(), 7, mean, q, scores.data(), chunked.data());
  ProjectRecords(y.row_data(7), n - 7, mean, q, scores.data(),
                 chunked.row_data(7));
  EXPECT_EQ(std::memcmp(whole.data(), chunked.data(),
                        whole.size() * sizeof(double)),
            0);
}

class PcaFixedCountSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(PcaFixedCountSweep, NoiseReductionFollowsTheorem52Trend) {
  // Residual noise MSE grows with p (δ² = σ² p/m), so with a strongly
  // correlated signal the total error should grow once p exceeds the
  // true signal rank.
  const size_t p = GetParam();
  Scenario s = MakeScenario(20, 2, 900.0, 0.01, 3000, 5.0, 118);
  PcaOptions options;
  options.selection = PcSelection::kFixedCount;
  options.fixed_count = p;
  PcaReconstructor pca(options);
  auto x_hat = pca.Reconstruct(s.disguised.records(), s.noise);
  ASSERT_TRUE(x_hat.ok());
  const double mse = stats::MeanSquareError(s.synthetic.dataset.records(),
                                            x_hat.value());
  // Theorem 5.2 lower bound (noise part alone): σ² p/m; allow estimation
  // slack. Signal loss above rank 2 is negligible (residual 0.01).
  const double noise_part =
      25.0 * static_cast<double>(p) / 20.0;
  EXPECT_GT(mse, 0.6 * noise_part) << "p=" << p;
  EXPECT_LT(mse, noise_part + 3.0) << "p=" << p;
}

INSTANTIATE_TEST_SUITE_P(ComponentCounts, PcaFixedCountSweep,
                         ::testing::Values(2, 5, 10, 15, 20));

}  // namespace
}  // namespace core
}  // namespace randrecon
