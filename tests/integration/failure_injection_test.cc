// Failure injection: corrupt inputs (NaN/Inf cells, degenerate columns,
// hostile CSVs) must surface as clean Status errors or finite outputs —
// never hangs, crashes, or silent garbage.

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "core/attack_suite.h"
#include "core/be_dr.h"
#include "core/pca_dr.h"
#include "data/csv.h"
#include "data/synthetic.h"
#include "linalg/cholesky.h"
#include "linalg/eigen.h"
#include "linalg/lu.h"
#include "perturb/schemes.h"
#include "stats/rng.h"

namespace randrecon {
namespace {

using linalg::Matrix;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

Matrix CorruptedDisguisedData(double poison) {
  stats::Rng rng(501);
  data::SyntheticDatasetSpec spec;
  spec.eigenvalues = data::TwoLevelSpectrum(6, 2, 50.0, 1.0);
  auto synthetic = data::GenerateSpectrumDataset(spec, 200, &rng);
  EXPECT_TRUE(synthetic.ok());
  auto scheme = perturb::IndependentNoiseScheme::Gaussian(6, 3.0);
  auto disguised = scheme.Disguise(synthetic.value().dataset, &rng);
  EXPECT_TRUE(disguised.ok());
  Matrix y = disguised.value().records();
  y(10, 3) = poison;
  return y;
}

TEST(FailureInjectionTest, EigenSolverRejectsNanMatrixCleanly) {
  Matrix a = Matrix::Identity(4);
  a(1, 2) = kNan;
  a(2, 1) = kNan;
  auto eig = linalg::SymmetricEigen(a);
  EXPECT_FALSE(eig.ok());
  // Must terminate (no hang) with a status, whatever the category.
}

TEST(FailureInjectionTest, CholeskyRejectsNanAndInf) {
  Matrix a{{1.0, 0.0}, {0.0, kNan}};
  EXPECT_FALSE(linalg::CholeskyFactorization::Compute(a).ok());
  Matrix b{{kInf, 0.0}, {0.0, 1.0}};
  EXPECT_FALSE(linalg::CholeskyFactorization::Compute(b).ok());
}

TEST(FailureInjectionTest, LuRejectsNan) {
  Matrix a{{kNan, 1.0}, {1.0, 2.0}};
  auto lu = linalg::LuFactorization::Compute(a);
  // Either the factorization fails, or the solve yields non-finite
  // values that the caller can detect; it must not crash.
  if (lu.ok()) {
    const auto x = lu.value().Solve(linalg::Vector{1.0, 1.0});
    EXPECT_FALSE(std::isfinite(x[0]) && std::isfinite(x[1]));
  }
}

TEST(FailureInjectionTest, PcaDrFailsCleanlyOnNanCell) {
  const Matrix y = CorruptedDisguisedData(kNan);
  core::PcaReconstructor pca;
  auto result =
      pca.Reconstruct(y, perturb::NoiseModel::IndependentGaussian(6, 3.0));
  // A NaN cell poisons the covariance; the eigensolver must report
  // non-convergence rather than looping forever.
  EXPECT_FALSE(result.ok());
}

TEST(FailureInjectionTest, BeDrFailsCleanlyOnNanCell) {
  const Matrix y = CorruptedDisguisedData(kNan);
  core::BayesEstimateReconstructor be;
  auto result =
      be.Reconstruct(y, perturb::NoiseModel::IndependentGaussian(6, 3.0));
  EXPECT_FALSE(result.ok());
}

TEST(FailureInjectionTest, AttackSuiteSurfacesFirstFailure) {
  const Matrix y = CorruptedDisguisedData(kNan);
  auto reports = core::AttackSuite::PaperSuite().RunAll(
      Matrix(y.rows(), y.cols()), y,
      perturb::NoiseModel::IndependentGaussian(6, 3.0));
  EXPECT_FALSE(reports.ok());
}

TEST(FailureInjectionTest, InfCellDoesNotHangAttacks) {
  const Matrix y = CorruptedDisguisedData(kInf);
  core::PcaReconstructor pca;
  auto result =
      pca.Reconstruct(y, perturb::NoiseModel::IndependentGaussian(6, 3.0));
  // Inf overflows the covariance to inf/NaN; must fail, not hang.
  EXPECT_FALSE(result.ok());
}

TEST(FailureInjectionTest, ZeroVarianceColumnSurvivesPipeline) {
  // A constant attribute (zero variance) is legal input: the estimated
  // covariance is singular in that direction; the default (gain-form)
  // attacks must handle it.
  stats::Rng rng(502);
  Matrix y(300, 3);
  for (size_t i = 0; i < 300; ++i) {
    y(i, 0) = rng.Gaussian(0.0, 5.0);
    y(i, 1) = 42.0;  // Constant column.
    y(i, 2) = y(i, 0) * 0.5 + rng.Gaussian(0.0, 1.0);
  }
  const perturb::NoiseModel noise =
      perturb::NoiseModel::IndependentGaussian(3, 1.0);
  core::BayesEstimateReconstructor be;
  auto be_hat = be.Reconstruct(y, noise);
  ASSERT_TRUE(be_hat.ok()) << be_hat.status().ToString();
  for (size_t i = 0; i < 300; ++i) {
    EXPECT_TRUE(std::isfinite(be_hat.value()(i, 1)));
  }
  core::PcaReconstructor pca;
  EXPECT_TRUE(pca.Reconstruct(y, noise).ok());
}

TEST(FailureInjectionTest, DuplicatedColumnsSurvivePipeline) {
  // Perfectly collinear attributes -> exactly singular covariance.
  stats::Rng rng(503);
  Matrix y(400, 4);
  for (size_t i = 0; i < 400; ++i) {
    const double v = rng.Gaussian(0.0, 10.0);
    y(i, 0) = v;
    y(i, 1) = v;  // Exact duplicate.
    y(i, 2) = -v;
    y(i, 3) = rng.Gaussian(0.0, 10.0);
  }
  const perturb::NoiseModel noise =
      perturb::NoiseModel::IndependentGaussian(4, 2.0);
  EXPECT_TRUE(core::BayesEstimateReconstructor().Reconstruct(y, noise).ok());
  EXPECT_TRUE(core::PcaReconstructor().Reconstruct(y, noise).ok());
}

TEST(FailureInjectionTest, CsvWithNanTokenIsHandled) {
  // from_chars accepts "nan": the dataset loads, and the attacks then
  // fail with a clean status rather than crashing.
  auto parsed = data::FromCsvString("a,b\n1.0,nan\n2.0,3.0\n");
  if (parsed.ok()) {
    core::PcaReconstructor pca;
    auto result = pca.Reconstruct(
        parsed.value().records(),
        perturb::NoiseModel::IndependentGaussian(2, 1.0));
    EXPECT_FALSE(result.ok());
  }
}

TEST(FailureInjectionTest, HugeMagnitudeCellsDoNotCrash) {
  Matrix y = CorruptedDisguisedData(1e150);
  core::PcaReconstructor pca;
  auto result =
      pca.Reconstruct(y, perturb::NoiseModel::IndependentGaussian(6, 3.0));
  // 1e150 squares to 1e300 in the covariance — still finite, so the
  // pipeline may legitimately succeed; it must not crash, and any
  // output must be finite where computed.
  if (result.ok()) {
    EXPECT_TRUE(std::isfinite(result.value()(0, 0)));
  }
}

TEST(FailureInjectionTest, SingleRecordDatasetRejected) {
  Matrix y(1, 3);
  auto moments = core::EstimateOriginalMoments(
      y, perturb::NoiseModel::IndependentGaussian(3, 1.0));
  EXPECT_FALSE(moments.ok());
  EXPECT_EQ(moments.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace randrecon
