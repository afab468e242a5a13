// Ablation A2 — sample size n.
//
// Theorem 5.1's covariance estimate is exact only as n -> infinity; this
// bench sweeps n and reports (a) the max-abs error of the estimated
// original covariance and (b) the honest-attacker RMSE of PCA-DR and
// BE-DR, showing both converge toward the oracle-covariance attack.

#include <cstdio>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/be_dr.h"
#include "core/covariance_estimation.h"
#include "core/pca_dr.h"
#include "core/privacy_evaluator.h"
#include "data/synthetic.h"
#include "linalg/matrix_util.h"
#include "perturb/schemes.h"
#include "stats/moments.h"
#include "stats/rng.h"

using namespace randrecon;  // NOLINT(build/namespaces): bench binary.

int main() {
  Stopwatch stopwatch;
  const size_t m = 50;
  const double sigma = 5.0;
  std::printf(
      "Ablation A2: sample size vs Theorem 5.1 estimation quality "
      "(m = %zu, p* = 5, sigma = %.1f)\n\n",
      m, sigma);
  std::printf("%s%s%s%s%s\n", PadLeft("n", 8).c_str(),
              PadLeft("cov_err", 12).c_str(), PadLeft("pca_rmse", 12).c_str(),
              PadLeft("be_rmse", 12).c_str(),
              PadLeft("be_oracle", 12).c_str());
  std::printf("%s\n", std::string(56, '-').c_str());

  for (size_t n : {100u, 200u, 500u, 1000u, 2000u, 5000u, 10000u}) {
    stats::Rng rng(7000 + n);
    data::SyntheticDatasetSpec spec;
    spec.eigenvalues = data::TwoLevelSpectrumWithTrace(m, 5, 1.0, 100.0);
    auto synthetic = data::GenerateSpectrumDataset(spec, n, &rng);
    if (!synthetic.ok()) return 1;
    auto scheme = perturb::IndependentNoiseScheme::Gaussian(m, sigma);
    auto disguised = scheme.Disguise(synthetic.value().dataset, &rng);
    if (!disguised.ok()) return 1;
    const linalg::Matrix& x = synthetic.value().dataset.records();
    const linalg::Matrix& y = disguised.value().records();

    auto moments = core::EstimateOriginalMoments(y, scheme.noise_model());
    if (!moments.ok()) return 1;
    const double cov_err = linalg::MaxAbsDifference(
        moments.value().covariance, synthetic.value().covariance);

    auto pca_hat = core::PcaReconstructor().Reconstruct(y, scheme.noise_model());
    auto be_hat =
        core::BayesEstimateReconstructor().Reconstruct(y, scheme.noise_model());
    core::BeDrOptions oracle;
    oracle.oracle_covariance = stats::SampleCovariance(x);
    oracle.oracle_mean = stats::ColumnMeans(x);
    auto be_oracle_hat = core::BayesEstimateReconstructor(oracle).Reconstruct(
        y, scheme.noise_model());
    if (!pca_hat.ok() || !be_hat.ok() || !be_oracle_hat.ok()) return 1;

    std::printf(
        "%s%s%s%s%s\n", PadLeft(std::to_string(n), 8).c_str(),
        PadLeft(FormatDouble(cov_err, 3), 12).c_str(),
        PadLeft(FormatDouble(stats::RootMeanSquareError(x, pca_hat.value()), 4),
                12)
            .c_str(),
        PadLeft(FormatDouble(stats::RootMeanSquareError(x, be_hat.value()), 4),
                12)
            .c_str(),
        PadLeft(FormatDouble(
                    stats::RootMeanSquareError(x, be_oracle_hat.value()), 4),
                12)
            .c_str());
  }
  std::printf(
      "\nReading: cov_err shrinks ~1/sqrt(n); the honest-attacker columns "
      "approach the be_oracle column, confirming the paper's 'only minor "
      "differences' remark (S5.3).\n");
  std::printf("elapsed: %.2fs\n\n", stopwatch.ElapsedSeconds());
  return 0;
}
