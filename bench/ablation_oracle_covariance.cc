// Ablation A4 — oracle vs estimated covariance (the §5.3 simplification).
//
// The paper analyzes (and plots) PCA-DR/BE-DR with the covariance taken
// from the original data, noting "only minor differences" vs the
// Theorem 5.1 estimate. This bench quantifies that difference for both
// schemes, and shows the bulk-eigenvalue-averaging estimation refinement
// recovering most of the gap for BE-DR.

#include <cstdio>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/be_dr.h"
#include "core/pca_dr.h"
#include "core/privacy_evaluator.h"
#include "data/synthetic.h"
#include "perturb/schemes.h"
#include "stats/moments.h"
#include "stats/rng.h"

using namespace randrecon;  // NOLINT(build/namespaces): bench binary.

namespace {

double Rmse(const linalg::Matrix& x, const Result<linalg::Matrix>& x_hat) {
  if (!x_hat.ok()) return -1.0;
  return stats::RootMeanSquareError(x, x_hat.value());
}

}  // namespace

int main() {
  Stopwatch stopwatch;
  const double sigma = 5.0;
  std::printf(
      "Ablation A4: oracle (S5.3) vs honest-attacker moments "
      "(p* = 5, sigma = %.1f, per-attribute variance = 100)\n\n",
      sigma);
  std::printf("%s%s%s%s%s%s%s\n", PadLeft("m", 6).c_str(),
              PadLeft("n", 8).c_str(), PadLeft("pca_oracle", 12).c_str(),
              PadLeft("pca_est", 12).c_str(), PadLeft("be_oracle", 12).c_str(),
              PadLeft("be_est", 12).c_str(), PadLeft("be_bulk", 12).c_str());
  std::printf("%s\n", std::string(74, '-').c_str());

  for (size_t m : {20u, 50u, 100u}) {
    for (size_t n : {500u, 1000u, 4000u}) {
      stats::Rng rng(9000 + m * 17 + n);
      data::SyntheticDatasetSpec spec;
      spec.eigenvalues = data::TwoLevelSpectrumWithTrace(m, 5, 1.0, 100.0);
      auto synthetic = data::GenerateSpectrumDataset(spec, n, &rng);
      if (!synthetic.ok()) return 1;
      auto scheme = perturb::IndependentNoiseScheme::Gaussian(m, sigma);
      auto disguised = scheme.Disguise(synthetic.value().dataset, &rng);
      if (!disguised.ok()) return 1;
      const linalg::Matrix& x = synthetic.value().dataset.records();
      const linalg::Matrix& y = disguised.value().records();
      const perturb::NoiseModel& noise = scheme.noise_model();
      const linalg::Matrix original_cov = stats::SampleCovariance(x);

      core::PcaOptions pca_oracle;
      pca_oracle.oracle_covariance = original_cov;
      core::BeDrOptions be_oracle;
      be_oracle.oracle_covariance = original_cov;
      be_oracle.oracle_mean = stats::ColumnMeans(x);
      core::BeDrOptions be_bulk;
      be_bulk.moment_options.bulk_average_nonprincipal = true;

      std::printf(
          "%s%s%s%s%s%s%s\n", PadLeft(std::to_string(m), 6).c_str(),
          PadLeft(std::to_string(n), 8).c_str(),
          PadLeft(FormatDouble(Rmse(x, core::PcaReconstructor(pca_oracle)
                                           .Reconstruct(y, noise)),
                               4),
                  12)
              .c_str(),
          PadLeft(FormatDouble(
                      Rmse(x, core::PcaReconstructor().Reconstruct(y, noise)),
                      4),
                  12)
              .c_str(),
          PadLeft(FormatDouble(Rmse(x, core::BayesEstimateReconstructor(
                                          be_oracle)
                                           .Reconstruct(y, noise)),
                               4),
                  12)
              .c_str(),
          PadLeft(FormatDouble(Rmse(x, core::BayesEstimateReconstructor()
                                           .Reconstruct(y, noise)),
                               4),
                  12)
              .c_str(),
          PadLeft(FormatDouble(Rmse(x, core::BayesEstimateReconstructor(
                                          be_bulk)
                                           .Reconstruct(y, noise)),
                               4),
                  12)
              .c_str());
    }
  }
  std::printf(
      "\nReading: oracle and estimated PCA-DR stay close at practical n; "
      "BE-DR is more sensitive to eigenvalue-estimation noise (be_est vs "
      "be_oracle), and bulk averaging (be_bulk) recovers most of the "
      "gap. With the oracle both share, BE-DR <= PCA-DR everywhere — the "
      "paper's consistent ordering.\n");
  std::printf("elapsed: %.2fs\n\n", stopwatch.ElapsedSeconds());
  return 0;
}
