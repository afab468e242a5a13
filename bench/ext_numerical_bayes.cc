// Extension E4 — §6's future-work item, measured: numerical (gradient-
// ascent) Bayes estimation for NON-Gaussian original data.
//
// Data: two clusters of records (a mixture of Gaussians) — the kind of
// structure a single multivariate-normal prior cannot represent. Sweep
// the cluster separation and compare:
//   * BE-DR   — the paper's closed-form attack (single-Gaussian prior
//               fitted to the pooled data),
//   * NB-DR   — numerical MAP with the true two-component mixture prior.
// Expected shape: at zero separation the two coincide (the mixture IS a
// Gaussian); as the clusters separate, the single-Gaussian prior smears
// them together and NB-DR pulls ahead.

#include <cmath>
#include <cstdio>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/be_dr.h"
#include "core/numerical_bayes.h"
#include "data/synthetic.h"
#include "perturb/schemes.h"
#include "stats/moments.h"
#include "stats/rng.h"

using namespace randrecon;  // NOLINT(build/namespaces): bench binary.

int main() {
  Stopwatch stopwatch;
  const size_t m = 6, n = 800;
  const double sigma = 6.0;
  std::printf(
      "Extension E4: numerical Bayes (gradient ascent) vs closed-form BE-DR "
      "on clustered data\n"
      "(m = %zu, n = %zu, sigma = %.1f, two equal clusters, within-cluster "
      "eigenvalues {8,4,2,1,1,1})\n\n",
      m, n, sigma);
  std::printf("%s%s%s%s\n", PadLeft("separation", 12).c_str(),
              PadLeft("NDR", 10).c_str(), PadLeft("BE-DR", 10).c_str(),
              PadLeft("NB-DR", 10).c_str());
  std::printf("%s\n", std::string(42, '-').c_str());

  for (double separation : {0.0, 5.0, 10.0, 20.0, 40.0}) {
    stats::Rng rng(51000 + static_cast<uint64_t>(separation));
    linalg::Matrix means(2, m);
    for (size_t j = 0; j < m; ++j) {
      means(0, j) = -0.5 * separation;
      means(1, j) = 0.5 * separation;
    }
    auto mixture = data::GenerateGaussianMixtureDataset(
        means, linalg::Vector{8.0, 4.0, 2.0, 1.0, 1.0, 1.0}, n, &rng);
    if (!mixture.ok()) {
      std::fprintf(stderr, "%s\n", mixture.status().ToString().c_str());
      return 1;
    }
    const linalg::Matrix& x = mixture.value().dataset.records();
    auto scheme = perturb::IndependentNoiseScheme::Gaussian(m, sigma);
    linalg::Matrix y = x + scheme.GenerateNoise(n, &rng);

    core::BayesEstimateReconstructor be;
    auto be_hat = be.Reconstruct(y, scheme.noise_model());

    std::vector<core::GaussianComponent> components;
    for (size_t k = 0; k < 2; ++k) {
      components.push_back(core::GaussianComponent{
          0.5, means.Row(k), mixture.value().within_covariance});
    }
    auto prior = core::GaussianMixturePrior::Create(std::move(components));
    if (!prior.ok()) return 1;
    core::NumericalBayesReconstructor nb(std::move(prior).value());
    auto nb_hat = nb.Reconstruct(y, scheme.noise_model());
    if (!be_hat.ok() || !nb_hat.ok()) {
      std::fprintf(stderr, "reconstruction failed\n");
      return 1;
    }

    std::printf(
        "%s%s%s%s\n", PadLeft(FormatDouble(separation, 1), 12).c_str(),
        PadLeft(FormatDouble(stats::RootMeanSquareError(x, y), 4), 10).c_str(),
        PadLeft(FormatDouble(stats::RootMeanSquareError(x, be_hat.value()), 4),
                10)
            .c_str(),
        PadLeft(FormatDouble(stats::RootMeanSquareError(x, nb_hat.value()), 4),
                10)
            .c_str());
  }
  std::printf(
      "\nReading: at separation 0 the mixture degenerates to one Gaussian "
      "and NB-DR == BE-DR; as the clusters separate, the single-Gaussian "
      "prior's 'covariance' inflates with the between-cluster spread and "
      "BE-DR stops filtering, while the mixture-prior MAP keeps improving "
      "— non-Gaussian structure leaks even more than the paper's Gaussian "
      "analysis promises.\n");
  std::printf("elapsed: %.2fs\n\n", stopwatch.ElapsedSeconds());
  return 0;
}
