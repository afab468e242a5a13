// Ablation A5 — UDR machinery: AS2000 grid resolution/iterations vs the
// closed-form Gaussian posterior.
//
// On the multivariate-normal data of the §7 experiments the closed form
// is the exact posterior mean; the AS2000 grid should converge to the
// same RMSE as the grid refines — this justifies the fast_udr default in
// the figure benches. Wall time per attribute is reported as well.

#include <cstdio>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/udr.h"
#include "data/synthetic.h"
#include "perturb/schemes.h"
#include "stats/moments.h"
#include "stats/rng.h"

using namespace randrecon;  // NOLINT(build/namespaces): bench binary.

int main() {
  Stopwatch total;
  const size_t m = 8, n = 2000;
  const double sigma = 5.0;
  std::printf(
      "Ablation A5: UDR estimator variants (m = %zu, n = %zu, sigma = %.1f, "
      "Gaussian marginals)\n\n",
      m, n, sigma);

  stats::Rng rng(20050614);
  data::SyntheticDatasetSpec spec;
  spec.eigenvalues = data::TwoLevelSpectrumWithTrace(m, 2, 1.0, 100.0);
  auto synthetic = data::GenerateSpectrumDataset(spec, n, &rng);
  if (!synthetic.ok()) return 1;
  auto scheme = perturb::IndependentNoiseScheme::Gaussian(m, sigma);
  auto disguised = scheme.Disguise(synthetic.value().dataset, &rng);
  if (!disguised.ok()) return 1;
  const linalg::Matrix& x = synthetic.value().dataset.records();
  const linalg::Matrix& y = disguised.value().records();

  std::printf("%s%s%s\n", PadRight("estimator", 30).c_str(),
              PadLeft("rmse", 10).c_str(), PadLeft("ms/attr", 12).c_str());
  std::printf("%s\n", std::string(52, '-').c_str());

  auto run_variant = [&](const std::string& label,
                         const core::UdrOptions& options) -> int {
    core::UdrReconstructor udr(options);
    Stopwatch watch;
    auto x_hat = udr.Reconstruct(y, scheme.noise_model());
    const double elapsed_ms = watch.ElapsedMillis();
    if (!x_hat.ok()) {
      std::fprintf(stderr, "%s: %s\n", label.c_str(),
                   x_hat.status().ToString().c_str());
      return 1;
    }
    std::printf("%s%s%s\n", PadRight(label, 30).c_str(),
                PadLeft(FormatDouble(
                            stats::RootMeanSquareError(x, x_hat.value()), 4),
                        10)
                    .c_str(),
                PadLeft(FormatDouble(elapsed_ms / static_cast<double>(m), 2),
                        12)
                    .c_str());
    return 0;
  };

  core::UdrOptions closed;
  closed.estimator = core::UdrDensityEstimator::kGaussianClosedForm;
  if (run_variant("closed-form Gaussian", closed) != 0) return 1;

  for (size_t grid : {50u, 100u, 200u, 400u}) {
    core::UdrOptions options;
    options.estimator = core::UdrDensityEstimator::kAs2000Grid;
    options.density_options.grid_size = grid;
    if (run_variant("AS2000 grid=" + std::to_string(grid), options) != 0) {
      return 1;
    }
  }
  for (int iters : {1, 5, 25, 200}) {
    core::UdrOptions options;
    options.estimator = core::UdrDensityEstimator::kAs2000Grid;
    options.density_options.max_iterations = iters;
    if (run_variant("AS2000 iters=" + std::to_string(iters), options) != 0) {
      return 1;
    }
  }

  std::printf(
      "\nReading: the grid estimator converges to the closed form as the "
      "grid refines and the EM iterates — and costs orders of magnitude "
      "more per attribute, which is why the figure benches default to the "
      "closed form on these Gaussian datasets.\n");
  std::printf("elapsed: %.2fs\n\n", total.ElapsedSeconds());
  return 0;
}
