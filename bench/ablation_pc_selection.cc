// Ablation A1 — principal-component selection strategy.
//
// The paper's §5.2.2 footnote lists three ways to pick p (fixed count,
// variance fraction, largest eigengap) and uses the gap rule in its
// experiments. This bench compares all three on a two-level spectrum
// whose true rank is known (p* = 10 of m = 100), reporting the chosen p
// and the resulting RMSE.

#include <cstdio>
#include <memory>
#include <vector>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/pca_dr.h"
#include "core/privacy_evaluator.h"
#include "data/synthetic.h"
#include "perturb/schemes.h"
#include "stats/rng.h"

using namespace randrecon;  // NOLINT(build/namespaces): bench binary.

namespace {

struct Variant {
  std::string label;
  core::PcaOptions options;
};

}  // namespace

int main() {
  Stopwatch stopwatch;
  const size_t m = 100, true_p = 10, n = 1000;
  const double sigma = 5.0;
  std::printf(
      "Ablation A1: PCA-DR component-selection strategies (true p* = %zu of "
      "m = %zu, n = %zu, sigma = %.1f)\n\n",
      true_p, m, n, sigma);

  stats::Rng rng(20050614);
  data::SyntheticDatasetSpec spec;
  spec.eigenvalues = data::TwoLevelSpectrumWithTrace(m, true_p, 1.0, 100.0);
  auto synthetic = data::GenerateSpectrumDataset(spec, n, &rng);
  if (!synthetic.ok()) {
    std::fprintf(stderr, "%s\n", synthetic.status().ToString().c_str());
    return 1;
  }
  auto scheme = perturb::IndependentNoiseScheme::Gaussian(m, sigma);
  auto disguised = scheme.Disguise(synthetic.value().dataset, &rng);
  if (!disguised.ok()) {
    std::fprintf(stderr, "%s\n", disguised.status().ToString().c_str());
    return 1;
  }

  std::vector<Variant> variants;
  variants.push_back({"largest-gap (paper)", {}});
  for (size_t fixed : {2u, 5u, 10u, 20u, 50u, 100u}) {
    core::PcaOptions options;
    options.selection = core::PcSelection::kFixedCount;
    options.fixed_count = fixed;
    variants.push_back({"fixed p=" + std::to_string(fixed), options});
  }
  for (double fraction : {0.80, 0.90, 0.95, 0.99}) {
    core::PcaOptions options;
    options.selection = core::PcSelection::kVarianceFraction;
    options.variance_fraction = fraction;
    variants.push_back({"variance>=" + FormatDouble(fraction, 2), options});
  }

  std::printf("%s%s%s%s\n", PadRight("strategy", 22).c_str(),
              PadLeft("chosen p", 10).c_str(), PadLeft("rmse", 10).c_str(),
              PadLeft("kept var", 10).c_str());
  std::printf("%s\n", std::string(52, '-').c_str());
  for (const Variant& variant : variants) {
    core::PcaReconstructor pca(variant.options);
    core::PcaDiagnostics diagnostics;
    auto x_hat = pca.ReconstructWithDiagnostics(
        disguised.value().records(), scheme.noise_model(), &diagnostics);
    if (!x_hat.ok()) {
      std::fprintf(stderr, "%s: %s\n", variant.label.c_str(),
                   x_hat.status().ToString().c_str());
      return 1;
    }
    auto report = core::EvaluateReconstruction(
        variant.label, synthetic.value().dataset.records(), x_hat.value());
    std::printf("%s%s%s%s\n", PadRight(variant.label, 22).c_str(),
                PadLeft(std::to_string(diagnostics.num_components), 10).c_str(),
                PadLeft(FormatDouble(report.value().rmse, 4), 10).c_str(),
                PadLeft(FormatDouble(diagnostics.retained_variance_fraction, 3),
                        10)
                    .c_str());
  }
  std::printf(
      "\nReading: the gap rule should land on p = %zu and match the best "
      "fixed choice; too-small p loses signal, too-large p keeps noise "
      "(Theorem 5.2: noise MSE = sigma^2 p/m).\n",
      true_p);
  std::printf("elapsed: %.2fs\n\n", stopwatch.ElapsedSeconds());
  return 0;
}
