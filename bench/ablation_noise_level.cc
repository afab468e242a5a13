// Ablation A3 — noise level sigma.
//
// Sweeps the perturbation magnitude and reports every attack's RMSE.
// Sanity anchors: NDR's RMSE equals sigma exactly (§4.1); the attack
// ordering BE-DR <= PCA-DR <= SF <= UDR <= NDR should hold at every
// sigma on strongly correlated data.

#include <cstdio>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/attack_suite.h"
#include "data/synthetic.h"
#include "perturb/schemes.h"
#include "stats/rng.h"

using namespace randrecon;  // NOLINT(build/namespaces): bench binary.

int main() {
  Stopwatch stopwatch;
  const size_t m = 50, n = 1000;
  std::printf(
      "Ablation A3: noise level sweep (m = %zu, p* = 5, n = %zu, "
      "per-attribute variance = 100)\n\n",
      m, n);
  std::printf("%s%s%s%s%s%s\n", PadLeft("sigma", 8).c_str(),
              PadLeft("NDR", 10).c_str(), PadLeft("UDR", 10).c_str(),
              PadLeft("SF", 10).c_str(), PadLeft("PCA-DR", 10).c_str(),
              PadLeft("BE-DR", 10).c_str());
  std::printf("%s\n", std::string(58, '-').c_str());

  for (double sigma : {1.0, 2.0, 5.0, 10.0, 20.0}) {
    stats::Rng rng(8000 + static_cast<uint64_t>(sigma * 10));
    data::SyntheticDatasetSpec spec;
    spec.eigenvalues = data::TwoLevelSpectrumWithTrace(m, 5, 1.0, 100.0);
    auto synthetic = data::GenerateSpectrumDataset(spec, n, &rng);
    if (!synthetic.ok()) return 1;
    auto scheme = perturb::IndependentNoiseScheme::Gaussian(m, sigma);
    auto disguised = scheme.Disguise(synthetic.value().dataset, &rng);
    if (!disguised.ok()) return 1;

    auto reports = core::AttackSuite::PaperSuite().RunAll(
        synthetic.value().dataset, disguised.value(), scheme.noise_model());
    if (!reports.ok()) {
      std::fprintf(stderr, "%s\n", reports.status().ToString().c_str());
      return 1;
    }
    double by_name[5] = {0, 0, 0, 0, 0};
    for (const auto& report : reports.value()) {
      if (report.attack_name == "NDR") by_name[0] = report.rmse;
      if (report.attack_name == "UDR") by_name[1] = report.rmse;
      if (report.attack_name == "SF") by_name[2] = report.rmse;
      if (report.attack_name == "PCA-DR") by_name[3] = report.rmse;
      if (report.attack_name == "BE-DR") by_name[4] = report.rmse;
    }
    std::printf("%s", PadLeft(FormatDouble(sigma, 1), 8).c_str());
    for (double rmse : by_name) {
      std::printf("%s", PadLeft(FormatDouble(rmse, 4), 10).c_str());
    }
    std::printf("\n");
  }
  std::printf(
      "\nReading: NDR tracks sigma exactly; correlation-based attacks "
      "filter a growing absolute amount of noise as sigma rises, so the "
      "privacy 'bought' per unit of added noise keeps shrinking.\n");
  std::printf("elapsed: %.2fs\n\n", stopwatch.ElapsedSeconds());
  return 0;
}
