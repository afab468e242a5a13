// Quickstart: the whole library in ~60 lines.
//
// 1. Generate a correlated dataset (the §7.1 recipe).
// 2. Disguise it with the classic additive Gaussian randomization.
// 3. Run every reconstruction attack from the paper.
// 4. See how little privacy the randomization actually bought.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "core/attack_suite.h"
#include "data/synthetic.h"
#include "perturb/schemes.h"
#include "stats/rng.h"

int main() {
  using namespace randrecon;  // NOLINT(build/namespaces): example code.

  // --- 1. A dataset with strong inter-attribute correlation: 50
  // attributes whose variance concentrates in 5 principal directions.
  stats::Rng rng(/*seed=*/2005);
  data::SyntheticDatasetSpec spec;
  spec.eigenvalues = data::TwoLevelSpectrumWithTrace(
      /*num_attributes=*/50, /*num_principal=*/5,
      /*residual_value=*/1.0, /*per_attribute_variance=*/100.0);
  auto synthetic = data::GenerateSpectrumDataset(spec, /*num_records=*/1000,
                                                 &rng);
  if (!synthetic.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 synthetic.status().ToString().c_str());
    return 1;
  }

  // --- 2. Randomize: Y = X + R with R ~ N(0, 5²) per attribute. The
  // noise model is public — that's how randomized PPDM works.
  const auto scheme = perturb::IndependentNoiseScheme::Gaussian(50, 5.0);
  auto disguised = scheme.Disguise(synthetic.value().dataset, &rng);
  if (!disguised.ok()) {
    std::fprintf(stderr, "disguise failed: %s\n",
                 disguised.status().ToString().c_str());
    return 1;
  }

  // --- 3. Attack with the paper's full line-up: NDR, UDR, SF, PCA-DR,
  // BE-DR.
  const core::AttackSuite suite = core::AttackSuite::PaperSuite();
  auto reports = suite.RunAll(synthetic.value().dataset, disguised.value(),
                              scheme.noise_model());
  if (!reports.ok()) {
    std::fprintf(stderr, "attack failed: %s\n",
                 reports.status().ToString().c_str());
    return 1;
  }

  // --- 4. Report. NDR's RMSE is the noise level (5.0) — the "privacy"
  // the publisher thinks they added. Everything below it is leakage.
  std::printf("Per-attack reconstruction error (lower = more disclosure):\n\n");
  std::printf("%s\n", core::FormatReportTable(reports.value()).c_str());
  std::printf(
      "The correlation-aware attacks (PCA-DR, BE-DR) reconstruct records\n"
      "several times more accurately than the noise level suggests —\n"
      "the central finding of Huang, Du & Chen (SIGMOD 2005).\n");
  return 0;
}
