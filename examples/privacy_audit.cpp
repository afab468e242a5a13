// Scenario: the *defender's* side. A data publisher wants to release a
// randomized household-finance table and asks: "how much privacy does my
// noise budget actually buy against the best known reconstruction
// attacks?"
//
// This example runs the full attack suite at several noise budgets and
// prints an audit table a data officer could act on — including the
// epsilon-disclosure rate (fraction of cells an adversary pins down to
// within half a standard deviation).
//
// Build & run:  ./build/examples/privacy_audit

#include <cmath>
#include <cstdio>
#include <vector>

#include "common/string_util.h"
#include "core/attack_suite.h"
#include "data/realistic.h"
#include "linalg/vector_ops.h"
#include "perturb/schemes.h"
#include "stats/moments.h"
#include "stats/rng.h"

int main() {
  using namespace randrecon;  // NOLINT(build/namespaces): example code.

  stats::Rng rng(99);
  auto table =
      data::GenerateLatentFactorTable(data::HouseholdFinanceSpec(), 1500, &rng);
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }
  const data::Dataset& households = table.value();
  const size_t m = households.num_attributes();

  // Express the noise budget as a fraction of the pooled attribute
  // standard deviation, the way a publisher would think about it.
  const linalg::Vector variances = stats::ColumnVariances(households.records());
  const double pooled_std = std::sqrt(linalg::Mean(variances));

  std::printf(
      "Privacy audit: household finance table (%zu records, %zu attributes, "
      "pooled std = %.0f)\n\n",
      households.num_records(), m, pooled_std);
  std::printf("%s%s%s%s%s\n", PadLeft("noise/std", 11).c_str(),
              PadLeft("attack", 10).c_str(), PadLeft("rmse", 10).c_str(),
              PadLeft("rmse/std", 10).c_str(),
              PadLeft("pinned", 10).c_str());
  std::printf("%s\n", std::string(51, '-').c_str());

  for (double budget : {0.25, 0.5, 1.0, 2.0}) {
    const double sigma = budget * pooled_std;
    const auto scheme = perturb::IndependentNoiseScheme::Gaussian(m, sigma);
    auto published = scheme.Disguise(households, &rng);
    if (!published.ok()) return 1;

    auto reports = core::AttackSuite::PaperSuite().RunAll(
        households, published.value(), scheme.noise_model());
    if (!reports.ok()) {
      std::fprintf(stderr, "%s\n", reports.status().ToString().c_str());
      return 1;
    }
    // Report the publisher's assumption (NDR) and the strongest attack.
    const core::ReconstructionReport* ndr = nullptr;
    const core::ReconstructionReport* best = nullptr;
    for (const auto& report : reports.value()) {
      if (report.attack_name == "NDR") ndr = &report;
      if (best == nullptr || report.rmse < best->rmse) best = &report;
    }
    for (const core::ReconstructionReport* r : {ndr, best}) {
      std::printf(
          "%s%s%s%s%s\n", PadLeft(FormatDouble(budget, 2), 11).c_str(),
          PadLeft(r->attack_name, 10).c_str(),
          PadLeft(FormatDouble(r->rmse, 1), 10).c_str(),
          PadLeft(FormatDouble(r->rmse / pooled_std, 2), 10).c_str(),
          PadLeft(FormatDouble(100.0 * r->fraction_within_epsilon, 1) + "%",
                  10)
              .c_str());
    }
  }

  std::printf(
      "\nReading: 'noise/std' is the budget the publisher thinks they "
      "spent;\n'rmse/std' is what the strongest attack leaves of it; "
      "'pinned' is the\nshare of cells recovered to within half a standard "
      "deviation.\nEven a 2x-std noise budget leaves most of the table "
      "exposed —\nindependent randomization cannot protect correlated "
      "attributes.\nSee defense_correlated_noise for the paper's mitigation "
      "(Section 8).\n");
  return 0;
}
