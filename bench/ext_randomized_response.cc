// Extension E5 — the categorical randomization branch (§2): Warner's
// randomized response / MASK, and their privacy/utility trade-off.
//
// Sweeps the truth/keep probability θ and reports, at each θ:
//   * the error of the recovered aggregate (item and pair supports) —
//     the *utility* the miner gets;
//   * the adversary's per-record posterior P(true = 1 | reported = 1) —
//     the *privacy* each respondent keeps.
// Reading: exactly like the numeric schemes in the paper, pushing θ
// toward certainty buys utility with privacy and vice versa; θ = 0.5 is
// perfect privacy and zero utility.

#include <cmath>
#include <cstdio>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "perturb/randomized_response.h"
#include "stats/rng.h"

using namespace randrecon;  // NOLINT(build/namespaces): bench binary.

int main() {
  Stopwatch stopwatch;
  const size_t n = 100000;
  const double true_support_a = 0.4;
  const double conditional_b_given_a = 0.6;  // support_AB = 0.24.
  std::printf(
      "Extension E5: randomized response (Warner / MASK), n = %zu "
      "transactions, support(A) = %.2f, support(AB) = %.2f\n\n",
      n, true_support_a, true_support_a * conditional_b_given_a);
  std::printf("%s%s%s%s\n", PadLeft("theta", 8).c_str(),
              PadLeft("err(A)", 10).c_str(), PadLeft("err(AB)", 10).c_str(),
              PadLeft("posterior", 12).c_str());
  std::printf("%s\n", std::string(40, '-').c_str());

  for (double theta : {0.51, 0.6, 0.7, 0.8, 0.9, 0.99}) {
    stats::Rng rng(61000 + static_cast<uint64_t>(theta * 100));
    linalg::Matrix transactions(n, 2);
    for (size_t i = 0; i < n; ++i) {
      const bool a = rng.Uniform(0.0, 1.0) < true_support_a;
      const bool b = a && rng.Uniform(0.0, 1.0) < conditional_b_given_a;
      transactions(i, 0) = a ? 1.0 : 0.0;
      transactions(i, 1) = b ? 1.0 : 0.0;
    }
    auto mask = perturb::MaskScheme::Create(theta);
    auto warner = perturb::WarnerScheme::Create(theta);
    if (!mask.ok() || !warner.ok()) return 1;
    auto disguised = mask.value().Disguise(transactions, &rng);
    if (!disguised.ok()) return 1;

    auto support_a = mask.value().EstimateItemSupport(disguised.value(), 0);
    auto support_ab =
        mask.value().EstimatePairSupport(disguised.value(), 0, 1);
    if (!support_a.ok() || !support_ab.ok()) return 1;

    std::printf(
        "%s%s%s%s\n", PadLeft(FormatDouble(theta, 2), 8).c_str(),
        PadLeft(FormatDouble(
                    std::fabs(support_a.value() - true_support_a), 4),
                10)
            .c_str(),
        PadLeft(FormatDouble(std::fabs(support_ab.value() -
                                       true_support_a * conditional_b_given_a),
                             4),
                10)
            .c_str(),
        PadLeft(FormatDouble(
                    warner.value().PosteriorGivenReportedOne(true_support_a),
                    4),
                12)
            .c_str());
  }
  std::printf(
      "\nReading: 'posterior' is what a reported 1 reveals about the true "
      "bit (prior %.2f). Near theta = 0.5 records are nearly private and "
      "aggregates noisy; near theta = 1 aggregates are exact and records "
      "fully exposed — the categorical mirror of the paper's "
      "noise-vs-reconstruction trade-off.\n",
      true_support_a);
  std::printf("elapsed: %.2fs\n\n", stopwatch.ElapsedSeconds());
  return 0;
}
