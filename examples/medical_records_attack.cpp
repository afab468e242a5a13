// Scenario: a hospital publishes a randomized patient table (the §3
// motivating example). Each sensitive attribute was perturbed with
// zero-mean Gaussian noise, and the noise parameters are public so
// researchers can reconstruct aggregate distributions.
//
// An adversary runs BE-DR and recovers individual records far more
// accurately than the noise level implies — because vitals, labs and
// costs are strongly correlated through age and health factors.
//
// Build & run:  ./build/examples/medical_records_attack

#include <cmath>
#include <cstdio>

#include "common/string_util.h"
#include "core/be_dr.h"
#include "core/ndr.h"
#include "core/privacy_evaluator.h"
#include "data/realistic.h"
#include "perturb/schemes.h"
#include "stats/moments.h"
#include "stats/rng.h"

int main() {
  using namespace randrecon;  // NOLINT(build/namespaces): example code.

  // --- The hospital's private table: 2000 patients, 8 attributes tied
  // together by age / cardiovascular / metabolic factors.
  stats::Rng rng(1337);
  const data::LatentFactorSpec spec = data::MedicalRecordsSpec();
  auto table = data::GenerateLatentFactorTable(spec, 2000, &rng);
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }
  const data::Dataset& patients = table.value();

  // --- Publication: add N(0, 10²) to every attribute. Ten units of
  // noise on blood pressure / cholesterol looks like plenty of cover.
  const double sigma = 10.0;
  const auto scheme = perturb::IndependentNoiseScheme::Gaussian(
      patients.num_attributes(), sigma);
  auto published = scheme.Disguise(patients, &rng);
  if (!published.ok()) {
    std::fprintf(stderr, "%s\n", published.status().ToString().c_str());
    return 1;
  }

  // --- The adversary: disguised table + public noise model only.
  core::BayesEstimateReconstructor be;
  auto reconstructed =
      be.Reconstruct(published.value().records(), scheme.noise_model());
  if (!reconstructed.ok()) {
    std::fprintf(stderr, "%s\n", reconstructed.status().ToString().c_str());
    return 1;
  }

  auto be_report = core::EvaluateReconstruction("BE-DR", patients.records(),
                                                reconstructed.value());
  auto ndr_report = core::EvaluateReconstruction(
      "no attack", patients.records(), published.value().records());

  std::printf("Randomized medical table: sigma = %.0f on every attribute\n\n",
              sigma);
  std::printf("%s%s%s%s\n", PadRight("attribute", 14).c_str(),
              PadLeft("true std", 12).c_str(),
              PadLeft("noise rmse", 12).c_str(),
              PadLeft("BE-DR rmse", 12).c_str());
  std::printf("%s\n", std::string(50, '-').c_str());
  const linalg::Vector variances = stats::ColumnVariances(patients.records());
  for (size_t j = 0; j < patients.num_attributes(); ++j) {
    std::printf(
        "%s%s%s%s\n", PadRight(patients.attribute_names()[j], 14).c_str(),
        PadLeft(FormatDouble(std::sqrt(variances[j]), 2), 12).c_str(),
        PadLeft(FormatDouble(ndr_report.value().per_attribute_rmse[j], 2), 12)
            .c_str(),
        PadLeft(FormatDouble(be_report.value().per_attribute_rmse[j], 2), 12)
            .c_str());
  }
  std::printf(
      "\nOverall: %s\n         %s\n",
      core::FormatReport(ndr_report.value()).c_str(),
      core::FormatReport(be_report.value()).c_str());

  // --- A concrete victim: compare one patient's published vs
  // reconstructed record.
  const size_t victim = 7;
  std::printf("\nPatient #%zu (true / published / reconstructed):\n", victim);
  for (size_t j = 0; j < patients.num_attributes(); ++j) {
    std::printf("  %s %10.1f / %10.1f / %10.1f\n",
                PadRight(patients.attribute_names()[j], 14).c_str(),
                patients.records()(victim, j),
                published.value().records()(victim, j),
                reconstructed.value()(victim, j));
  }
  std::printf(
      "\nCorrelation across attributes lets BE-DR strip most of the noise:\n"
      "privacy is far weaker than the per-attribute sigma suggests.\n");
  return 0;
}
