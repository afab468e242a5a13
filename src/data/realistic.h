// Realistic correlated tables for the example programs. The paper's §3
// motivates the attack with a disguised *medical database*; since no real
// patient data ships with this repo (nor should it), we synthesize one
// from a latent-factor model: each record is driven by a few hidden
// factors (overall health, metabolic load, age) that induce exactly the
// strong inter-attribute correlations PCA-DR/BE-DR exploit.

#ifndef RANDRECON_DATA_REALISTIC_H_
#define RANDRECON_DATA_REALISTIC_H_

#include "common/result.h"
#include "data/dataset.h"
#include "stats/philox.h"

namespace randrecon {
namespace data {

/// Configuration of the latent-factor table generator.
struct LatentFactorSpec {
  /// Loading matrix: attributes x factors. Attribute j is
  /// mean[j] + Σ_k loadings(j,k) factor_k + idiosyncratic noise.
  linalg::Matrix loadings;
  /// Per-attribute means.
  linalg::Vector mean;
  /// Per-attribute idiosyncratic (uncorrelated) standard deviations.
  linalg::Vector idiosyncratic_stddev;
  /// Attribute names.
  std::vector<std::string> attribute_names;
};

/// Samples `num_records` rows from a latent-factor model with standard
/// normal factors. Fails with InvalidArgument on inconsistent shapes.
Result<Dataset> GenerateLatentFactorTable(const LatentFactorSpec& spec,
                                          size_t num_records,
                                          stats::Philox* rng);

/// The implied covariance of a latent-factor model:
/// L Lᵀ + diag(idiosyncratic²).
linalg::Matrix LatentFactorCovariance(const LatentFactorSpec& spec);

/// An 8-attribute synthetic patient table (age, bmi, systolic/diastolic
/// blood pressure, cholesterol, glucose, resting heart rate, annual
/// medical cost) whose attributes are strongly correlated through
/// age/health/metabolic factors. Used by the medical-records example.
LatentFactorSpec MedicalRecordsSpec();

/// A 6-attribute household finance table (income, rent, savings, debt,
/// credit score, monthly spend) used by the privacy-audit example.
LatentFactorSpec HouseholdFinanceSpec();

}  // namespace data
}  // namespace randrecon

#endif  // RANDRECON_DATA_REALISTIC_H_
