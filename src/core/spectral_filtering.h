// SF — Spectral Filtering (Kargupta, Datta, Wang & Sivakumar, ICDM 2003).
//
// The prior attack the paper compares against (its "SF Scheme" curves).
// SF also projects the disguised data onto a signal subspace, but it
// separates signal from noise eigenvalues using random-matrix theory
// instead of the data's own eigengap: for an n x m matrix of i.i.d. noise
// with variance σ², the eigenvalues of the sample covariance concentrate
// in the Marchenko–Pastur band
//
//   [ σ²(1 − √(m/n))² ,  σ²(1 + √(m/n))² ].
//
// Eigenvalues of Cov(Y) above the upper bound are signal-dominated; SF
// keeps those eigenvectors and reconstructs X̂ = Ȳ Q̂ Q̂ᵀ + µ̂.
//
// Notes mirrored from the paper's observations:
//  * When non-principal eigenvalues are not small, the bound misclassifies
//    directions and SF trails PCA-DR (Experiment 1/3).
//  * The bound assumes *independent* noise; under §8's correlated noise it
//    is no longer calibrated, which is exactly the anomaly Figure 4 shows.
//    For a correlated NoiseModel the bound is evaluated with the average
//    noise variance, the natural attacker fallback.

#ifndef RANDRECON_CORE_SPECTRAL_FILTERING_H_
#define RANDRECON_CORE_SPECTRAL_FILTERING_H_

#include "core/reconstructor.h"

namespace randrecon {
namespace core {

/// SF's component-count rule on an already-computed Cov(Y) spectrum
/// (descending): counts the eigenvalues above the published
/// Marchenko–Pastur bound, and keeps one component when the bound rejects
/// them all (the attack must output *something*, as the reference
/// implementation does on tiny signals). For a correlated NoiseModel the
/// bound is evaluated with the average per-attribute noise variance, the
/// natural attacker fallback.
size_t SelectSfComponents(const linalg::Vector& disguised_eigenvalues,
                          const perturb::NoiseModel& noise,
                          size_t num_records);

/// SF's basis, shared by SpectralFilteringReconstructor and the streaming
/// pipeline: Cov(Y) (ddof 0) decomposed, p by SelectSfComponents.
Result<ProjectionBasis> SelectSfBasis(
    const linalg::Matrix& disguised_covariance,
    const perturb::NoiseModel& noise, size_t num_records);

/// Kargupta et al.'s spectral-filtering attack.
class SpectralFilteringReconstructor final : public Reconstructor {
 public:
  std::string name() const override { return "SF"; }

  Result<linalg::Matrix> Reconstruct(
      const linalg::Matrix& disguised,
      const perturb::NoiseModel& noise) const override;

  /// The Marchenko–Pastur noise-eigenvalue upper bound σ²(1 + √(m/n))²,
  /// exposed for tests.
  static double NoiseEigenvalueUpperBound(double noise_variance,
                                          size_t num_records,
                                          size_t num_attributes);
};

}  // namespace core
}  // namespace randrecon

#endif  // RANDRECON_CORE_SPECTRAL_FILTERING_H_
