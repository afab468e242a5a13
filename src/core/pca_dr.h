// PCA-DR — PCA-based Data Reconstruction (§5).
//
// The attack:
//   1. Estimate the original covariance from the disguised data
//      (Theorem 5.1 / 8.2: Σ̂x = Cov(Y) − Σr).
//   2. Eigendecompose Σ̂x = Q Λ Qᵀ (eigenvalues descending).
//   3. Select the p principal components (the paper's experiments use the
//      largest-eigengap rule; fixed-count and variance-fraction selection
//      are provided for the ablation bench).
//   4. Project the (centered) disguised data onto the principal subspace:
//      X̂ = Ȳ Q̂ Q̂ᵀ + µ̂.
//
// Why it works (§5.2): correlated data concentrates its variance in the
// first p directions while independent noise spreads its variance evenly
// over all m, so discarding m − p directions removes the fraction
// (m − p)/m of the noise energy (Theorem 5.2: residual noise MSE is
// σ² p/m) at small cost to the signal.

#ifndef RANDRECON_CORE_PCA_DR_H_
#define RANDRECON_CORE_PCA_DR_H_

#include <optional>

#include "core/covariance_estimation.h"
#include "core/reconstructor.h"

namespace randrecon {
namespace core {

/// How PCA-DR chooses the number of principal components p.
enum class PcSelection {
  /// Largest gap between consecutive (descending) eigenvalues — the rule
  /// the paper's experiments use (§5.2.2 footnote). The gap only separates
  /// "dominant" from "non-dominant" eigenvalues (§5.2.2) if the eigenvalue
  /// after it is at most half the one before it; otherwise the spectrum
  /// is treated as gap-free and all m components are kept (PCA-DR then
  /// degenerates to NDR, the correct behaviour for uncorrelated data).
  kLargestGap,
  /// Keep exactly `fixed_count` components.
  kFixedCount,
  /// Keep the smallest p whose eigenvalues explain at least
  /// `variance_fraction` of the (non-negative) spectrum mass.
  kVarianceFraction,
};

/// Configuration for PcaReconstructor.
struct PcaOptions {
  PcSelection selection = PcSelection::kLargestGap;
  /// Used when selection == kFixedCount. Clamped to [1, m].
  size_t fixed_count = 1;
  /// Used when selection == kVarianceFraction; in (0, 1].
  double variance_fraction = 0.9;
  /// §5.3 analysis mode: when set, this ground-truth covariance is used
  /// instead of the Theorem 5.1 estimate ("we only analyze PCA-DR using
  /// covariance matrix from the original data"). The ablation bench A4
  /// measures the difference.
  std::optional<linalg::Matrix> oracle_covariance;
  /// Moment-estimation knobs (PSD clipping).
  MomentEstimationOptions moment_options;
};

/// Outcome details a caller may want next to the reconstruction.
struct PcaDiagnostics {
  size_t num_components = 0;           ///< The selected p.
  linalg::Vector eigenvalues;          ///< Estimated original eigenvalues.
  double retained_variance_fraction = 0.0;
};

/// §5's PCA projection attack.
class PcaReconstructor final : public Reconstructor {
 public:
  PcaReconstructor() = default;
  explicit PcaReconstructor(PcaOptions options)
      : options_(std::move(options)) {}

  std::string name() const override { return "PCA-DR"; }

  Result<linalg::Matrix> Reconstruct(
      const linalg::Matrix& disguised,
      const perturb::NoiseModel& noise) const override;

  /// Reconstruct and also report which p was chosen and the estimated
  /// spectrum (used by experiments and tests).
  Result<linalg::Matrix> ReconstructWithDiagnostics(
      const linalg::Matrix& disguised, const perturb::NoiseModel& noise,
      PcaDiagnostics* diagnostics) const;

  const PcaOptions& options() const { return options_; }

 private:
  PcaOptions options_;
};

/// The component-count rules, exposed for direct testing. `eigenvalues`
/// must be sorted descending; returns p in [1, m].
size_t SelectNumComponents(const linalg::Vector& eigenvalues,
                           const PcaOptions& options);

/// PCA-DR steps 1–3, shared by PcaReconstructor and the streaming pipeline:
/// EstimateOriginalSpectrum of Cov(Y) (ddof 0), or the §5.3 oracle
/// decomposed directly (Cov(Y) unread), then p by SelectNumComponents.
Result<ProjectionBasis> SelectPcaBasis(linalg::Matrix disguised_covariance,
                                       const perturb::NoiseModel& noise,
                                       const PcaOptions& options);

}  // namespace core
}  // namespace randrecon

#endif  // RANDRECON_CORE_PCA_DR_H_
