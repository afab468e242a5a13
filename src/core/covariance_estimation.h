// Attacker-side estimation of the original data's first two moments from
// the disguised data — Theorem 5.1 (independent noise: subtract σ² from
// the diagonal) and Theorem 8.2 (correlated noise: Σx = Σy − Σr), plus the
// mean estimate µx ≈ µy (noise is zero-mean).

#ifndef RANDRECON_CORE_COVARIANCE_ESTIMATION_H_
#define RANDRECON_CORE_COVARIANCE_ESTIMATION_H_

#include "common/result.h"
#include "linalg/eigen.h"
#include "linalg/matrix.h"
#include "perturb/noise_model.h"

namespace randrecon {
namespace core {

/// Estimated moments of the hidden original data.
struct OriginalMoments {
  /// Σ̂x = Cov(Y) − Σr, projected back onto the PSD cone.
  linalg::Matrix covariance;
  /// µ̂x = column means of Y.
  linalg::Vector mean;
};

/// Options for the moment estimator.
struct MomentEstimationOptions {
  /// At finite n the subtraction Cov(Y) − Σr can produce small negative
  /// eigenvalues; the PSD clip raises every eigenvalue to at least this
  /// floor (>= 0). A strictly positive floor also keeps Σ̂x invertible
  /// for the literal Eq. 11/13 formulas.
  double eigen_floor = 0.0;
  /// Spiked-spectrum shrinkage: after the subtraction, replace all
  /// non-principal eigenvalues (split by LargestGapSplit, as PCA-DR's
  /// eigengap rule does) by their mean. At finite n the raw non-principal
  /// eigenvalue estimates scatter widely around their true common level,
  /// which makes downstream BE-DR over-trust noise directions; averaging
  /// them restores the two-level structure the §7 experiments generate
  /// data from. Off by default — it is an estimation refinement, not part
  /// of the paper's formulas (ablation A4 measures its effect). It needs
  /// m >= 2; a 1 x 1 spectrum takes the PSD clip instead.
  bool bulk_average_nonprincipal = false;
};

/// How many eigenvalues of a descending spectrum (m >= 2) precede its
/// largest gap λ_p − λ_{p+1}: the principal/non-principal split of
/// PCA-DR's eigengap rule (§5.2.2) and of the bulk average.
size_t LargestGapSplit(const linalg::Vector& descending);

/// Runs Theorem 5.1 / Theorem 8.2 on the disguised matrix. Works for both
/// independent (diagonal Σr) and correlated noise: the theorems coincide
/// because for independent noise Σr = σ²I.
Result<OriginalMoments> EstimateOriginalMoments(
    const linalg::Matrix& disguised, const perturb::NoiseModel& noise,
    const MomentEstimationOptions& options = {});

/// Σ̂x = Cov(Y) − Σr decomposed ONCE, with the PSD clip (λ ← max(λ,
/// eigen_floor)) or the bulk average applied to the eigenvalues only; the
/// eigenvectors are the decomposition's own. PCA-DR's basis
/// (SelectPcaBasis) comes from here.
Result<linalg::EigenDecomposition> EstimateOriginalSpectrum(
    linalg::Matrix disguised_covariance, const perturb::NoiseModel& noise,
    const MomentEstimationOptions& options = {});

/// The covariance half of EstimateOriginalMoments for callers that have
/// already computed Cov(Y): EstimateOriginalSpectrum as a matrix, for the
/// attacks that need Σ̂x itself (BE-DR, partial disclosure). Recomposes
/// Q Λ' Qᵀ only when the clip or the bulk average moved an eigenvalue.
Result<linalg::Matrix> EstimateOriginalCovariance(
    linalg::Matrix disguised_covariance, const perturb::NoiseModel& noise,
    const MomentEstimationOptions& options = {});

}  // namespace core
}  // namespace randrecon

#endif  // RANDRECON_CORE_COVARIANCE_ESTIMATION_H_
