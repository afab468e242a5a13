#include "core/covariance_estimation.h"

#include <algorithm>
#include <numeric>

#include "core/reconstructor.h"
#include "linalg/matrix_util.h"
#include "stats/moments.h"

namespace randrecon {
namespace core {
namespace {

/// Theorem 8.2: Σy = Σx + Σr, hence Σ̂x = Σy − Σr. For independent noise
/// Σr is diagonal (= σ²I) and this is exactly Theorem 5.1's "subtract σ²
/// from the diagonal".
Result<linalg::Matrix> SubtractNoise(linalg::Matrix disguised_covariance,
                                     const perturb::NoiseModel& noise) {
  if (disguised_covariance.rows() != noise.num_attributes() ||
      disguised_covariance.cols() != noise.num_attributes()) {
    return Status::InvalidArgument(
        "EstimateOriginalCovariance: covariance dimension != noise model");
  }
  disguised_covariance -= noise.covariance();
  return disguised_covariance;
}

/// Post-processes Σ̂x's descending eigenvalues in place, keeping them
/// descending: for m >= 2 the bulk average replaces the non-principal
/// ones by their mean, floored at max(eigen_floor, 0); otherwise the PSD
/// clip raises each to eigen_floor. Returns false when the spectrum is
/// still Σ̂x's.
bool AdjustEigenvalues(const MomentEstimationOptions& options,
                       linalg::Vector* values) {
  const size_t m = values->size();
  if (options.bulk_average_nonprincipal && m >= 2) {
    const double floor = std::max(options.eigen_floor, 0.0);
    const auto bulk = values->begin() + LargestGapSplit(*values);
    std::fill(bulk, values->end(),
              std::accumulate(bulk, values->end(), 0.0) /
                  static_cast<double>(values->end() - bulk));
    for (double& lambda : *values) lambda = std::max(lambda, floor);
    return true;
  }
  RR_CHECK_GE(options.eigen_floor, 0.0);
  const bool clipped = m > 0 && values->back() < options.eigen_floor;
  for (double& lambda : *values) lambda = std::max(lambda, options.eigen_floor);
  return clipped;
}

}  // namespace

size_t LargestGapSplit(const linalg::Vector& descending) {
  const size_t m = descending.size();
  RR_CHECK_GE(m, 2u);
  size_t split = 1;
  double best_gap = descending[0] - descending[1];
  for (size_t i = 1; i + 1 < m; ++i) {
    const double gap = descending[i] - descending[i + 1];
    if (gap > best_gap) {
      best_gap = gap;
      split = i + 1;
    }
  }
  return split;
}

Result<linalg::EigenDecomposition> EstimateOriginalSpectrum(
    linalg::Matrix disguised_covariance, const perturb::NoiseModel& noise,
    const MomentEstimationOptions& options) {
  RR_ASSIGN_OR_RETURN(const linalg::Matrix cov,
                      SubtractNoise(std::move(disguised_covariance), noise));
  RR_ASSIGN_OR_RETURN(linalg::EigenDecomposition eig,
                      linalg::SymmetricEigen(cov));
  AdjustEigenvalues(options, &eig.eigenvalues);
  return eig;
}

Result<linalg::Matrix> EstimateOriginalCovariance(
    linalg::Matrix disguised_covariance, const perturb::NoiseModel& noise,
    const MomentEstimationOptions& options) {
  RR_ASSIGN_OR_RETURN(linalg::Matrix cov,
                      SubtractNoise(std::move(disguised_covariance), noise));
  RR_ASSIGN_OR_RETURN(linalg::EigenDecomposition eig,
                      linalg::SymmetricEigen(cov));
  if (AdjustEigenvalues(options, &eig.eigenvalues)) {
    return linalg::ComposeFromEigen(eig.eigenvalues, eig.eigenvectors);
  }
  // Σ̂x kept its spectrum: only scrub the floating-point asymmetry.
  return linalg::Symmetrize(cov);
}

Result<OriginalMoments> EstimateOriginalMoments(
    const linalg::Matrix& disguised, const perturb::NoiseModel& noise,
    const MomentEstimationOptions& options) {
  RR_RETURN_NOT_OK(ValidateShapes(disguised, noise));
  if (disguised.rows() < 2) {
    return Status::InvalidArgument(
        "EstimateOriginalMoments: need at least 2 records");
  }

  OriginalMoments out;
  out.mean = stats::ColumnMeans(disguised);
  RR_ASSIGN_OR_RETURN(out.covariance,
                      EstimateOriginalCovariance(
                          stats::SampleCovariance(disguised), noise, options));
  return out;
}

}  // namespace core
}  // namespace randrecon
