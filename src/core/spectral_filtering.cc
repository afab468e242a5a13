#include "core/spectral_filtering.h"

#include <algorithm>
#include <cmath>

#include "linalg/eigen.h"
#include "linalg/kernels.h"
#include "stats/moments.h"

namespace randrecon {
namespace core {

double SpectralFilteringReconstructor::NoiseEigenvalueUpperBound(
    double noise_variance, size_t num_records, size_t num_attributes) {
  RR_CHECK_GT(num_records, 0u);
  const double ratio = std::sqrt(static_cast<double>(num_attributes) /
                                 static_cast<double>(num_records));
  const double root = 1.0 + ratio;
  return noise_variance * root * root;
}

size_t SelectSfComponents(const linalg::Vector& disguised_eigenvalues,
                          const perturb::NoiseModel& noise,
                          size_t num_records) {
  const size_t m = disguised_eigenvalues.size();
  RR_CHECK_EQ(m, noise.num_attributes()) << "SF: spectrum/noise mismatch";

  // The published bound is for i.i.d. noise of variance σ². If the noise
  // is correlated the attacker's best drop-in is the average per-attribute
  // variance (the paper observes SF behaving anomalously there — §8.2).
  double noise_variance = 0.0;
  for (size_t j = 0; j < m; ++j) noise_variance += noise.Variance(j);
  noise_variance /= static_cast<double>(m);

  const double upper_bound =
      SpectralFilteringReconstructor::NoiseEigenvalueUpperBound(
          noise_variance, num_records, m);

  size_t p = 0;
  while (p < m && disguised_eigenvalues[p] > upper_bound) ++p;
  return std::max<size_t>(p, std::min<size_t>(m, 1));
}

Result<ProjectionBasis> SelectSfBasis(
    const linalg::Matrix& disguised_covariance,
    const perturb::NoiseModel& noise, size_t num_records) {
  // SF works on the covariance of the *perturbed* data directly — unlike
  // PCA-DR it does not subtract the noise first; the random-matrix bound
  // does the separation.
  RR_ASSIGN_OR_RETURN(linalg::EigenDecomposition eig,
                      linalg::SymmetricEigen(disguised_covariance));
  const size_t p =
      SelectSfComponents(eig.eigenvalues, noise, num_records);
  return ProjectionBasis{std::move(eig.eigenvalues),
                         std::move(eig.eigenvectors), p};
}

Result<linalg::Matrix> SpectralFilteringReconstructor::Reconstruct(
    const linalg::Matrix& disguised, const perturb::NoiseModel& noise) const {
  RR_RETURN_NOT_OK(ValidateShapes(disguised, noise));
  // One centred copy of Y feeds Cov(Y) — the bits of
  // stats::SampleCovariance — and then the projection.
  linalg::Vector mean;
  linalg::Matrix centered = stats::CenterColumns(disguised, &mean);
  RR_ASSIGN_OR_RETURN(
      const ProjectionBasis basis,
      SelectSfBasis(linalg::kernels::GramMatrix(
                        centered, static_cast<double>(disguised.rows())),
                    noise, disguised.rows()));
  return ProjectOntoBasis(std::move(centered), mean, basis);
}

}  // namespace core
}  // namespace randrecon
