#include "core/pca_dr.h"

#include <algorithm>

#include "linalg/eigen.h"
#include "linalg/kernels.h"
#include "stats/moments.h"

namespace randrecon {
namespace core {
namespace {

/// kLargestGap's dominance check: the split counts only if the eigenvalue
/// after the gap is at most this fraction of the one before it.
constexpr double kGapDominanceRatio = 0.5;

}  // namespace

size_t SelectNumComponents(const linalg::Vector& eigenvalues,
                           const PcaOptions& options) {
  const size_t m = eigenvalues.size();
  RR_CHECK_GT(m, 0u);
  switch (options.selection) {
    case PcSelection::kFixedCount:
      return std::clamp<size_t>(options.fixed_count, 1, m);
    case PcSelection::kVarianceFraction: {
      RR_CHECK(options.variance_fraction > 0.0 &&
               options.variance_fraction <= 1.0)
          << "variance_fraction out of (0,1]";
      double total = 0.0;
      for (double lambda : eigenvalues) total += std::max(lambda, 0.0);
      if (total <= 0.0) return 1;
      double running = 0.0;
      for (size_t p = 0; p < m; ++p) {
        running += std::max(eigenvalues[p], 0.0);
        if (running >= options.variance_fraction * total) return p + 1;
      }
      return m;
    }
    case PcSelection::kLargestGap: {
      if (m == 1) return 1;
      // The split between "dominant" and "non-dominant" eigenvalues.
      const size_t best_p = LargestGapSplit(eigenvalues);
      // Dominance check: a flat spectrum (uncorrelated data) has no
      // principal/non-principal split; keep everything.
      const double before = eigenvalues[best_p - 1];
      const double after = eigenvalues[best_p];
      if (before <= 0.0 || after > kGapDominanceRatio * before) {
        return m;
      }
      return best_p;
    }
  }
  return 1;  // Unreachable; keeps GCC's -Wreturn-type happy.
}

Result<ProjectionBasis> SelectPcaBasis(linalg::Matrix disguised_covariance,
                                       const perturb::NoiseModel& noise,
                                       const PcaOptions& options) {
  // Steps 1–2: the original covariance's spectrum — estimated per Theorem
  // 5.1/8.2, or decomposed from the §5.3 oracle.
  linalg::EigenDecomposition eig;
  if (options.oracle_covariance.has_value()) {
    if (options.oracle_covariance->rows() != noise.num_attributes()) {
      return Status::InvalidArgument(
          "PCA-DR: oracle covariance dimension mismatch");
    }
    RR_ASSIGN_OR_RETURN(eig,
                        linalg::SymmetricEigen(*options.oracle_covariance));
  } else {
    RR_ASSIGN_OR_RETURN(
        eig, EstimateOriginalSpectrum(std::move(disguised_covariance), noise,
                                      options.moment_options));
  }
  // Step 3: pick p from the *original* eigenvalues — they encode the data
  // correlation the attack exploits (§5.2.2).
  const size_t p = SelectNumComponents(eig.eigenvalues, options);
  return ProjectionBasis{std::move(eig.eigenvalues),
                         std::move(eig.eigenvectors), p};
}

Result<linalg::Matrix> PcaReconstructor::Reconstruct(
    const linalg::Matrix& disguised, const perturb::NoiseModel& noise) const {
  return ReconstructWithDiagnostics(disguised, noise, nullptr);
}

Result<linalg::Matrix> PcaReconstructor::ReconstructWithDiagnostics(
    const linalg::Matrix& disguised, const perturb::NoiseModel& noise,
    PcaDiagnostics* diagnostics) const {
  RR_RETURN_NOT_OK(ValidateShapes(disguised, noise));
  // The §5.3 oracle mode reads no moments of Y.
  const bool estimate = !options_.oracle_covariance.has_value();
  if (estimate && disguised.rows() < 2) {
    return Status::InvalidArgument("PCA-DR: need at least 2 records");
  }
  // One centred copy of Y feeds Cov(Y) — the bits of
  // stats::SampleCovariance — and then the projection.
  linalg::Vector mean;
  linalg::Matrix centered = stats::CenterColumns(disguised, &mean);
  RR_ASSIGN_OR_RETURN(
      const ProjectionBasis basis,
      SelectPcaBasis(estimate ? linalg::kernels::GramMatrix(
                                    centered,
                                    static_cast<double>(disguised.rows()))
                              : linalg::Matrix(),
                     noise, options_));

  if (diagnostics != nullptr) {
    diagnostics->num_components = basis.num_components;
    diagnostics->eigenvalues = basis.eigenvalues;
    double total = 0.0;
    double kept = 0.0;
    for (size_t i = 0; i < basis.eigenvalues.size(); ++i) {
      const double lambda = std::max(basis.eigenvalues[i], 0.0);
      total += lambda;
      if (i < basis.num_components) kept += lambda;
    }
    diagnostics->retained_variance_fraction = total > 0.0 ? kept / total : 0.0;
  }

  // Step 4: X̂ = Ȳ Q̂ Q̂ᵀ + µ̂.
  return ProjectOntoBasis(std::move(centered), mean, basis);
}

}  // namespace core
}  // namespace randrecon
