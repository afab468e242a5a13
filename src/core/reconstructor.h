// Reconstructor: the adversary interface.
//
// A reconstructor receives (a) the disguised record matrix Y = X + R and
// (b) the public NoiseModel describing R, and produces an estimate X̂ of
// the original records. The distance between X̂ and X *is* the paper's
// privacy measure: the closer the reconstruction, the less privacy the
// randomization preserved (§3).

#ifndef RANDRECON_CORE_RECONSTRUCTOR_H_
#define RANDRECON_CORE_RECONSTRUCTOR_H_

#include <string>

#include "common/parallel.h"
#include "common/result.h"
#include "linalg/matrix.h"
#include "perturb/noise_model.h"

namespace randrecon {
namespace core {

/// Interface implemented by every data-reconstruction attack in the
/// library (NDR, UDR, PCA-DR, BE-DR, SF).
class Reconstructor {
 public:
  virtual ~Reconstructor() = default;

  /// Short display name used in experiment tables, e.g. "PCA-DR".
  virtual std::string name() const = 0;

  /// Produces the reconstructed record matrix X̂ (same shape as
  /// `disguised`). Fails with InvalidArgument when the noise model's
  /// attribute count doesn't match the data, or when the scheme's
  /// documented preconditions are violated (e.g. Eq. 11 needs uniform
  /// noise variance); NumericalError on decomposition failures.
  virtual Result<linalg::Matrix> Reconstruct(
      const linalg::Matrix& disguised,
      const perturb::NoiseModel& noise) const = 0;
};

/// Shared precondition: noise model dimension must match the data. OK on
/// success; InvalidArgument otherwise.
Status ValidateShapes(const linalg::Matrix& disguised,
                      const perturb::NoiseModel& noise);

/// The eigenbasis PCA-DR and SF project through (SelectPcaBasis,
/// SelectSfBasis).
struct ProjectionBasis {
  /// The spectrum p was selected from, descending: Σ̂x's for PCA-DR,
  /// Cov(Y)'s for SF.
  linalg::Vector eigenvalues;
  /// m x m orthonormal eigenvectors as columns, in the same order: the
  /// first p are Q̂, the rest the dropped directions.
  linalg::Matrix eigenvectors;
  size_t num_components = 0;
};

/// X̂ = (Y − 1µ̂ᵀ) Q̂ Q̂ᵀ + 1µ̂ᵀ for `rows` row-major records, Q̂ = `q_hat`
/// (m x p), into `reconstructed` (rows x m) via `scores` (rows x p). Each
/// row's bits depend on neither `rows` nor the thread count.
void ProjectRecords(const double* disguised, size_t rows,
                    const linalg::Vector& mean, const linalg::Matrix& q_hat,
                    double* scores, double* reconstructed,
                    const ParallelOptions& parallel = {});

/// X̂ = Ȳ Q̂ Q̂ᵀ + 1µ̂ᵀ for records already centered on `mean` (Ȳ =
/// `centered`), computed in place: the bits of ProjectRecords over the
/// uncentered records.
linalg::Matrix ProjectOntoBasis(linalg::Matrix centered,
                                const linalg::Vector& mean,
                                const ProjectionBasis& basis);

}  // namespace core
}  // namespace randrecon

#endif  // RANDRECON_CORE_RECONSTRUCTOR_H_
