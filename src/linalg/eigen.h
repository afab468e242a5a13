// Symmetric eigendecomposition via the cyclic Jacobi rotation method.
//
// Every matrix the library decomposes is an m x m covariance (m = 128 in
// the attack service), for which Jacobi is simple and numerically robust.
// Eigenpairs are returned in descending eigenvalue order, the convention
// PCA expects.

#ifndef RANDRECON_LINALG_EIGEN_H_
#define RANDRECON_LINALG_EIGEN_H_

#include "common/result.h"
#include "linalg/matrix.h"

namespace randrecon {
namespace linalg {

/// Result of a symmetric eigendecomposition A = Q Λ Qᵀ.
struct EigenDecomposition {
  /// Eigenvalues, sorted descending: λ₁ ≥ λ₂ ≥ ... ≥ λₘ.
  Vector eigenvalues;
  /// Orthonormal eigenvectors as *columns*, in the same order: column k of
  /// `eigenvectors` pairs with eigenvalues[k].
  Matrix eigenvectors;
};

/// Decomposes a symmetric matrix. Sweeps until the off-diagonal Frobenius
/// norm is below 1e-12 of the matrix's own. Fails with InvalidArgument if
/// `a` is not square/symmetric and NumericalError if 64 sweeps do not
/// converge.
Result<EigenDecomposition> SymmetricEigen(const Matrix& a);

/// Q Λ Qᵀ: covariances from a chosen spectrum (the §7.1 synthesizer, the
/// noise schemes) and Σ̂x after its spectrum was clipped or averaged.
Matrix ComposeFromEigen(const Vector& eigenvalues, const Matrix& eigenvectors);

}  // namespace linalg
}  // namespace randrecon

#endif  // RANDRECON_LINALG_EIGEN_H_
