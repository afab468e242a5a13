// LU factorization with partial pivoting: general square solves, inverses
// and determinants. The Bayes-estimate reconstructor inverts
// (Σx⁻¹ + Σr⁻¹)-style matrices that are symmetric but may be produced by
// user-supplied covariances, so a pivoted general-purpose solver is the
// safe default.

#ifndef RANDRECON_LINALG_LU_H_
#define RANDRECON_LINALG_LU_H_

#include <vector>

#include "common/result.h"
#include "linalg/matrix.h"

namespace randrecon {
namespace linalg {

/// PA = LU factorization with partial (row) pivoting.
class LuFactorization {
 public:
  /// Factors a square matrix. Returns NumericalError for singular input.
  static Result<LuFactorization> Compute(const Matrix& a);

  /// Solves A x = b.
  Vector Solve(const Vector& b) const;

  /// Solves A X = B column-by-column.
  Matrix Solve(const Matrix& b) const;

  /// A⁻¹ (solves against the identity).
  Matrix Inverse() const;

  /// det(A), including the pivot sign.
  double Determinant() const;

 private:
  LuFactorization(Matrix lu, std::vector<size_t> perm, int sign)
      : lu_(std::move(lu)), perm_(std::move(perm)), pivot_sign_(sign) {}

  Matrix lu_;                 // L (unit diagonal, below) and U (on/above).
  std::vector<size_t> perm_;  // Row permutation: solves use b[perm_[i]].
  int pivot_sign_;            // +1 / -1 from row swaps, for Determinant().
};

/// Convenience: A⁻¹ in one call. Prefer keeping the factorization when
/// solving repeatedly.
Result<Matrix> InvertMatrix(const Matrix& a);

}  // namespace linalg
}  // namespace randrecon

#endif  // RANDRECON_LINALG_LU_H_
