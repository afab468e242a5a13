// Matrix-level utilities: norms, symmetry helpers, orthonormality.

#ifndef RANDRECON_LINALG_MATRIX_UTIL_H_
#define RANDRECON_LINALG_MATRIX_UTIL_H_

#include "linalg/matrix.h"

namespace randrecon {
namespace linalg {

/// Sum of the diagonal entries (square matrices only).
double Trace(const Matrix& a);

/// Frobenius norm sqrt(Σ aᵢⱼ²).
double FrobeniusNorm(const Matrix& a);

/// Largest |aᵢⱼ - bᵢⱼ|; shapes must match.
double MaxAbsDifference(const Matrix& a, const Matrix& b);

/// True iff |aᵢⱼ - aⱼᵢ| ≤ tol for all i, j.
bool IsSymmetric(const Matrix& a, double tol = 1e-9);

/// Replaces a with (a + aᵀ)/2 — removes the tiny asymmetry that floating
/// point accumulation introduces in sample covariance matrices.
Matrix Symmetrize(const Matrix& a);

/// True iff the matrix has orthonormal columns: ||QᵀQ - I||max ≤ tol.
bool HasOrthonormalColumns(const Matrix& q, double tol = 1e-8);

/// Converts a covariance matrix to the matrix of correlation coefficients:
/// corr(i,j) = cov(i,j) / sqrt(cov(i,i) cov(j,j)). Zero-variance rows map
/// to zero correlation (diagonal stays 1).
Matrix CovarianceToCorrelation(const Matrix& cov);

}  // namespace linalg
}  // namespace randrecon

#endif  // RANDRECON_LINALG_MATRIX_UTIL_H_
