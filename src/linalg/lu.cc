#include "linalg/lu.h"

#include <cmath>

namespace randrecon {
namespace linalg {

Result<LuFactorization> LuFactorization::Compute(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("LU: matrix is not square");
  }
  const size_t m = a.rows();
  Matrix lu = a;
  std::vector<size_t> perm(m);
  for (size_t i = 0; i < m; ++i) perm[i] = i;
  int sign = 1;

  for (size_t col = 0; col < m; ++col) {
    // Partial pivoting: bring the largest remaining entry in this column
    // to the diagonal.
    size_t pivot_row = col;
    double pivot_mag = std::fabs(lu(col, col));
    for (size_t i = col + 1; i < m; ++i) {
      const double mag = std::fabs(lu(i, col));
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = i;
      }
    }
    if (pivot_mag == 0.0 || !std::isfinite(pivot_mag)) {
      return Status::NumericalError("LU: matrix is singular at column " +
                                    std::to_string(col));
    }
    if (pivot_row != col) {
      for (size_t j = 0; j < m; ++j) std::swap(lu(col, j), lu(pivot_row, j));
      std::swap(perm[col], perm[pivot_row]);
      sign = -sign;
    }
    const double pivot = lu(col, col);
    for (size_t i = col + 1; i < m; ++i) {
      const double factor = lu(i, col) / pivot;
      lu(i, col) = factor;
      if (factor == 0.0) continue;
      for (size_t j = col + 1; j < m; ++j) {
        lu(i, j) -= factor * lu(col, j);
      }
    }
  }
  return LuFactorization(std::move(lu), std::move(perm), sign);
}

Vector LuFactorization::Solve(const Vector& b) const {
  const size_t m = lu_.rows();
  RR_CHECK_EQ(b.size(), m);
  // Forward substitution with implicit unit diagonal, applying P to b.
  Vector y(m);
  for (size_t i = 0; i < m; ++i) {
    double sum = b[perm_[i]];
    for (size_t k = 0; k < i; ++k) sum -= lu_(i, k) * y[k];
    y[i] = sum;
  }
  // Back substitution on U.
  Vector x(m);
  for (size_t ii = m; ii-- > 0;) {
    double sum = y[ii];
    for (size_t k = ii + 1; k < m; ++k) sum -= lu_(ii, k) * x[k];
    x[ii] = sum / lu_(ii, ii);
  }
  return x;
}

Matrix LuFactorization::Solve(const Matrix& b) const {
  RR_CHECK_EQ(b.rows(), lu_.rows());
  Matrix x(b.rows(), b.cols());
  for (size_t j = 0; j < b.cols(); ++j) {
    x.SetCol(j, Solve(b.Col(j)));
  }
  return x;
}

Matrix LuFactorization::Inverse() const {
  return Solve(Matrix::Identity(lu_.rows()));
}

double LuFactorization::Determinant() const {
  double det = static_cast<double>(pivot_sign_);
  for (size_t i = 0; i < lu_.rows(); ++i) det *= lu_(i, i);
  return det;
}

Result<Matrix> InvertMatrix(const Matrix& a) {
  RR_ASSIGN_OR_RETURN(LuFactorization lu, LuFactorization::Compute(a));
  return lu.Inverse();
}

}  // namespace linalg
}  // namespace randrecon
