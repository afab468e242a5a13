#include "linalg/matrix_util.h"

#include <cmath>

#include "linalg/kernels.h"

namespace randrecon {
namespace linalg {

double Trace(const Matrix& a) {
  RR_CHECK_EQ(a.rows(), a.cols()) << "Trace needs a square matrix";
  double sum = 0.0;
  for (size_t i = 0; i < a.rows(); ++i) sum += a(i, i);
  return sum;
}

double FrobeniusNorm(const Matrix& a) {
  double sum = 0.0;
  const double* p = a.data();
  for (size_t i = 0; i < a.size(); ++i) sum += p[i] * p[i];
  return std::sqrt(sum);
}

double MaxAbsDifference(const Matrix& a, const Matrix& b) {
  RR_CHECK(a.rows() == b.rows() && a.cols() == b.cols()) << "shape mismatch";
  double best = 0.0;
  const double* pa = a.data();
  const double* pb = b.data();
  for (size_t i = 0; i < a.size(); ++i) {
    best = std::max(best, std::fabs(pa[i] - pb[i]));
  }
  return best;
}

bool IsSymmetric(const Matrix& a, double tol) {
  if (a.rows() != a.cols()) return false;
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = i + 1; j < a.cols(); ++j) {
      if (std::fabs(a(i, j) - a(j, i)) > tol) return false;
    }
  }
  return true;
}

Matrix Symmetrize(const Matrix& a) {
  RR_CHECK_EQ(a.rows(), a.cols());
  Matrix out(a.rows(), a.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      out(i, j) = 0.5 * (a(i, j) + a(j, i));
    }
  }
  return out;
}

bool HasOrthonormalColumns(const Matrix& q, double tol) {
  // qᵀq is a column Gram matrix: one blocked pass, no transpose copy.
  const Matrix gram = kernels::GramMatrix(q, 1.0);
  const Matrix identity = Matrix::Identity(q.cols());
  return MaxAbsDifference(gram, identity) <= tol;
}

Matrix CovarianceToCorrelation(const Matrix& cov) {
  RR_CHECK_EQ(cov.rows(), cov.cols());
  const size_t m = cov.rows();
  Matrix corr(m, m);
  Vector stddev(m);
  for (size_t i = 0; i < m; ++i) {
    stddev[i] = cov(i, i) > 0.0 ? std::sqrt(cov(i, i)) : 0.0;
  }
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < m; ++j) {
      if (i == j) {
        corr(i, j) = 1.0;
      } else if (stddev[i] > 0.0 && stddev[j] > 0.0) {
        corr(i, j) = cov(i, j) / (stddev[i] * stddev[j]);
      } else {
        corr(i, j) = 0.0;
      }
    }
  }
  return corr;
}

}  // namespace linalg
}  // namespace randrecon
