#include "linalg/orthogonal.h"

#include <cmath>

#include "linalg/vector_ops.h"

namespace randrecon {
namespace linalg {

Result<Matrix> GramSchmidtOrthonormalize(const Matrix& a,
                                         double rank_tolerance) {
  if (a.rows() < a.cols()) {
    return Status::InvalidArgument(
        "GramSchmidt: cannot orthonormalize more columns than rows");
  }
  const size_t m = a.rows();
  const size_t k = a.cols();
  Matrix q = a;
  for (size_t j = 0; j < k; ++j) {
    Vector col = q.Col(j);
    const double original_norm = Norm(col);
    // Modified Gram-Schmidt: subtract projections one at a time against
    // the already-orthonormalized columns.
    for (size_t prev = 0; prev < j; ++prev) {
      const Vector basis = q.Col(prev);
      const double coeff = Dot(col, basis);
      AddScaled(&col, -coeff, basis);
    }
    const double norm = Norm(col);
    if (norm <= rank_tolerance * (original_norm > 0.0 ? original_norm : 1.0)) {
      return Status::NumericalError(
          "GramSchmidt: rank-deficient input at column " + std::to_string(j));
    }
    for (size_t i = 0; i < m; ++i) q(i, j) = col[i] / norm;
  }
  return q;
}

}  // namespace linalg
}  // namespace randrecon
