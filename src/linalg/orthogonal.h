// Gram-Schmidt orthonormalization. The §7.1 synthetic-data generator
// produces its random eigenvector basis Q by orthonormalizing a random
// Gaussian matrix, exactly as the paper describes ("By using Gram-Schmidt
// orthonormalization process, we generate an orthogonal matrix Q").

#ifndef RANDRECON_LINALG_ORTHOGONAL_H_
#define RANDRECON_LINALG_ORTHOGONAL_H_

#include "common/result.h"
#include "linalg/matrix.h"

namespace randrecon {
namespace linalg {

/// Orthonormalizes the *columns* of `a` using modified Gram-Schmidt (the
/// numerically stable variant). Returns NumericalError if the columns are
/// rank-deficient (a column collapses below `rank_tolerance` of its
/// original norm). The result has the same shape as `a` and satisfies
/// QᵀQ = I.
Result<Matrix> GramSchmidtOrthonormalize(const Matrix& a,
                                         double rank_tolerance = 1e-10);

}  // namespace linalg
}  // namespace randrecon

#endif  // RANDRECON_LINALG_ORTHOGONAL_H_
