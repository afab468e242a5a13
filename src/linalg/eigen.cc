#include "linalg/eigen.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "linalg/kernels.h"
#include "linalg/matrix_util.h"

namespace randrecon {
namespace linalg {
namespace {

/// Convergence threshold on the off-diagonal Frobenius norm relative to
/// the matrix's own scale.
constexpr double kTolerance = 1e-12;
/// Hard cap on full sweeps; 100x100 covariance matrices converge in ~10.
constexpr int kMaxSweeps = 64;

/// Sum of squares of the strictly-upper-triangle entries, via raw row
/// pointers. Used once to seed the incremental off-diagonal tracker and
/// once per apparent convergence to confirm it against accumulated
/// floating-point drift.
double UpperOffDiagonalSquaredSum(const double* a, size_t m) {
  double sum = 0.0;
  for (size_t i = 0; i < m; ++i) {
    const double* row = a + i * m;
    for (size_t j = i + 1; j < m; ++j) sum += row[j] * row[j];
  }
  return sum;
}

/// Applies the plane rotation (x, y) <- (c x - s y, s x + c y) to the
/// element pair, in the drift-resistant form of Numerical Recipes
/// (tau = s / (1 + c), so c x - s y == x - s (y + tau x)).
inline void Rotate(double& x, double& y, double s, double tau) {
  const double g = x;
  const double h = y;
  x = g - s * (h + g * tau);
  y = h + s * (g - h * tau);
}

}  // namespace

Result<EigenDecomposition> SymmetricEigen(const Matrix& input) {
  if (input.rows() != input.cols()) {
    return Status::InvalidArgument("SymmetricEigen: matrix is not square");
  }
  const double input_norm = FrobeniusNorm(input);
  if (!std::isfinite(input_norm)) {
    // NaN/Inf entries (or a norm that overflows) can masquerade as a
    // converged diagonal once rotations force pivots to zero; reject
    // up front instead of sweeping 64 times over garbage.
    return Status::InvalidArgument(
        "SymmetricEigen: matrix has non-finite entries or overflowing norm");
  }
  if (!IsSymmetric(input, 1e-8 * (1.0 + input_norm))) {
    return Status::InvalidArgument("SymmetricEigen: matrix is not symmetric");
  }
  const size_t m = input.rows();
  if (m == 0) {
    return EigenDecomposition{Vector{}, Matrix{}};
  }
  Matrix a_mat = Symmetrize(input);  // Scrub tiny floating-point asymmetry.
  // The eigenvector basis is accumulated transposed (row k = candidate
  // eigenvector k) so each rotation touches two contiguous rows instead of
  // two strided columns.
  Matrix qt_mat = Matrix::Identity(m);
  double* a = a_mat.data();
  double* qt = qt_mat.data();

  const double scale = FrobeniusNorm(a_mat);
  // Same criterion as the historical full-matrix rescan: the full
  // off-diagonal square sum is twice the upper-triangle sum, so halve the
  // threshold instead of doubling the scan.
  const double threshold = 0.5 * kTolerance * kTolerance *
                           (scale > 0.0 ? scale * scale : 1.0);

  // `off` tracks the upper-triangle off-diagonal square sum incrementally:
  // a Jacobi rotation at (p, r) zeroes a_pr and rotates every other
  // affected pair orthogonally (preserving its square sum), so the total
  // drops by exactly a_pr^2 per rotation — no O(m^2) rescan per sweep.
  // The tracker accumulates one rounding error per rotation, which can
  // exceed the (tiny) threshold itself, so `drift` carries a running
  // bound on that error: whenever the true sum could be below threshold
  // (off <= threshold + drift), an exact scan decides.
  constexpr double kEps = 2.3e-16;
  double off = UpperOffDiagonalSquaredSum(a, m);
  double drift = kEps * off * static_cast<double>(m * m);
  bool converged = off <= threshold;
  for (int sweep = 0; sweep < kMaxSweeps && !converged; ++sweep) {
    // One cyclic sweep over all (p, r) pairs above the diagonal. Only the
    // upper triangle is stored/updated; symmetry supplies the rest.
    for (size_t p = 0; p + 1 < m; ++p) {
      double* row_p = a + p * m;
      for (size_t r = p + 1; r < m; ++r) {
        const double apr = row_p[r];
        if (std::fabs(apr) < 1e-300) continue;
        const double app = row_p[p];
        const double arr = a[r * m + r];
        // Classic Jacobi rotation angle: stable computation of t = tan θ.
        const double theta = (arr - app) / (2.0 * apr);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        const double tau = s / (1.0 + c);

        // One rounding error from the subtraction plus ~2 ulp per rotated
        // pair (the pairs' square sums are themselves part of `off`), so
        // grow the bound by a few eps of the current total.
        drift += 4.0 * kEps * off;
        off -= apr * apr;
        if (off < 0.0) off = 0.0;
        row_p[p] = app - t * apr;
        a[r * m + r] = arr + t * apr;
        row_p[r] = 0.0;

        double* row_r = a + r * m;
        // The three upper-triangle segments of rows/columns p and r:
        // pairs (a_jp, a_jr) for j < p, (a_pj, a_jr) for p < j < r, and
        // (a_pj, a_rj) for j > r — the last one is fully contiguous.
        for (size_t j = 0; j < p; ++j) {
          Rotate(a[j * m + p], a[j * m + r], s, tau);
        }
        for (size_t j = p + 1; j < r; ++j) {
          Rotate(row_p[j], a[j * m + r], s, tau);
        }
        for (size_t j = r + 1; j < m; ++j) {
          Rotate(row_p[j], row_r[j], s, tau);
        }
        // Accumulate the basis: Q <- Q J is a contiguous row pair of Qᵀ.
        double* qrow_p = qt + p * m;
        double* qrow_r = qt + r * m;
        for (size_t j = 0; j < m; ++j) {
          Rotate(qrow_p[j], qrow_r[j], s, tau);
        }
      }
    }
    if (off <= threshold + drift) {
      // The true sum may be at or below threshold: decide with an exact
      // scan and restart the tracker from it.
      off = UpperOffDiagonalSquaredSum(a, m);
      drift = kEps * off * static_cast<double>(m * m);
      converged = off <= threshold;
    }
  }
  if (!converged) {
    // The tracker only gates *when* exact scans run; never let its drift
    // estimate turn a converged matrix into a failure. One last exact
    // scan decides, exactly as the historical per-sweep rescan would.
    converged = UpperOffDiagonalSquaredSum(a, m) <= threshold;
  }
  if (!converged) {
    return Status::NumericalError("SymmetricEigen: Jacobi did not converge");
  }

  // Extract eigenvalues and sort eigenpairs descending.
  Vector eigenvalues(m);
  for (size_t i = 0; i < m; ++i) eigenvalues[i] = a[i * m + i];

  std::vector<size_t> order(m);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t lhs, size_t rhs) {
    return eigenvalues[lhs] > eigenvalues[rhs];
  });

  EigenDecomposition out;
  out.eigenvalues.resize(m);
  out.eigenvectors = Matrix(m, m);
  for (size_t k = 0; k < m; ++k) {
    out.eigenvalues[k] = eigenvalues[order[k]];
    const double* qrow = qt + order[k] * m;
    for (size_t i = 0; i < m; ++i) {
      out.eigenvectors(i, k) = qrow[i];
    }
  }
  return out;
}

Matrix ComposeFromEigen(const Vector& eigenvalues, const Matrix& eigenvectors) {
  RR_CHECK_EQ(eigenvalues.size(), eigenvectors.cols());
  const size_t m = eigenvectors.rows();
  const size_t k = eigenvectors.cols();
  // Q Λ Qᵀ computed as (Q Λ) Qᵀ without materializing Λ (or Qᵀ: the
  // second factor goes through the ABt kernel).
  Matrix scaled = eigenvectors;
  for (size_t i = 0; i < m; ++i) {
    double* row = scaled.row_data(i);
    for (size_t j = 0; j < k; ++j) {
      row[j] *= eigenvalues[j];
    }
  }
  return kernels::MatMulTransposed(scaled, eigenvectors);
}

}  // namespace linalg
}  // namespace randrecon
