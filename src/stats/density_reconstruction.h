// Agrawal–Srikant iterative distribution reconstruction (SIGMOD 2000).
//
// The paper's UDR attack (§4.2) needs the original marginal density fX,
// which "can be estimated from the disguised data [2]". Reference [2] is
// Agrawal & Srikant's Bayes-iterative (EM) algorithm; this file implements
// it on a uniform grid:
//
//   f^{t+1}(a) = (1/n) Σ_i  fR(y_i − a) f^t(a) / Σ_z fR(y_i − z) f^t(z) Δz
//
// iterated to a fixed point from a uniform initial density.

#ifndef RANDRECON_STATS_DENSITY_RECONSTRUCTION_H_
#define RANDRECON_STATS_DENSITY_RECONSTRUCTION_H_

#include <vector>

#include "common/result.h"
#include "linalg/matrix.h"
#include "stats/distribution.h"

namespace randrecon {
namespace stats {

/// A density represented by values on a uniform grid, integrating to 1.
struct GridDensity {
  /// Grid point centers, uniformly spaced.
  linalg::Vector points;
  /// Density values at the grid points (Σ density * step = 1).
  linalg::Vector density;
  /// Grid spacing.
  double step = 0.0;

  /// Linear-interpolated density at x (0 outside the grid).
  double ValueAt(double x) const;

  /// Mean of the density: Σ points[k] density[k] step.
  double Mean() const;

  /// Variance of the density.
  double Variance() const;
};

/// Options for the AS2000 iteration.
struct DensityReconstructionOptions {
  /// Number of grid cells spanning the data range.
  size_t grid_size = 200;
  /// Hard iteration cap. The iteration also stops once the L1 change
  /// between iterations drops below 1e-4.
  int max_iterations = 200;
};

/// Reconstructs the original marginal density fX from disguised samples
/// y_i = x_i + r_i given the public noise distribution fR. The grid spans
/// [min(y) − σr, max(y) + σr], one noise standard deviation of padding,
/// so the support of fX is covered.
/// Fails with InvalidArgument on an empty sample or degenerate grid.
Result<GridDensity> ReconstructDensity(
    const linalg::Vector& disguised_samples,
    const ScalarDistribution& noise,
    const DensityReconstructionOptions& options = {});

}  // namespace stats
}  // namespace randrecon

#endif  // RANDRECON_STATS_DENSITY_RECONSTRUCTION_H_
