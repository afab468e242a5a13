#include "stats/density_reconstruction.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace randrecon {
namespace stats {
namespace {

/// The iteration stops once the L1 change between rounds drops below this.
constexpr double kConvergenceThreshold = 1e-4;

}  // namespace

double GridDensity::ValueAt(double x) const {
  if (points.empty()) return 0.0;
  if (x < points.front() || x > points.back()) return 0.0;
  const double offset = (x - points.front()) / step;
  const size_t lo = std::min(static_cast<size_t>(offset), points.size() - 1);
  if (lo + 1 >= points.size()) return density.back();
  const double frac = offset - static_cast<double>(lo);
  return density[lo] * (1.0 - frac) + density[lo + 1] * frac;
}

double GridDensity::Mean() const {
  double sum = 0.0;
  for (size_t k = 0; k < points.size(); ++k) sum += points[k] * density[k];
  return sum * step;
}

double GridDensity::Variance() const {
  const double mu = Mean();
  double sum = 0.0;
  for (size_t k = 0; k < points.size(); ++k) {
    sum += (points[k] - mu) * (points[k] - mu) * density[k];
  }
  return sum * step;
}

Result<GridDensity> ReconstructDensity(
    const linalg::Vector& disguised_samples, const ScalarDistribution& noise,
    const DensityReconstructionOptions& options) {
  const size_t n = disguised_samples.size();
  if (n == 0) {
    return Status::InvalidArgument("ReconstructDensity: empty sample");
  }
  if (options.grid_size < 2) {
    return Status::InvalidArgument("ReconstructDensity: grid_size < 2");
  }

  const auto [min_it, max_it] =
      std::minmax_element(disguised_samples.begin(), disguised_samples.end());
  const double pad = std::sqrt(noise.Variance());
  double lo = *min_it - pad;
  double hi = *max_it + pad;
  if (hi - lo <= 0.0) {
    // Degenerate constant sample: widen artificially around the value.
    lo -= 1.0;
    hi += 1.0;
  }

  const size_t grid = options.grid_size;
  GridDensity out;
  out.step = (hi - lo) / static_cast<double>(grid - 1);
  out.points.resize(grid);
  for (size_t k = 0; k < grid; ++k) {
    out.points[k] = lo + out.step * static_cast<double>(k);
  }

  // Precompute the noise kernel fR(y_i - a_k) for every (sample, grid)
  // pair; the iteration reuses it every round.
  linalg::Matrix kernel(n, grid);
  for (size_t i = 0; i < n; ++i) {
    double* row = kernel.row_data(i);
    for (size_t k = 0; k < grid; ++k) {
      row[k] = noise.Pdf(disguised_samples[i] - out.points[k]);
    }
  }

  // Uniform starting density.
  linalg::Vector f(grid, 1.0 / (hi - lo));
  linalg::Vector next(grid, 0.0);

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    std::fill(next.begin(), next.end(), 0.0);
    for (size_t i = 0; i < n; ++i) {
      const double* row = kernel.row_data(i);
      double denom = 0.0;
      for (size_t k = 0; k < grid; ++k) denom += row[k] * f[k];
      denom *= out.step;
      if (denom <= 0.0) continue;  // Sample far outside the grid support.
      const double inv = 1.0 / denom;
      for (size_t k = 0; k < grid; ++k) {
        next[k] += row[k] * f[k] * inv;
      }
    }
    double mass = 0.0;
    for (size_t k = 0; k < grid; ++k) mass += next[k];
    mass *= out.step;
    if (mass <= 0.0) {
      return Status::NumericalError(
          "ReconstructDensity: density collapsed to zero mass");
    }
    double l1_change = 0.0;
    for (size_t k = 0; k < grid; ++k) {
      next[k] /= mass;
      l1_change += std::fabs(next[k] - f[k]) * out.step;
    }
    f.swap(next);
    if (l1_change < kConvergenceThreshold) break;
  }

  out.density = std::move(f);
  return out;
}

}  // namespace stats
}  // namespace randrecon
