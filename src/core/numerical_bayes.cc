#include "core/numerical_bayes.h"

#include <algorithm>
#include <cmath>

#include "linalg/cholesky.h"
#include "linalg/vector_ops.h"

namespace randrecon {
namespace core {
namespace {

constexpr double kLog2Pi = 1.8378770664093453;  // log(2π).

// Gradient-ascent controls (see NumericalBayesReconstructor::Reconstruct).
constexpr int kMaxIterations = 200;
constexpr double kInitialStep = 1.0;
constexpr double kGradientTolerance = 1e-8;
constexpr int kMaxBacktracks = 40;

}  // namespace

Result<GaussianMixturePrior> GaussianMixturePrior::Create(
    std::vector<GaussianComponent> components) {
  if (components.empty()) {
    return Status::InvalidArgument("GaussianMixturePrior: no components");
  }
  const size_t m = components.front().mean.size();
  if (m == 0) {
    return Status::InvalidArgument("GaussianMixturePrior: empty mean");
  }
  double total_weight = 0.0;
  for (const GaussianComponent& c : components) {
    if (c.mean.size() != m || c.covariance.rows() != m ||
        c.covariance.cols() != m) {
      return Status::InvalidArgument(
          "GaussianMixturePrior: inconsistent component dimensions");
    }
    if (c.weight <= 0.0) {
      return Status::InvalidArgument(
          "GaussianMixturePrior: weights must be positive");
    }
    total_weight += c.weight;
  }

  GaussianMixturePrior prior;
  for (GaussianComponent& c : components) {
    c.weight /= total_weight;
    RR_ASSIGN_OR_RETURN(linalg::CholeskyFactorization chol,
                        linalg::CholeskyFactorization::ComputeWithJitter(
                            c.covariance));
    prior.precisions_.push_back(chol.Inverse());
    prior.log_norm_constants_.push_back(
        std::log(c.weight) - 0.5 * (static_cast<double>(m) * kLog2Pi +
                                    chol.LogDeterminant()));
    prior.components_.push_back(std::move(c));
  }
  return prior;
}

size_t GaussianMixturePrior::dimension() const {
  return components_.front().mean.size();
}

double GaussianMixturePrior::LogDensity(const linalg::Vector& x) const {
  RR_CHECK_EQ(x.size(), dimension());
  double max_term = -1e300;
  std::vector<double> terms(components_.size());
  for (size_t k = 0; k < components_.size(); ++k) {
    const linalg::Vector delta =
        linalg::Subtract(x, components_[k].mean);
    const linalg::Vector pd = precisions_[k] * delta;
    terms[k] = log_norm_constants_[k] - 0.5 * linalg::Dot(delta, pd);
    max_term = std::max(max_term, terms[k]);
  }
  double sum = 0.0;
  for (double term : terms) sum += std::exp(term - max_term);
  return max_term + std::log(sum);
}

linalg::Vector GaussianMixturePrior::LogDensityGradient(
    const linalg::Vector& x) const {
  RR_CHECK_EQ(x.size(), dimension());
  // Responsibilities via log-sum-exp, then the weighted pullback.
  std::vector<double> terms(components_.size());
  std::vector<linalg::Vector> pulls(components_.size());
  double max_term = -1e300;
  for (size_t k = 0; k < components_.size(); ++k) {
    const linalg::Vector delta =
        linalg::Subtract(components_[k].mean, x);  // µ_k − x.
    pulls[k] = precisions_[k] * delta;             // Σ_k⁻¹(µ_k − x).
    // Exponent of N(x; µ, Σ) is −½(x−µ)ᵀΣ⁻¹(x−µ) = −½ deltaᵀ pulls.
    terms[k] = log_norm_constants_[k] - 0.5 * linalg::Dot(delta, pulls[k]);
    max_term = std::max(max_term, terms[k]);
  }
  double denom = 0.0;
  for (double term : terms) denom += std::exp(term - max_term);
  linalg::Vector gradient(x.size(), 0.0);
  for (size_t k = 0; k < components_.size(); ++k) {
    const double responsibility = std::exp(terms[k] - max_term) / denom;
    linalg::AddScaled(&gradient, responsibility, pulls[k]);
  }
  return gradient;
}

Result<linalg::Matrix> NumericalBayesReconstructor::Reconstruct(
    const linalg::Matrix& disguised, const perturb::NoiseModel& noise) const {
  RR_RETURN_NOT_OK(ValidateShapes(disguised, noise));
  if (prior_.dimension() != disguised.cols()) {
    return Status::InvalidArgument(
        "NB-DR: prior dimension != data attribute count");
  }

  // Noise precision (Σr⁻¹) for the likelihood term.
  RR_ASSIGN_OR_RETURN(
      linalg::CholeskyFactorization noise_chol,
      linalg::CholeskyFactorization::ComputeWithJitter(noise.covariance()));
  const linalg::Matrix noise_precision = noise_chol.Inverse();

  const size_t n = disguised.rows();
  const size_t m = disguised.cols();
  linalg::Matrix reconstructed(n, m);

  for (size_t i = 0; i < n; ++i) {
    const linalg::Vector y = disguised.Row(i);

    auto objective = [&](const linalg::Vector& x) {
      const linalg::Vector residual = linalg::Subtract(y, x);
      const linalg::Vector pr = noise_precision * residual;
      return prior_.LogDensity(x) - 0.5 * linalg::Dot(residual, pr);
    };
    auto gradient = [&](const linalg::Vector& x) {
      // ∇ log prior + Σr⁻¹ (y − x).
      linalg::Vector g = prior_.LogDensityGradient(x);
      const linalg::Vector residual = linalg::Subtract(y, x);
      linalg::AddScaled(&g, 1.0, noise_precision * residual);
      return g;
    };

    // Ascend from the observation.
    linalg::Vector x = y;
    double value = objective(x);
    for (int iter = 0; iter < kMaxIterations; ++iter) {
      const linalg::Vector g = gradient(x);
      if (linalg::MaxAbs(g) < kGradientTolerance) break;
      double step = kInitialStep;
      bool advanced = false;
      const double sufficient = 1e-4 * linalg::Dot(g, g);
      for (int bt = 0; bt < kMaxBacktracks; ++bt, step *= 0.5) {
        linalg::Vector candidate = x;
        linalg::AddScaled(&candidate, step, g);
        const double candidate_value = objective(candidate);
        if (candidate_value >= value + step * sufficient) {
          x = std::move(candidate);
          value = candidate_value;
          advanced = true;
          break;
        }
      }
      if (!advanced) break;  // Line search exhausted: at (numerical) optimum.
    }
    reconstructed.SetRow(i, x);
  }
  return reconstructed;
}

}  // namespace core
}  // namespace randrecon
