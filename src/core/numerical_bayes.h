// Numerical Bayes estimation for non-Gaussian priors (§6's closing
// remark, §9 future work):
//
//   "for other distributions, we might not be able to derive an equation
//    with a simple analytic form ... In such situations, the Bayes
//    estimate must be sought using numerical methods, such as Gradient
//    descent methods. We will study them in our future work."
//
// This module implements that study for the most useful non-Gaussian
// family: a finite mixture of multivariate normals (clustered data —
// e.g. two patient sub-populations). For each disguised record y it
// maximizes the log posterior
//
//   log Σ_k w_k N(x; µ_k, Σ_k)  +  log N(y − x; 0, Σr)
//
// by gradient ascent with backtracking line search. With a single
// component the optimum has the closed form of Eq. 11 / Theorem 8.1, and
// the tests verify the optimizer lands on it; with several components it
// strictly outperforms plain BE-DR on clustered data, because BE-DR's
// single-Gaussian prior smears the clusters together.

#ifndef RANDRECON_CORE_NUMERICAL_BAYES_H_
#define RANDRECON_CORE_NUMERICAL_BAYES_H_

#include <vector>

#include "core/reconstructor.h"
#include "linalg/matrix.h"

namespace randrecon {
namespace core {

/// One component of the multivariate Gaussian-mixture prior.
struct GaussianComponent {
  double weight = 1.0;          ///< Positive; normalized on construction.
  linalg::Vector mean;          ///< Length m.
  linalg::Matrix covariance;    ///< m x m, positive definite.
};

/// The prior over original records.
class GaussianMixturePrior {
 public:
  /// Validates and normalizes the components. Fails with InvalidArgument
  /// on empty input, inconsistent dimensions, non-positive weights, and
  /// NumericalError if a component covariance cannot be factorized.
  static Result<GaussianMixturePrior> Create(
      std::vector<GaussianComponent> components);

  size_t dimension() const;
  size_t num_components() const { return components_.size(); }
  const GaussianComponent& component(size_t k) const { return components_[k]; }

  /// log Σ_k w_k N(x; µ_k, Σ_k), computed stably (log-sum-exp).
  double LogDensity(const linalg::Vector& x) const;

  /// ∇x log density: Σ_k r_k(x) Σ_k⁻¹ (µ_k − x) with responsibilities
  /// r_k ∝ w_k N(x; µ_k, Σ_k).
  linalg::Vector LogDensityGradient(const linalg::Vector& x) const;

 private:
  GaussianMixturePrior() = default;

  std::vector<GaussianComponent> components_;
  std::vector<linalg::Matrix> precisions_;      // Σ_k⁻¹.
  std::vector<double> log_norm_constants_;      // log w_k − ½log|2πΣ_k|.
};

/// §6's numerical MAP reconstructor for mixture priors.
class NumericalBayesReconstructor final : public Reconstructor {
 public:
  explicit NumericalBayesReconstructor(GaussianMixturePrior prior)
      : prior_(std::move(prior)) {}

  std::string name() const override { return "NB-DR"; }

  /// MAP estimate per record by gradient ascent, started from the
  /// observation y (a global-basin heuristic that is exact for one
  /// component and works well when noise is smaller than cluster
  /// separation). Each ascent step starts at step size 1 and halves it
  /// (at most 40 times) until the Armijo condition holds; a record stops
  /// after 200 steps, once the gradient's max-abs entry is below 1e-8,
  /// or when no halving makes progress.
  Result<linalg::Matrix> Reconstruct(
      const linalg::Matrix& disguised,
      const perturb::NoiseModel& noise) const override;

  const GaussianMixturePrior& prior() const { return prior_; }

 private:
  GaussianMixturePrior prior_;
};

}  // namespace core
}  // namespace randrecon

#endif  // RANDRECON_CORE_NUMERICAL_BAYES_H_
