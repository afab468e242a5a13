#include "perturb/randomized_response.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"

namespace randrecon {
namespace perturb {
namespace {

Status ValidateTheta(double theta, const char* who) {
  if (theta <= 0.0 || theta >= 1.0) {
    return Status::InvalidArgument(std::string(who) +
                                   ": probability must be in (0, 1)");
  }
  if (std::fabs(theta - 0.5) < 1e-9) {
    return Status::InvalidArgument(
        std::string(who) +
        ": probability 0.5 destroys all information (channel not invertible)");
  }
  return Status::OK();
}

}  // namespace

Result<WarnerScheme> WarnerScheme::Create(double truth_probability) {
  RR_RETURN_NOT_OK(ValidateTheta(truth_probability, "WarnerScheme"));
  return WarnerScheme(truth_probability);
}

uint8_t WarnerScheme::Disguise(uint8_t true_bit, stats::Philox* rng) const {
  RR_CHECK(true_bit == 0 || true_bit == 1) << "bit must be 0/1";
  const bool tell_truth = rng->Uniform(0.0, 1.0) < theta_;
  return tell_truth ? true_bit : static_cast<uint8_t>(1 - true_bit);
}

BitVector WarnerScheme::DisguiseAll(const BitVector& true_bits,
                                    stats::Philox* gen) const {
  BitVector coins(true_bits.size());
  if (!true_bits.empty()) {
    gen->FillBernoulli(theta_, coins.data(), coins.size());
  }
  BitVector out(true_bits.size());
  for (size_t i = 0; i < true_bits.size(); ++i) {
    RR_CHECK(true_bits[i] == 0 || true_bits[i] == 1) << "bit must be 0/1";
    out[i] = coins[i] ? true_bits[i] : static_cast<uint8_t>(1 - true_bits[i]);
  }
  return out;
}

Result<double> WarnerScheme::EstimateProportion(
    const BitVector& disguised) const {
  if (disguised.empty()) {
    return Status::InvalidArgument("WarnerScheme: empty sample");
  }
  double ones = 0.0;
  for (uint8_t bit : disguised) ones += bit;
  const double observed = ones / static_cast<double>(disguised.size());
  // P(report 1) = θπ + (1−θ)(1−π)  =>  π = (p_obs + θ − 1)/(2θ − 1).
  const double pi = (observed + theta_ - 1.0) / (2.0 * theta_ - 1.0);
  return std::clamp(pi, 0.0, 1.0);
}

double WarnerScheme::EstimatorVariance(double pi, size_t n) const {
  RR_CHECK_GT(n, 0u);
  // Warner (1965): Var(π̂) = π(1−π)/n + θ(1−θ)/(n(2θ−1)²).
  const double d = 2.0 * theta_ - 1.0;
  return pi * (1.0 - pi) / static_cast<double>(n) +
         theta_ * (1.0 - theta_) / (static_cast<double>(n) * d * d);
}

double WarnerScheme::PosteriorGivenReportedOne(double pi) const {
  RR_CHECK(pi >= 0.0 && pi <= 1.0);
  // Bayes on the binary channel: P(x=1 | y=1).
  const double p_report_one = theta_ * pi + (1.0 - theta_) * (1.0 - pi);
  if (p_report_one <= 0.0) return 0.0;
  return theta_ * pi / p_report_one;
}

Result<MaskScheme> MaskScheme::Create(double keep_probability) {
  RR_RETURN_NOT_OK(ValidateTheta(keep_probability, "MaskScheme"));
  return MaskScheme(keep_probability);
}

Result<linalg::Matrix> MaskScheme::Disguise(const linalg::Matrix& transactions,
                                            stats::Philox* gen) const {
  const size_t total = transactions.rows() * transactions.cols();
  const double* in = transactions.data();
  // Validate before drawing so a rejected matrix leaves the generator
  // cursor untouched.
  for (size_t i = 0; i < total; ++i) {
    if (in[i] != 0.0 && in[i] != 1.0) {
      return Status::InvalidArgument(
          "MaskScheme: transactions must be 0/1, got " +
          std::to_string(in[i]));
    }
  }
  std::vector<uint8_t> keep(total);
  if (total > 0) gen->FillBernoulli(theta_, keep.data(), total);
  linalg::Matrix out(transactions.rows(), transactions.cols());
  double* o = out.data();
  for (size_t i = 0; i < total; ++i) {
    o[i] = keep[i] ? in[i] : 1.0 - in[i];
  }
  return out;
}

Result<double> MaskScheme::EstimateItemSupport(const linalg::Matrix& disguised,
                                               size_t item) const {
  if (item >= disguised.cols()) {
    return Status::InvalidArgument("MaskScheme: item index out of range");
  }
  if (disguised.rows() == 0) {
    return Status::InvalidArgument("MaskScheme: empty data");
  }
  double ones = 0.0;
  for (size_t i = 0; i < disguised.rows(); ++i) ones += disguised(i, item);
  const double observed = ones / static_cast<double>(disguised.rows());
  const double support =
      (observed + theta_ - 1.0) / (2.0 * theta_ - 1.0);
  return std::clamp(support, 0.0, 1.0);
}

Result<double> MaskScheme::EstimatePairSupport(const linalg::Matrix& disguised,
                                               size_t item_a,
                                               size_t item_b) const {
  if (item_a >= disguised.cols() || item_b >= disguised.cols() ||
      item_a == item_b) {
    return Status::InvalidArgument("MaskScheme: bad item pair");
  }
  const size_t n = disguised.rows();
  if (n == 0) {
    return Status::InvalidArgument("MaskScheme: empty data");
  }
  // Observed joint distribution over (bit_a, bit_b) ∈ {11, 10, 01, 00}.
  double counts[4] = {0, 0, 0, 0};
  for (size_t i = 0; i < n; ++i) {
    const int a = disguised(i, item_a) > 0.5 ? 1 : 0;
    const int b = disguised(i, item_b) > 0.5 ? 1 : 0;
    counts[(1 - a) * 2 + (1 - b)] += 1.0;  // Index 0 = (1,1) ... 3 = (0,0).
  }
  double observed[4];
  for (int c = 0; c < 4; ++c) {
    observed[c] = counts[c] / static_cast<double>(n);
  }

  // Channel: each bit independently kept w.p. θ. The per-bit channel
  // matrix is M1 = [[θ, 1−θ], [1−θ, θ]] (rows: reported, cols: true).
  // The joint channel is the Kronecker product; we only need the (1,1)
  // row of its inverse. M1⁻¹ = 1/(2θ−1) · [[θ', −(1−θ')] ...] with a
  // cleaner route: invert the 2x2 per bit and combine.
  const double d = 2.0 * theta_ - 1.0;
  const double inv11 = theta_ / d;         // M1⁻¹[1,1]-ish coefficients:
  const double inv10 = -(1.0 - theta_) / d;  // M1⁻¹ = (1/d)[[θ, −(1−θ)],
                                             //            [−(1−θ), θ]].
  // True P(1,1) = Σ over reported cells of inv(a_true=1, a_rep) ·
  // inv(b_true=1, b_rep) · observed(rep).
  const double coeff_a[2] = {inv11, inv10};  // reported 1, reported 0.
  const double coeff_b[2] = {inv11, inv10};
  double support = 0.0;
  const int reported_a[4] = {1, 1, 0, 0};
  const int reported_b[4] = {1, 0, 1, 0};
  for (int c = 0; c < 4; ++c) {
    support += coeff_a[1 - reported_a[c]] * coeff_b[1 - reported_b[c]] *
               observed[c];
  }
  return std::clamp(support, 0.0, 1.0);
}

}  // namespace perturb
}  // namespace randrecon
