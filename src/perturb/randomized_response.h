// Randomized Response — the paper's §2 second randomization family:
// "The randomized response is mainly used to deal with categorical
//  data ... All these approaches are based on the Randomized Response
//  technique proposed by Warner."
//
// Two schemes are provided, plus the aggregate estimators that make the
// disguised data minable (the categorical analogue of the Agrawal-
// Srikant density reconstruction):
//
//  * WarnerScheme — one binary attribute: each respondent reports the
//    truth with probability θ and the opposite with 1 − θ.
//  * MaskScheme — MASK (Rizvi & Haritsa, VLDB'02): every bit of a
//    transaction row is independently kept with probability θ, flipped
//    with 1 − θ; supports of items and itemsets are recovered by
//    inverting the flip channel.
//
// Both publish θ: like additive randomization, the channel is public
// and only the coin flips are secret. The bench ext_randomized_response
// quantifies the same privacy/utility trade-off the paper studies for
// numeric data: aggregates converge while per-record disclosure is
// bounded by the channel's posterior.

#ifndef RANDRECON_PERTURB_RANDOMIZED_RESPONSE_H_
#define RANDRECON_PERTURB_RANDOMIZED_RESPONSE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "linalg/matrix.h"
#include "stats/philox.h"

namespace randrecon {
namespace perturb {

/// A 0/1 data column or transaction matrix entrywise type.
using BitVector = std::vector<uint8_t>;

/// Warner's 1965 single-question randomized response.
class WarnerScheme {
 public:
  /// `truth_probability` θ ∈ (0, 1), θ ≠ 0.5 (θ = 0.5 destroys all
  /// information and makes estimation impossible).
  static Result<WarnerScheme> Create(double truth_probability);

  /// Disguises one respondent's true bit.
  uint8_t Disguise(uint8_t true_bit, stats::Philox* rng) const;

  /// Disguises a whole column: one vectorized Bernoulli(θ) fill decides
  /// every respondent's truth coin (consumes true_bits.size() substrate
  /// draws from gen's cursor). Bit i flips iff coin i is 0.
  BitVector DisguiseAll(const BitVector& true_bits, stats::Philox* gen) const;

  /// Unbiased estimate of the true proportion π from the observed
  /// proportion of 1-answers: π̂ = (p_obs + θ − 1) / (2θ − 1), clamped
  /// to [0, 1]. Fails with InvalidArgument on an empty sample.
  Result<double> EstimateProportion(const BitVector& disguised) const;

  /// Sampling variance of the π̂ estimator at true proportion `pi` and
  /// sample size n (Warner's formula).
  double EstimatorVariance(double pi, size_t n) const;

  /// The adversary's per-record posterior P(true = 1 | reported = 1)
  /// when the population proportion is `pi` — the record-level
  /// disclosure measure.
  double PosteriorGivenReportedOne(double pi) const;

  double truth_probability() const { return theta_; }

 private:
  explicit WarnerScheme(double theta) : theta_(theta) {}
  double theta_;
};

/// MASK-style per-bit randomization of transaction data.
class MaskScheme {
 public:
  /// `keep_probability` θ ∈ (0, 1), θ ≠ 0.5.
  static Result<MaskScheme> Create(double keep_probability);

  /// Disguises an n x m 0/1 transaction matrix entrywise (values are
  /// validated to be 0/1) with one vectorized Bernoulli(θ) keep-mask
  /// fill (consumes rows*cols substrate draws from gen's cursor); entry
  /// (i, j) is kept iff mask[i*m + j] is 1.
  Result<linalg::Matrix> Disguise(const linalg::Matrix& transactions,
                                  stats::Philox* gen) const;

  /// Unbiased single-item support estimate from the disguised column
  /// proportion (same inversion as Warner).
  Result<double> EstimateItemSupport(const linalg::Matrix& disguised,
                                     size_t item) const;

  /// Unbiased 2-itemset support estimate: observes the four joint cell
  /// proportions of (item_a, item_b) and inverts the product channel
  /// (the MASK estimator). Fails if the channel matrix is singular
  /// (θ = 0.5) or indices are out of range.
  Result<double> EstimatePairSupport(const linalg::Matrix& disguised,
                                     size_t item_a, size_t item_b) const;

  double keep_probability() const { return theta_; }

 private:
  explicit MaskScheme(double theta) : theta_(theta) {}
  double theta_;
};

}  // namespace perturb
}  // namespace randrecon

#endif  // RANDRECON_PERTURB_RANDOMIZED_RESPONSE_H_
