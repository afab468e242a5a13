// Multivariate normal sampling: the C++ replacement for Matlab's `mvnrnd`
// used throughout §7.1. Draws x = µ + A z with A Aᵀ = Σ and z ~ N(0, I).
//
// The factor A is the Cholesky factor when Σ is positive definite, and an
// eigendecomposition square root (Q √Λ) otherwise — the experiment spectra
// intentionally contain near-zero eigenvalues, which plain Cholesky
// rejects.

#ifndef RANDRECON_STATS_MVN_H_
#define RANDRECON_STATS_MVN_H_

#include <functional>

#include "common/parallel.h"
#include "common/result.h"
#include "linalg/matrix.h"
#include "stats/philox.h"

namespace randrecon {
namespace stats {

/// Rows per generation block of the counter-based record streams
/// (MultivariateNormalSampler::SampleRecordsAt and the perturb batch
/// noise). Block b of a stream always covers records
/// [b * kBatchBlockRows, (b+1) * kBatchBlockRows) and is generated from
/// Substream(b) as one unit, so any chunk/thread partition of the record
/// range reproduces identical bytes.
constexpr size_t kBatchBlockRows = 256;

/// THE definition of the batch-stream partition: invokes
/// body(block_index, record_lo, record_hi) — absolute record indices —
/// for every kBatchBlockRows-aligned generation block intersecting
/// [record_begin, record_begin + rows), in parallel (ParallelForEach;
/// bodies must write disjoint data). Every batch generator (MVN records,
/// scheme noise) partitions through this one helper so their
/// partition-invariance arithmetic cannot drift apart.
void ForEachBatchBlock(
    uint64_t record_begin, size_t rows, const ParallelOptions& options,
    const std::function<void(uint64_t, uint64_t, uint64_t)>& body);

/// Draws i.i.d. records from N(mean, covariance).
class MultivariateNormalSampler {
 public:
  /// Builds a sampler. Fails with InvalidArgument for a non-square /
  /// non-symmetric covariance or a mean of the wrong length, and
  /// NumericalError if the covariance has eigenvalues < -tolerance.
  static Result<MultivariateNormalSampler> Create(
      const linalg::Vector& mean, const linalg::Matrix& covariance);

  /// Convenience: zero-mean sampler.
  static Result<MultivariateNormalSampler> CreateZeroMean(
      const linalg::Matrix& covariance);

  /// One record of length m.
  linalg::Vector SampleRecord(Philox* rng) const;

  /// n records as an n x m matrix: Z comes from one gen->FillGaussian
  /// (n*m Gaussian elements from the cursor, in the record order
  /// SampleRecord draws them), then the factor is applied as ONE Z·Aᵀ
  /// product through the blocked kernels.
  linalg::Matrix SampleMatrix(size_t n, Philox* gen) const;

  /// Deterministic random access into the record stream derived from
  /// `base`: fills rows [out_row, out_row + rows) of `out` with records
  /// [record_begin, record_begin + rows). Record i is a pure function of
  /// (base, i): generation happens in kBatchBlockRows blocks (block b
  /// from base.Substream(b), straddled edge blocks regenerated in full
  /// and sliced), so every chunk size and thread count yields bitwise
  /// identical records. Blocks are generated in parallel via
  /// ParallelForEach under `options`.
  void SampleRecordsAt(const Philox& base, uint64_t record_begin, size_t rows,
                       linalg::Matrix* out, size_t out_row = 0,
                       const ParallelOptions& options = {}) const;

  /// One full generation block: rows [row_begin, row_end) of block
  /// `block_index` of the `base` stream, written to `out` (must span
  /// row_end - row_begin rows of width m). The block's Z and Z·Aᵀ are
  /// always computed for all kBatchBlockRows rows regardless of the
  /// requested slice — that is what makes SampleRecordsAt partition-
  /// invariant.
  void SampleBlockSlice(const Philox& base, uint64_t block_index,
                        size_t row_begin, size_t row_end, double* out) const;

  size_t dimension() const { return mean_.size(); }
  const linalg::Vector& mean() const { return mean_; }

 private:
  MultivariateNormalSampler(linalg::Vector mean, linalg::Matrix factor)
      : mean_(std::move(mean)), factor_(std::move(factor)) {}

  linalg::Vector mean_;
  linalg::Matrix factor_;  // A with A Aᵀ = Σ.
};

}  // namespace stats
}  // namespace randrecon

#endif  // RANDRECON_STATS_MVN_H_
