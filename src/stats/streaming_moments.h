// StreamingMoments: out-of-core mean and sample-covariance accumulation
// over record chunks of ANY size, in O(kGramChunkRows·m + m²) memory.
//
// The covariance-driven attacks (PCA-DR, SF) need exactly two things from
// the n x m record matrix: the column means and the centered scatter
// Σᵢ (xᵢ−µ)(xᵢ−µ)ᵀ. Both are streamable, so the attacker never has to
// hold n x m — the basis of the src/pipeline subsystem.
//
// Determinism contract (tested in streaming_moments_test):
//   FinalizeCovariance() is BITWISE identical to
//   stats::SampleCovariance(data) for any sequence of chunk sizes and any
//   thread count. This works because
//     * mean accumulation is strictly record-ordered (the same order
//       ColumnMeans uses), so chunk boundaries never change it;
//     * scatter accumulation stages centered rows into fixed blocks of
//       kernels::kGramChunkRows records — block boundaries fall at global
//       record indices that are multiples of the constant, no matter how
//       the caller chunks its input — and flushes each block through
//       kernels::GramAtAChunk, folding partials in block order: exactly
//       the accumulation structure kernels::GramAtA pins for the
//       in-memory path.
//
// Records arrive as column blocks: `columns[j]` points at `num_rows`
// contiguous values of attribute j (a mapped store block served zero-copy,
// or a row-major chunk transposed once by pipeline::TransposingBlockStream).
// Usage is two-phase because exact centering needs the means first (the
// one-pass raw-moment formula Σxxᵀ/n − µµᵀ is neither bitwise compatible
// nor numerically safe for data with large means):
//
//   StreamingMoments moments(m);
//   for (block : stream) moments.AccumulateMeansColumns(block, rows);
//   moments.FinalizeMeans();
//   for (block : re-streamed) moments.AccumulateScatterColumns(block, rows);
//   linalg::Matrix cov = moments.FinalizeCovariance();

#ifndef RANDRECON_STATS_STREAMING_MOMENTS_H_
#define RANDRECON_STATS_STREAMING_MOMENTS_H_

#include <vector>

#include "common/parallel.h"
#include "linalg/matrix.h"

namespace randrecon {
namespace stats {

/// Two-phase streaming estimator of column means and sample covariance.
/// Phase misuse (accumulating scatter before FinalizeMeans, mismatched
/// record counts between phases) is a programmer error and aborts via
/// RR_CHECK, mirroring the preconditions of stats::SampleCovariance.
class StreamingMoments {
 public:
  /// `options` parallelizes the per-block Gram kernel; results are
  /// bitwise identical for any setting.
  explicit StreamingMoments(size_t num_attributes,
                            const ParallelOptions& options = {});

  /// Phase 1: feeds `num_rows` records as column slices — `columns[j]`
  /// points at `num_rows` contiguous values of attribute j. sums_[j] folds
  /// only column j's values, in record order, so any split of the stream
  /// into blocks gives the same bits.
  void AccumulateMeansColumns(const double* const* columns, size_t num_rows);

  /// Ends phase 1 (requires at least one record) and fixes the means.
  void FinalizeMeans();

  /// Column means µ̂. Valid after FinalizeMeans().
  const linalg::Vector& means() const;

  /// Phase 2: feeds the SAME record stream again, in the same order.
  /// Centered rows are staged into fixed kGramChunkRows blocks (one tiled
  /// kernels::ColumnsToRows per span), flushed at the same global record
  /// indices whatever the block sizes.
  void AccumulateScatterColumns(const double* const* columns, size_t num_rows);

  /// Ends phase 2 and returns the m x m sample covariance (ddof = 0:
  /// divide by n; ddof = 1: divide by n−1). Requires the phase-2 record
  /// count to equal the phase-1 count, and n > ddof.
  linalg::Matrix FinalizeCovariance(int ddof = 0);

  /// Records accumulated in phase 1 so far.
  size_t num_records() const { return mean_count_; }

  size_t num_attributes() const { return num_attributes_; }

 private:
  void FlushStagingBlock();

  enum class Phase { kMeans, kScatter, kDone };

  size_t num_attributes_;
  ParallelOptions options_;
  Phase phase_ = Phase::kMeans;
  size_t mean_count_ = 0;
  size_t scatter_count_ = 0;
  linalg::Vector sums_;
  linalg::Vector means_;
  std::vector<double> staging_;  ///< kGramChunkRows x m centered rows.
  size_t staging_rows_ = 0;
  std::vector<double> partial_;  ///< m x m per-block Gram partial.
  std::vector<double> scatter_;  ///< m x m upper-triangle accumulation.
};

}  // namespace stats
}  // namespace randrecon

#endif  // RANDRECON_STATS_STREAMING_MOMENTS_H_
