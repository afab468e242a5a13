// StreamingMoments: out-of-core mean and sample-covariance accumulation
// over record chunks of ANY size, in O(T·(kGramChunkRows·m + m²)) memory
// for T worker threads.
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
//       the caller chunks its input — takes each block's partial through
//       kernels::GramAtAChunk, and folds the partials in block order:
//       exactly the accumulation structure kernels::GramAtA pins for the
//       in-memory path.
//
// Block-parallel scatter: the accumulator keeps T = EffectiveThreadCount
// staging blocks (fewer when n is small). Records reach a Gram block in
// one of two ways, and both give the same bits:
//   * AccumulateScatterColumns copies each span, centered, into the
//     staging blocks (kernels::ColumnsToRows split across row tiles);
//     when all T are full, one ParallelForEach computes their T partials,
//     and FinalizeCovariance flushes the last, partly filled group.
//   * AccumulateScatterBlocks takes several caller-owned blocks at once.
//     Every Gram block they cover whole is one task that centers its rows
//     into a free staging block and reduces it there, so a block's rows
//     are written and read by one core. Tasks run in waves of 4·T, claimed
//     by whichever thread is free; records left over on either side go
//     through the staging path.
// A block's partial depends only on its rows and m (contract 1), and the
// partials fold in block order on the calling thread, so T and the
// entry point change the speed and never the bits.
//
// Records arrive as column blocks: `columns[j]` points at `num_rows`
// contiguous values of attribute j (a mapped store block served zero-copy,
// or a row-major chunk transposed once by pipeline::TransposingBlockStream).
// Usage is two-phase because exact centering needs the means first (the
// one-pass raw-moment formula Σxxᵀ/n − µµᵀ is neither bitwise compatible
// nor numerically safe for data with large means):
//
//   StreamingMoments moments(m, parallel);  // T from `parallel`.
//   for (block : stream) moments.AccumulateMeansColumns(block, rows);
//   moments.FinalizeMeans();                // Fixes n, hence the group size.
//   for (block : re-streamed) moments.AccumulateScatterColumns(block, rows);
//   //   or, when blocks stay valid together, about scatter_group_rows()
//   //   records at a time: moments.AccumulateScatterBlocks(group, count);
//   linalg::Matrix cov = moments.FinalizeCovariance();  // Last group.

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
/// One caller-owned column block: `columns[j]` points at `rows`
/// contiguous values of attribute j.
struct ColumnBlock {
  const double* const* columns = nullptr;
  size_t rows = 0;
};

class StreamingMoments {
 public:
  /// `options` sets T, the staging blocks whose Gram partials run in
  /// parallel; results are bitwise identical for any setting.
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
  /// Centered rows are staged into fixed kGramChunkRows blocks (the span
  /// split across row tiles, one kernels::ColumnsToRows each) whose
  /// boundaries sit at the same global record indices whatever the block
  /// sizes; each full group of staging blocks is flushed block-parallel.
  void AccumulateScatterColumns(const double* const* columns, size_t num_rows);

  /// Phase 2, several blocks at once: `blocks[0..count)` are the next
  /// records in order, and every slice must stay valid for the call. Each
  /// whole kGramChunkRows block they cover is centered and reduced by one
  /// task; the rest is staged as AccumulateScatterColumns does. Bitwise
  /// identical to feeding the blocks one by one.
  void AccumulateScatterBlocks(const ColumnBlock* blocks, size_t count);

  /// Records per AccumulateScatterBlocks call that fill one wave of Gram
  /// tasks (4·T·kGramChunkRows). Valid after FinalizeMeans().
  size_t scatter_group_rows() const;

  /// Ends phase 2 — flushing the last, partly filled group — and returns
  /// the m x m sample covariance (ddof = 0: divide by n; ddof = 1: divide
  /// by n−1). Requires the phase-2 record count to equal the phase-1
  /// count, and n > ddof.
  linalg::Matrix FinalizeCovariance(int ddof = 0);

  /// Records accumulated in phase 1 so far.
  size_t num_records() const { return mean_count_; }

  size_t num_attributes() const { return num_attributes_; }

 private:
  /// Records `[first_row, first_row + num_rows)` of `columns` taken from
  /// one caller block.
  struct Piece {
    size_t block;
    size_t first_row;
    size_t rows;
  };

  /// Allocates the staging blocks, the partials and scatter_ on first use.
  void EnsureScatterBuffers();

  /// Centers `num_rows` records of `columns`, from `first_row` on, into
  /// the staging blocks, flushing each group that fills.
  void StageRows(const double* const* columns, size_t first_row,
                 size_t num_rows);

  /// Computes the Gram partial of every staged block (block-parallel)
  /// and folds them into scatter_ in block order.
  void FlushStagingGroup();

  /// One task per whole Gram block: task t centers its pieces
  /// `[task_pieces[t], task_pieces[t + 1])` into a free staging block and
  /// reduces it; the partials then fold in task order. Needs the staging
  /// blocks empty.
  void RunGramTasks(const ColumnBlock* blocks, const std::vector<Piece>& pieces,
                    const std::vector<size_t>& task_pieces);

  /// Adds partials_[0..blocks) into scatter_'s upper triangle, in order.
  void FoldPartials(size_t blocks);

  enum class Phase { kMeans, kScatter, kDone };

  size_t num_attributes_;
  ParallelOptions options_;
  Phase phase_ = Phase::kMeans;
  size_t mean_count_ = 0;
  size_t scatter_count_ = 0;
  linalg::Vector sums_;
  linalg::Vector means_;
  size_t group_blocks_ = 0;       ///< T: staging blocks per flush.
  std::vector<double> staging_;  ///< T·kGramChunkRows x m centered rows.
  size_t staging_rows_ = 0;      ///< Rows staged in the current group.
  std::vector<double> partials_;  ///< 4·T x (m x m) per-block Gram partials.
  std::vector<double> scatter_;   ///< m x m upper-triangle accumulation.
};

}  // namespace stats
}  // namespace randrecon

#endif  // RANDRECON_STATS_STREAMING_MOMENTS_H_
