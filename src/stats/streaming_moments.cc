#include "stats/streaming_moments.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>

#include "common/check.h"
#include "linalg/kernels.h"

namespace randrecon {
namespace stats {

using linalg::kernels::kGramChunkRows;

namespace {

/// Rows per staging task: a span shorter than two tiles stages inline.
constexpr size_t kStageTileRows = 256;

/// Gram tasks per thread in one AccumulateScatterBlocks wave. With several
/// blocks per thread, a thread that a busy neighbour slows down claims
/// fewer of them instead of holding the rest at the end of the wave.
constexpr size_t kWaveBlocksPerThread = 4;

}  // namespace

StreamingMoments::StreamingMoments(size_t num_attributes,
                                   const ParallelOptions& options)
    : num_attributes_(num_attributes),
      options_(options),
      sums_(num_attributes, 0.0) {
  RR_CHECK_GT(num_attributes, 0u) << "StreamingMoments: zero attributes";
}

void StreamingMoments::AccumulateMeansColumns(const double* const* columns,
                                              size_t num_rows) {
  RR_CHECK(phase_ == Phase::kMeans)
      << "StreamingMoments: AccumulateMeansColumns after FinalizeMeans";
  // sums_[j] folds only column j's values, in record order: the exact
  // summation order of stats::ColumnMeans. Four columns advance together
  // so their independent add chains overlap; each column's order is
  // untouched.
  const size_t m = num_attributes_;
  size_t j = 0;
  for (; j + 4 <= m; j += 4) {
    const double* c0 = columns[j];
    const double* c1 = columns[j + 1];
    const double* c2 = columns[j + 2];
    const double* c3 = columns[j + 3];
    double s0 = sums_[j], s1 = sums_[j + 1], s2 = sums_[j + 2],
           s3 = sums_[j + 3];
    for (size_t i = 0; i < num_rows; ++i) {
      s0 += c0[i];
      s1 += c1[i];
      s2 += c2[i];
      s3 += c3[i];
    }
    sums_[j] = s0;
    sums_[j + 1] = s1;
    sums_[j + 2] = s2;
    sums_[j + 3] = s3;
  }
  for (; j < m; ++j) {
    const double* column = columns[j];
    double sum = sums_[j];
    for (size_t i = 0; i < num_rows; ++i) sum += column[i];
    sums_[j] = sum;
  }
  mean_count_ += num_rows;
}

void StreamingMoments::FinalizeMeans() {
  RR_CHECK(phase_ == Phase::kMeans) << "StreamingMoments: double FinalizeMeans";
  RR_CHECK_GT(mean_count_, 0u) << "StreamingMoments: no records accumulated";
  means_ = sums_;
  for (double& value : means_) value /= static_cast<double>(mean_count_);
  // No more staging blocks than the scatter phase will fill.
  group_blocks_ = EffectiveThreadCount(
      options_, (mean_count_ + kGramChunkRows - 1) / kGramChunkRows);
  phase_ = Phase::kScatter;
}

const linalg::Vector& StreamingMoments::means() const {
  RR_CHECK(phase_ != Phase::kMeans)
      << "StreamingMoments: means() before FinalizeMeans";
  return means_;
}

size_t StreamingMoments::scatter_group_rows() const {
  RR_CHECK(phase_ != Phase::kMeans)
      << "StreamingMoments: scatter_group_rows() before FinalizeMeans";
  return kWaveBlocksPerThread * group_blocks_ * kGramChunkRows;
}

void StreamingMoments::AccumulateScatterColumns(const double* const* columns,
                                                size_t num_rows) {
  RR_CHECK(phase_ == Phase::kScatter)
      << "StreamingMoments: AccumulateScatterColumns outside the scatter phase";
  StageRows(columns, 0, num_rows);
  scatter_count_ += num_rows;
}

void StreamingMoments::AccumulateScatterBlocks(const ColumnBlock* blocks,
                                               size_t count) {
  RR_CHECK(phase_ == Phase::kScatter)
      << "StreamingMoments: AccumulateScatterBlocks outside the scatter phase";
  size_t total = 0;
  for (size_t b = 0; b < count; ++b) total += blocks[b].rows;
  // A cursor over the call's records: block `block`, row `offset`.
  size_t block = 0;
  size_t offset = 0;
  // Takes up to `rows` records at the cursor from one block (skipping
  // exhausted ones) and returns {block, first row, rows taken}.
  auto take = [&](size_t rows) {
    while (offset == blocks[block].rows) {
      ++block;
      offset = 0;
    }
    const Piece piece{block, offset,
                      std::min(rows, blocks[block].rows - offset)};
    offset += piece.rows;
    return piece;
  };
  auto stage = [&](size_t rows) {
    while (rows > 0) {
      const Piece piece = take(rows);
      StageRows(blocks[piece.block].columns, piece.first_row, piece.rows);
      rows -= piece.rows;
    }
  };

  // Head: complete the Gram block the staging path left open.
  const size_t open = staging_rows_ % kGramChunkRows;
  const size_t head = open == 0 ? 0 : std::min(total, kGramChunkRows - open);
  stage(head);
  // Body: every whole Gram block, one task each, in waves.
  const size_t whole = (total - head) / kGramChunkRows;
  if (whole > 0) {
    // Staged blocks precede these in record order: fold them first.
    if (staging_rows_ > 0) FlushStagingGroup();
    EnsureScatterBuffers();
    const size_t wave = kWaveBlocksPerThread * group_blocks_;
    std::vector<Piece> pieces;
    // Task t reduces pieces [task_pieces[t], task_pieces[t + 1]).
    std::vector<size_t> task_pieces;
    for (size_t done = 0; done < whole; done += wave) {
      const size_t tasks = std::min(wave, whole - done);
      pieces.clear();
      task_pieces.assign(1, 0);
      for (size_t t = 0; t < tasks; ++t) {
        for (size_t rows = kGramChunkRows; rows > 0;) {
          pieces.push_back(take(rows));
          rows -= pieces.back().rows;
        }
        task_pieces.push_back(pieces.size());
      }
      RunGramTasks(blocks, pieces, task_pieces);
    }
  }
  // Tail: the records short of one more whole block wait in staging.
  stage(total - head - whole * kGramChunkRows);
  scatter_count_ += total;
}

void StreamingMoments::EnsureScatterBuffers() {
  if (!scatter_.empty()) return;
  const size_t m = num_attributes_;
  staging_.resize(group_blocks_ * kGramChunkRows * m);
  partials_.resize(kWaveBlocksPerThread * group_blocks_ * m * m);
  scatter_.assign(m * m, 0.0);
}

void StreamingMoments::StageRows(const double* const* columns,
                                 size_t first_row, size_t num_rows) {
  if (num_rows == 0) return;
  EnsureScatterBuffers();
  const size_t m = num_attributes_;
  const size_t group_rows = group_blocks_ * kGramChunkRows;
  size_t consumed = 0;
  while (consumed < num_rows) {
    const size_t span =
        std::min(num_rows - consumed, group_rows - staging_rows_);
    // Centered rows x_ij − µ_j: the element-wise op CenterColumns applies.
    // Each tile writes its own rows, so the split never changes a byte.
    double* staged = staging_.data() + staging_rows_ * m;
    const size_t span_first = first_row + consumed;
    ParallelFor(
        0, (span + kStageTileRows - 1) / kStageTileRows,
        [&](size_t tile_begin, size_t tile_end) {
          const size_t first = tile_begin * kStageTileRows;
          const size_t last = std::min(span, tile_end * kStageTileRows);
          linalg::kernels::ColumnsToRows(columns, span_first + first,
                                         last - first, m, means_.data(),
                                         staged + first * m, m);
        },
        options_);
    staging_rows_ += span;
    consumed += span;
    // Groups fill exactly every group_blocks_·kGramChunkRows records, so
    // block boundaries sit at global record indices that are multiples
    // of the constant — invariant to the caller's block sizes.
    if (staging_rows_ == group_rows) FlushStagingGroup();
  }
}

void StreamingMoments::RunGramTasks(const ColumnBlock* blocks,
                                    const std::vector<Piece>& pieces,
                                    const std::vector<size_t>& task_pieces) {
  const size_t m = num_attributes_;
  const size_t tasks = task_pieces.size() - 1;
  // The staging blocks are empty here; each running task borrows one as
  // its row buffer. A pool that holds more workers than T (started by an
  // earlier, wider call) can run more tasks at once than there are
  // buffers, so a task waits for a free one.
  std::mutex mutex;
  std::condition_variable freed;
  std::vector<double*> free_buffers;
  for (size_t slot = group_blocks_; slot-- > 0;) {
    free_buffers.push_back(staging_.data() + slot * kGramChunkRows * m);
  }
  ParallelForEach(
      0, tasks,
      [&](size_t t) {
        double* rows;
        {
          std::unique_lock<std::mutex> lock(mutex);
          freed.wait(lock, [&] { return !free_buffers.empty(); });
          rows = free_buffers.back();
          free_buffers.pop_back();
        }
        size_t filled = 0;
        for (size_t i = task_pieces[t]; i < task_pieces[t + 1]; ++i) {
          const Piece& piece = pieces[i];
          linalg::kernels::ColumnsToRows(blocks[piece.block].columns,
                                         piece.first_row, piece.rows, m,
                                         means_.data(), rows + filled * m, m);
          filled += piece.rows;
        }
        linalg::kernels::GramAtAChunk(rows, kGramChunkRows, m,
                                      partials_.data() + t * m * m, options_);
        {
          std::lock_guard<std::mutex> lock(mutex);
          free_buffers.push_back(rows);
        }
        freed.notify_one();
      },
      options_);
  FoldPartials(tasks);
}

void StreamingMoments::FlushStagingGroup() {
  const size_t m = num_attributes_;
  const size_t blocks = (staging_rows_ + kGramChunkRows - 1) / kGramChunkRows;
  // One task per block. A lone block runs on the caller and keeps the
  // kernel's own output-tile parallelism; several run one per worker,
  // where the kernel's nested parallel calls run inline.
  ParallelForEach(
      0, blocks,
      [&](size_t block) {
        const size_t first = block * kGramChunkRows;
        linalg::kernels::GramAtAChunk(
            staging_.data() + first * m,
            std::min(kGramChunkRows, staging_rows_ - first), m,
            partials_.data() + block * m * m, options_);
      },
      options_);
  FoldPartials(blocks);
  staging_rows_ = 0;
}

void StreamingMoments::FoldPartials(size_t blocks) {
  const size_t m = num_attributes_;
  // Fold the block partials in block order — the same ordered merge
  // kernels::GramAtA performs, so the bits match the in-memory path.
  for (size_t block = 0; block < blocks; ++block) {
    const double* partial = partials_.data() + block * m * m;
    for (size_t p = 0; p < m; ++p) {
      double* scatter_row = scatter_.data() + p * m;
      const double* partial_row = partial + p * m;
      for (size_t q = p; q < m; ++q) scatter_row[q] += partial_row[q];
    }
  }
}

linalg::Matrix StreamingMoments::FinalizeCovariance(int ddof) {
  RR_CHECK(phase_ == Phase::kScatter)
      << "StreamingMoments: FinalizeCovariance outside the scatter phase";
  RR_CHECK(ddof == 0 || ddof == 1) << "ddof must be 0 or 1";
  RR_CHECK_EQ(scatter_count_, mean_count_)
      << "StreamingMoments: scatter pass saw a different record count";
  RR_CHECK_GT(mean_count_, static_cast<size_t>(ddof)) << "not enough records";
  if (staging_rows_ > 0) FlushStagingGroup();
  phase_ = Phase::kDone;

  const size_t m = num_attributes_;
  linalg::Matrix covariance(m, m);
  double* c = covariance.data();
  std::copy(scatter_.begin(), scatter_.end(), c);
  // Mirror, then divide — the order kernels::GramMatrix uses.
  for (size_t p = 0; p < m; ++p) {
    for (size_t q = p + 1; q < m; ++q) c[q * m + p] = c[p * m + q];
  }
  const double denom = static_cast<double>(mean_count_ - ddof);
  for (size_t i = 0; i < covariance.size(); ++i) c[i] /= denom;
  return covariance;
}

}  // namespace stats
}  // namespace randrecon
