// The determinism contract of the streaming accumulator: for ANY chunk
// size and ANY thread count, the streamed means/covariance are BITWISE
// identical to the in-memory stats::ColumnMeans / stats::SampleCovariance
// over the same records (exact 0.0 difference, not a tolerance).

#include "stats/streaming_moments.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "linalg/matrix_util.h"
#include "stats/moments.h"
#include "stats/rng.h"

namespace randrecon {
namespace stats {
namespace {

using linalg::Matrix;

/// Column slices of `transposed` (the records, one row per attribute)
/// starting at record `row` — the shape a ColumnarBlockStream serves.
std::vector<const double*> ColumnsAt(const Matrix& transposed, size_t row) {
  std::vector<const double*> columns(transposed.rows());
  for (size_t j = 0; j < columns.size(); ++j) {
    columns[j] = transposed.row_data(j) + row;
  }
  return columns;
}

/// Streams `data` into a StreamingMoments in column blocks of
/// `chunk_rows` records and returns the finalized covariance.
Matrix StreamCovariance(const Matrix& data, size_t chunk_rows, int num_threads,
                        int ddof = 0, linalg::Vector* means_out = nullptr) {
  ParallelOptions options;
  options.num_threads = num_threads;
  const Matrix transposed = data.Transpose();
  StreamingMoments moments(data.cols(), options);
  for (size_t row = 0; row < data.rows(); row += chunk_rows) {
    const size_t rows = std::min(chunk_rows, data.rows() - row);
    moments.AccumulateMeansColumns(ColumnsAt(transposed, row).data(), rows);
  }
  moments.FinalizeMeans();
  for (size_t row = 0; row < data.rows(); row += chunk_rows) {
    const size_t rows = std::min(chunk_rows, data.rows() - row);
    moments.AccumulateScatterColumns(ColumnsAt(transposed, row).data(), rows);
  }
  if (means_out != nullptr) *means_out = moments.means();
  return moments.FinalizeCovariance(ddof);
}

class StreamingMomentsChunkTest
    : public ::testing::TestWithParam<std::tuple<size_t, int>> {};

TEST_P(StreamingMomentsChunkTest, BitwiseEqualsSampleCovariance) {
  const size_t chunk_rows = std::get<0>(GetParam());
  const int num_threads = std::get<1>(GetParam());
  stats::Rng rng(7);
  // Large non-zero means make any raw-moment shortcut (Σxxᵀ/n − µµᵀ)
  // detectable; n straddles one kGramChunkRows staging-block boundary.
  Matrix data = rng.GaussianMatrix(linalg::kernels::kGramChunkRows + 321, 9);
  for (size_t i = 0; i < data.rows(); ++i) {
    for (size_t j = 0; j < data.cols(); ++j) {
      data(i, j) += 100.0 * static_cast<double>(j + 1);
    }
  }

  linalg::Vector streamed_means;
  const Matrix streamed =
      StreamCovariance(data, chunk_rows == 0 ? data.rows() : chunk_rows,
                       num_threads, /*ddof=*/0, &streamed_means);
  const Matrix in_memory = SampleCovariance(data);
  const linalg::Vector in_memory_means = ColumnMeans(data);

  ASSERT_EQ(streamed_means.size(), in_memory_means.size());
  for (size_t j = 0; j < in_memory_means.size(); ++j) {
    EXPECT_EQ(streamed_means[j], in_memory_means[j]) << "mean " << j;
  }
  EXPECT_EQ(linalg::MaxAbsDifference(streamed, in_memory), 0.0);
}

// Chunk size 0 is the sentinel for "whole dataset in one chunk".
INSTANTIATE_TEST_SUITE_P(
    ChunkSizesAndThreads, StreamingMomentsChunkTest,
    ::testing::Combine(::testing::Values<size_t>(1, 7, 64, 0),
                       ::testing::Values(1, 4)));

TEST(StreamingMomentsTest, UnevenChunkSequenceStillBitwise) {
  stats::Rng rng(11);
  const Matrix data = rng.GaussianMatrix(1000, 6);
  const Matrix transposed = data.Transpose();
  StreamingMoments moments(6);
  // Deliberately irregular chunking, including empty chunks.
  const std::vector<size_t> spans = {1, 0, 499, 3, 497};
  size_t row = 0;
  for (size_t span : spans) {
    moments.AccumulateMeansColumns(ColumnsAt(transposed, row).data(), span);
    row += span;
  }
  ASSERT_EQ(row, data.rows());
  moments.FinalizeMeans();
  row = 0;
  for (size_t span : spans) {
    moments.AccumulateScatterColumns(ColumnsAt(transposed, row).data(), span);
    row += span;
  }
  EXPECT_EQ(linalg::MaxAbsDifference(moments.FinalizeCovariance(),
                                     SampleCovariance(data)),
            0.0);
}

TEST(StreamingMomentsTest, DdofOneMatchesUnbiasedEstimator) {
  stats::Rng rng(13);
  const Matrix data = rng.GaussianMatrix(257, 5);
  EXPECT_EQ(linalg::MaxAbsDifference(StreamCovariance(data, 32, 1, /*ddof=*/1),
                                     SampleCovariance(data, /*ddof=*/1)),
            0.0);
}

TEST(StreamingMomentsTest, MultiBlockStreamMatchesInMemory) {
  // Several staging-block flushes plus a ragged tail.
  stats::Rng rng(17);
  const Matrix data =
      rng.GaussianMatrix(2 * linalg::kernels::kGramChunkRows + 123, 4);
  EXPECT_EQ(linalg::MaxAbsDifference(StreamCovariance(data, 777, 4),
                                     SampleCovariance(data)),
            0.0);
}

TEST(StreamingMomentsTest, CountsRecords) {
  stats::Rng rng(19);
  const Matrix data = rng.GaussianMatrix(42, 3);
  StreamingMoments moments(3);
  moments.AccumulateMeansColumns(ColumnsAt(data.Transpose(), 0).data(), 42);
  EXPECT_EQ(moments.num_records(), 42u);
  EXPECT_EQ(moments.num_attributes(), 3u);
}

}  // namespace
}  // namespace stats
}  // namespace randrecon
