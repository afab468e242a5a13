// The determinism contract of the streaming accumulator: for ANY chunk
// size and ANY thread count, the streamed means/covariance are BITWISE
// identical to the in-memory stats::ColumnMeans / stats::SampleCovariance
// over the same records (exact 0.0 difference, not a tolerance).

#include "stats/streaming_moments.h"

#include <algorithm>
#include <map>
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

// The block-parallel flush: T staging blocks per group for T threads, the
// last group partly filled for every T in {1, 2, 3, 4} (n = T + 1 blocks
// + 321 rows: a full group of T blocks, then the rest, whose last group
// ends in the ragged tail). m = 9 takes GramAtAChunk's column-pair loop,
// m = 20 its blocked GEMM; either way the bits are SampleCovariance's.
class StreamingMomentsGroupTest
    : public ::testing::TestWithParam<std::tuple<size_t, int, size_t>> {};

TEST_P(StreamingMomentsGroupTest, BitwiseEqualsSampleCovariance) {
  const size_t block_rows = std::get<0>(GetParam());
  const int num_threads = std::get<1>(GetParam());
  const size_t m = std::get<2>(GetParam());
  const size_t n =
      (static_cast<size_t>(num_threads) + 1) * linalg::kernels::kGramChunkRows +
      321;
  stats::Rng rng(23);
  Matrix data = rng.GaussianMatrix(n, m);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) data(i, j) += 10.0 * static_cast<double>(j);
  }
  const Matrix streamed = StreamCovariance(
      data, block_rows == 0 ? n : block_rows, num_threads);
  EXPECT_EQ(linalg::MaxAbsDifference(streamed, SampleCovariance(data)), 0.0);
}

// Block size 0 is the sentinel for "whole dataset in one block".
INSTANTIATE_TEST_SUITE_P(
    BlocksThreadsAndWidths, StreamingMomentsGroupTest,
    ::testing::Combine(::testing::Values<size_t>(1, 7, 4096, 4097, 0),
                       ::testing::Values(1, 2, 3, 4),
                       ::testing::Values<size_t>(9, 20)));

// AccumulateScatterBlocks: the same records handed over several blocks at
// a time. kWave fills one wave of Gram tasks per call, kSingle passes one
// block per call, and kMixed alternates with AccumulateScatterColumns in
// odd-sized groups, so head and tail records go through the staging path
// between task waves.
enum class HandOver { kWave, kSingle, kMixed };

/// Streams the records whose transpose is `transposed` (one row per
/// attribute) in blocks of `block_rows`.
Matrix StreamCovarianceBlocks(const Matrix& transposed, size_t block_rows,
                              int num_threads, HandOver mode) {
  ParallelOptions options;
  options.num_threads = num_threads;
  const size_t n = transposed.cols();
  StreamingMoments moments(transposed.rows(), options);
  for (size_t row = 0; row < n; row += block_rows) {
    const size_t rows = std::min(block_rows, n - row);
    moments.AccumulateMeansColumns(ColumnsAt(transposed, row).data(), rows);
  }
  moments.FinalizeMeans();
  // Every block's pointers, alive for the whole sweep.
  std::vector<std::vector<const double*>> columns;
  std::vector<ColumnBlock> blocks;
  for (size_t row = 0; row < n; row += block_rows) {
    columns.push_back(ColumnsAt(transposed, row));
  }
  for (size_t b = 0; b < columns.size(); ++b) {
    blocks.push_back({columns[b].data(), std::min(block_rows, n - b * block_rows)});
  }
  size_t next = 0;
  for (size_t call = 0; next < blocks.size(); ++call) {
    size_t count = 1;
    if (mode == HandOver::kWave) {
      size_t rows = 0;
      for (count = 0; next + count < blocks.size() &&
                      rows < moments.scatter_group_rows();
           ++count) {
        rows += blocks[next + count].rows;
      }
    } else if (mode == HandOver::kMixed) {
      if (call % 2 == 1) {
        moments.AccumulateScatterColumns(blocks[next].columns,
                                         blocks[next].rows);
        ++next;
        continue;
      }
      count = std::min<size_t>(blocks.size() - next, 2 + call % 5);
    }
    moments.AccumulateScatterBlocks(blocks.data() + next, count);
    next += count;
  }
  return moments.FinalizeCovariance();
}

/// One thread count's population, its transpose and its in-memory
/// covariance: shared by the 15 (block size, hand-over) cases of that
/// thread count, built on first use.
struct BlocksPopulation {
  Matrix transposed;
  Matrix covariance;
};

const BlocksPopulation& PopulationFor(int num_threads) {
  static std::map<int, BlocksPopulation>* populations =
      new std::map<int, BlocksPopulation>();
  auto found = populations->find(num_threads);
  if (found != populations->end()) return found->second;
  // n = 4·T + 1 Gram blocks + 321 rows: one full wave of 4·T tasks, then
  // a partly filled wave holding a full block and a ragged tail. m = 20
  // takes GramAtAChunk's blocked GEMM.
  const size_t n =
      (4 * static_cast<size_t>(num_threads) + 1) *
          linalg::kernels::kGramChunkRows +
      321;
  const size_t m = 20;
  stats::Rng rng(29);
  Matrix data = rng.GaussianMatrix(n, m);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) data(i, j) += 10.0 * static_cast<double>(j);
  }
  BlocksPopulation population{data.Transpose(), SampleCovariance(data)};
  return populations->emplace(num_threads, std::move(population))
      .first->second;
}

class StreamingMomentsBlocksTest
    : public ::testing::TestWithParam<std::tuple<size_t, int, HandOver>> {};

TEST_P(StreamingMomentsBlocksTest, BitwiseEqualsSampleCovariance) {
  const size_t block_rows = std::get<0>(GetParam());
  const int num_threads = std::get<1>(GetParam());
  const BlocksPopulation& population = PopulationFor(num_threads);
  const size_t n = population.transposed.cols();
  const Matrix streamed = StreamCovarianceBlocks(
      population.transposed, block_rows == 0 ? n : block_rows, num_threads,
      std::get<2>(GetParam()));
  EXPECT_EQ(linalg::MaxAbsDifference(streamed, population.covariance), 0.0);
}

// Block size 0 is the sentinel for "whole dataset in one block".
INSTANTIATE_TEST_SUITE_P(
    BlocksThreadsAndHandOvers, StreamingMomentsBlocksTest,
    ::testing::Combine(::testing::Values<size_t>(7, 1000, 4096, 4097, 0),
                       ::testing::Values(1, 2, 3, 4),
                       ::testing::Values(HandOver::kWave, HandOver::kSingle,
                                         HandOver::kMixed)));

TEST(StreamingMomentsTest, ScatterGroupRowsIsOneWavePerThread) {
  ParallelOptions options;
  options.num_threads = 3;
  StreamingMoments moments(2, options);
  const std::vector<double> values(100 * linalg::kernels::kGramChunkRows, 1.0);
  const std::vector<const double*> columns = {values.data(), values.data()};
  moments.AccumulateMeansColumns(columns.data(), values.size());
  moments.FinalizeMeans();
  EXPECT_EQ(moments.scatter_group_rows(),
            4u * 3u * linalg::kernels::kGramChunkRows);
}

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
