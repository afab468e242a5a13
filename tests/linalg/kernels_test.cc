// Equivalence tests for the blocked kernel layer: every kernel must agree
// with the plain reference loops it replaced to <= 1e-10 max abs
// difference, across shapes that exercise the blocked path, the small-size
// fallback, and the ragged edge tiles of both.

#include "linalg/kernels.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/matrix.h"
#include "linalg/matrix_util.h"
#include "stats/rng.h"

namespace randrecon {
namespace linalg {
namespace {

constexpr double kTol = 1e-10;

Matrix ReferenceMatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      double sum = 0.0;
      for (size_t k = 0; k < a.cols(); ++k) sum += a(i, k) * b(k, j);
      out(i, j) = sum;
    }
  }
  return out;
}

Matrix ReferenceGram(const Matrix& a, double denom) {
  Matrix out(a.cols(), a.cols());
  for (size_t p = 0; p < a.cols(); ++p) {
    for (size_t q = 0; q < a.cols(); ++q) {
      double sum = 0.0;
      for (size_t i = 0; i < a.rows(); ++i) sum += a(i, p) * a(i, q);
      out(p, q) = sum / denom;
    }
  }
  return out;
}

class KernelsEquivalenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(KernelsEquivalenceTest, BlockedMatMulMatchesReference) {
  const size_t m = GetParam();
  stats::Rng rng(100 + m);
  const Matrix a = rng.GaussianMatrix(m, m);
  const Matrix b = rng.GaussianMatrix(m, m);
  EXPECT_LE(MaxAbsDifference(kernels::MatMul(a, b), ReferenceMatMul(a, b)),
            kTol);
}

TEST_P(KernelsEquivalenceTest, GramMatchesReference) {
  const size_t m = GetParam();
  stats::Rng rng(200 + m);
  const Matrix data = rng.GaussianMatrix(2 * m + 3, m);
  EXPECT_LE(MaxAbsDifference(kernels::GramMatrix(data, 7.0),
                             ReferenceGram(data, 7.0)),
            kTol);
}

TEST_P(KernelsEquivalenceTest, TransposeRoundTrip) {
  const size_t m = GetParam();
  stats::Rng rng(300 + m);
  const Matrix a = rng.GaussianMatrix(m, m + 5);
  const Matrix t = a.Transpose();
  ASSERT_EQ(t.rows(), a.cols());
  ASSERT_EQ(t.cols(), a.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      ASSERT_EQ(t(j, i), a(i, j));
    }
  }
}

// Sizes straddle the blocked-path cutoff (~110^3 multiply-adds) and hit
// ragged micro-tile edges (non-multiples of the register tile).
INSTANTIATE_TEST_SUITE_P(Sizes, KernelsEquivalenceTest,
                         ::testing::Values(1, 2, 7, 17, 33, 65, 96, 130, 257));

TEST(KernelsTest, RectangularMatMulMatchesReference) {
  stats::Rng rng(42);
  const Matrix a = rng.GaussianMatrix(37, 211);
  const Matrix b = rng.GaussianMatrix(211, 53);
  EXPECT_LE(MaxAbsDifference(kernels::MatMul(a, b), ReferenceMatMul(a, b)),
            kTol);
}

TEST(KernelsTest, LargeMatMulTakesBlockedPath) {
  // 160^3 > the blocked cutoff, so this exercises packing + micro-kernel.
  stats::Rng rng(43);
  const Matrix a = rng.GaussianMatrix(160, 160);
  const Matrix b = rng.GaussianMatrix(160, 160);
  EXPECT_LE(MaxAbsDifference(kernels::MatMul(a, b), ReferenceMatMul(a, b)),
            kTol);
}

TEST(KernelsTest, MatMulTransposedMatchesReference) {
  stats::Rng rng(44);
  const Matrix a = rng.GaussianMatrix(45, 160);
  const Matrix b = rng.GaussianMatrix(31, 160);
  EXPECT_LE(MaxAbsDifference(kernels::MatMulTransposed(a, b),
                             ReferenceMatMul(a, b.Transpose())),
            kTol);
}

TEST(KernelsTest, MatMulTransposedLargeMatchesReference) {
  stats::Rng rng(45);
  const Matrix a = rng.GaussianMatrix(180, 150);
  const Matrix b = rng.GaussianMatrix(170, 150);
  EXPECT_LE(MaxAbsDifference(kernels::MatMulTransposed(a, b),
                             ReferenceMatMul(a, b.Transpose())),
            kTol);
}

TEST(KernelsTest, GramIsExactlySymmetric) {
  stats::Rng rng(47);
  const Matrix data = rng.GaussianMatrix(500, 130);  // Blocked path.
  const Matrix gram = kernels::GramMatrix(data, 500.0);
  for (size_t i = 0; i < gram.rows(); ++i) {
    for (size_t j = i + 1; j < gram.cols(); ++j) {
      ASSERT_EQ(gram(i, j), gram(j, i)) << "at (" << i << "," << j << ")";
    }
  }
}

TEST(KernelsTest, TallSkinnyGramChunkedMatchesReference) {
  // n spans several kGramChunkRows record chunks with a ragged tail; m is
  // small enough that the record (k) dimension carries all parallelism.
  stats::Rng rng(49);
  const size_t n = 3 * kernels::kGramChunkRows + 513;
  const Matrix data = rng.GaussianMatrix(n, 24);
  EXPECT_LE(MaxAbsDifference(kernels::GramMatrix(data, 100.0),
                             ReferenceGram(data, 100.0)),
            kTol);
}

TEST(KernelsTest, GramChunkBoundaryExactSizes) {
  // Straddle the single-chunk fast path and the chunked merge.
  stats::Rng rng(50);
  for (size_t n : {kernels::kGramChunkRows, kernels::kGramChunkRows + 1}) {
    const Matrix data = rng.GaussianMatrix(n, 17);
    EXPECT_LE(MaxAbsDifference(kernels::GramMatrix(data, 3.0),
                               ReferenceGram(data, 3.0)),
              kTol)
        << "n=" << n;
  }
}

TEST(KernelsTest, TallSkinnyGramIsBitwiseThreadCountInvariant) {
  stats::Rng rng(51);
  const size_t n = 2 * kernels::kGramChunkRows + 777;
  const size_t m = 24;
  const Matrix data = rng.GaussianMatrix(n, m);
  Matrix serial(m, m);
  Matrix pooled(m, m);
  ParallelOptions one_thread;
  one_thread.num_threads = 1;
  ParallelOptions four_threads;
  four_threads.num_threads = 4;
  kernels::GramAtA(data.data(), n, m, serial.data(), one_thread);
  kernels::GramAtA(data.data(), n, m, pooled.data(), four_threads);
  EXPECT_EQ(MaxAbsDifference(serial, pooled), 0.0);
}

TEST(KernelsTest, TallSkinnyGramIsExactlySymmetric) {
  stats::Rng rng(52);
  const size_t n = kernels::kGramChunkRows + 999;
  const Matrix data = rng.GaussianMatrix(n, 12);
  const Matrix gram = kernels::GramMatrix(data, static_cast<double>(n));
  for (size_t i = 0; i < gram.rows(); ++i) {
    for (size_t j = i + 1; j < gram.cols(); ++j) {
      ASSERT_EQ(gram(i, j), gram(j, i)) << "at (" << i << "," << j << ")";
    }
  }
}

TEST(KernelsTest, OperatorStarRoutesThroughKernels) {
  stats::Rng rng(48);
  const Matrix a = rng.GaussianMatrix(140, 140);
  const Matrix b = rng.GaussianMatrix(140, 140);
  EXPECT_EQ(MaxAbsDifference(a * b, kernels::MatMul(a, b)), 0.0);
}

// A row's product must not depend on how many rows share the call: the
// streamed projection runs the same rows in chunks of any size. The shapes
// are pass 2's (scores · Q̂ᵀ with p = 4 at m = 128, and centered · Q̂ at
// m > kKc) plus the MVN factor product at m = 32.
TEST(KernelsTest, RowsDoNotDependOnHowManyShareTheCall) {
  stats::Rng rng(53);
  struct Shape {
    bool abt;
    size_t k, n;
  };
  for (const Shape shape : {Shape{true, 4, 128}, Shape{true, 4, 64},
                            Shape{true, 32, 32}, Shape{false, 128, 4},
                            Shape{false, 300, 4}}) {
    const size_t rows = kernels::kGramChunkRows;
    const Matrix a = rng.GaussianMatrix(rows, shape.k);
    const Matrix b = shape.abt ? rng.GaussianMatrix(shape.n, shape.k)
                               : rng.GaussianMatrix(shape.k, shape.n);
    auto product = [&](size_t row0, size_t count, double* out) {
      if (shape.abt) {
        kernels::MatMulABt(a.row_data(row0), b.data(), out, count, shape.k,
                           shape.n);
      } else {
        kernels::MatMul(a.row_data(row0), b.data(), out, count, shape.k,
                        shape.n);
      }
    };
    std::vector<double> whole(rows * shape.n);
    std::vector<double> pieces(rows * shape.n);
    product(0, rows, whole.data());
    for (size_t row0 = 0; row0 < rows; row0 += 100) {
      product(row0, std::min<size_t>(100, rows - row0),
              pieces.data() + row0 * shape.n);
    }
    EXPECT_EQ(std::memcmp(whole.data(), pieces.data(),
                          whole.size() * sizeof(double)),
              0)
        << (shape.abt ? "MatMulABt" : "MatMul") << " k=" << shape.k
        << " n=" << shape.n;
  }
}

/// The naive element loops the tiled transposes replace.
void NaiveRowsToColumns(const double* rows, size_t ld_rows, size_t num_rows,
                        size_t m, double* columns, size_t ld_columns) {
  for (size_t j = 0; j < m; ++j) {
    for (size_t r = 0; r < num_rows; ++r) {
      columns[j * ld_columns + r] = rows[r * ld_rows + j];
    }
  }
}

void NaiveColumnsToRows(const double* const* columns, size_t first_row,
                        size_t num_rows, size_t m, const double* offset,
                        double* rows, size_t ld_rows) {
  for (size_t j = 0; j < m; ++j) {
    for (size_t r = 0; r < num_rows; ++r) {
      const double value = columns[j][first_row + r];
      rows[r * ld_rows + j] = offset != nullptr ? value - offset[j] : value;
    }
  }
}

// Both directions, with leading dimensions wider than the copied block and
// a row offset into the columns, memcmp-equal to the naive loops on shapes
// at and across the row-tile edges. Untouched padding must stay untouched.
TEST(KernelsTest, TiledTransposesAreBitwiseTheNaiveLoops) {
  stats::Rng rng(54);
  struct Shape {
    size_t rows, m;
  };
  for (const Shape shape : {Shape{1, 1}, Shape{31, 33}, Shape{4096, 128}}) {
    const size_t ld_rows = shape.m + 3;
    const size_t ld_columns = shape.rows + 5;
    const size_t first_row = 2;
    const Matrix source = rng.GaussianMatrix(shape.rows + first_row, ld_rows);
    const Matrix offset_source = rng.GaussianMatrix(1, shape.m);
    const std::string where =
        std::to_string(shape.rows) + "x" + std::to_string(shape.m);

    std::vector<double> tiled(shape.m * ld_columns, -1.0);
    std::vector<double> naive(shape.m * ld_columns, -1.0);
    kernels::RowsToColumns(source.data(), ld_rows, shape.rows, shape.m,
                           tiled.data(), ld_columns);
    NaiveRowsToColumns(source.data(), ld_rows, shape.rows, shape.m,
                       naive.data(), ld_columns);
    EXPECT_EQ(std::memcmp(tiled.data(), naive.data(),
                          tiled.size() * sizeof(double)),
              0)
        << "rows->columns " << where;

    // Columns anywhere: slices of one pool in reverse order, with gaps.
    const size_t slice = shape.rows + first_row + 3;
    const Matrix pool = rng.GaussianMatrix(shape.m, slice);
    std::vector<const double*> columns(shape.m);
    for (size_t j = 0; j < shape.m; ++j) {
      columns[j] = pool.row_data(shape.m - 1 - j);
    }
    for (const double* offset : {static_cast<const double*>(nullptr),
                                 offset_source.data()}) {
      std::vector<double> tiled_rows(shape.rows * ld_rows, -1.0);
      std::vector<double> naive_rows(shape.rows * ld_rows, -1.0);
      kernels::ColumnsToRows(columns.data(), first_row, shape.rows, shape.m,
                             offset, tiled_rows.data(), ld_rows);
      NaiveColumnsToRows(columns.data(), first_row, shape.rows, shape.m,
                         offset, naive_rows.data(), ld_rows);
      EXPECT_EQ(std::memcmp(tiled_rows.data(), naive_rows.data(),
                            tiled_rows.size() * sizeof(double)),
                0)
          << "columns->rows " << where
          << (offset != nullptr ? " with offset" : "");
    }
  }
}

TEST(KernelsTest, EmptyAndDegenerateShapes) {
  const Matrix empty;
  EXPECT_TRUE(kernels::MatMul(empty, empty).empty());
  const Matrix row = Matrix(1, 4, 2.0);
  const Matrix col = Matrix(4, 1, 3.0);
  const Matrix prod = kernels::MatMul(row, col);
  ASSERT_EQ(prod.rows(), 1u);
  ASSERT_EQ(prod.cols(), 1u);
  EXPECT_DOUBLE_EQ(prod(0, 0), 24.0);
}

}  // namespace
}  // namespace linalg
}  // namespace randrecon
