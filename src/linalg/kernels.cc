#include "linalg/kernels.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/check.h"

namespace randrecon {
namespace linalg {
namespace kernels {
namespace {

// ---------------------------------------------------------------------------
// Micro-kernel configuration.
//
// The inner loop is written with GCC/Clang vector extensions so one source
// compiles to whatever SIMD the build enables. The register tile is
// kMr rows x (2 vectors) columns; sizes are chosen so the accumulator
// tile plus a couple of working vectors fits the architectural register
// file (32 zmm / 16 ymm / 16 xmm).
// ---------------------------------------------------------------------------
#if defined(__AVX512F__)
#define RR_SIMD_BYTES 64
constexpr size_t kMr = 6;  // 12 zmm accumulators.
#elif defined(__AVX__)
#define RR_SIMD_BYTES 32
constexpr size_t kMr = 4;  // 8 ymm accumulators.
#else
#define RR_SIMD_BYTES 16
constexpr size_t kMr = 4;  // 8 xmm accumulators.
#endif

typedef double vreal __attribute__((vector_size(RR_SIMD_BYTES)));
constexpr size_t kVecLen = RR_SIMD_BYTES / sizeof(double);
constexpr size_t kNr = 2 * kVecLen;

// Cache blocking: a kKc x kNr B panel slice stays in L1 across the row
// sweep, a kMc x kKc packed A block stays in L2, and a kKc x kNc packed B
// block stays in L2/L3.
constexpr size_t kKc = 256;
constexpr size_t kMc = 96;  // Divisible by every kMr above.
constexpr size_t kNc = 2048;

// Below this many multiply-adds the packed path costs more than it saves
// (measured cutover on AVX-512 is near 110^3); run the plain loops.
constexpr size_t kBlockedFlopCutoff = size_t{1} << 20;
// The same cutoff per row of a full kGramChunkRows chunk. A kernel whose
// plain loop rounds differently from the micro-kernel chooses its path
// from this per-row cost alone, so a row's bits never depend on how many
// rows share the call (a streamed chunk of 100 rows or of 4096).
constexpr size_t kBlockedFlopsPerRowCutoff =
    kBlockedFlopCutoff / kGramChunkRows;
// Engage the thread pool only when there is enough work to amortize it.
constexpr size_t kParallelFlopCutoff = size_t{8} << 20;

/// Packs rows [row0, row0+mc) x depth [k0, k0+kc) of an m x k operand into
/// kMr-row panels: panel p holds rows [p*kMr, (p+1)*kMr), laid out
/// depth-major (out[kk*kMr + r]), zero-padded to a full panel. When
/// `transposed`, the logical operand is aᵀ and element (row, kk) is read
/// from a[kk*lda + row] instead — this is how GramAtA consumes the data
/// matrix without materializing its transpose. The flag is a template
/// parameter so the hot non-transposed copy loop vectorizes cleanly.
template <bool transposed>
void PackA(const double* a, size_t lda, size_t row0, size_t k0, size_t mc,
           size_t kc, double* out) {
  for (size_t p = 0; p < mc; p += kMr) {
    const size_t pr = std::min(kMr, mc - p);
    for (size_t kk = 0; kk < kc; ++kk) {
      for (size_t r = 0; r < pr; ++r) {
        out[kk * kMr + r] = transposed
                                ? a[(k0 + kk) * lda + (row0 + p + r)]
                                : a[(row0 + p + r) * lda + (k0 + kk)];
      }
      for (size_t r = pr; r < kMr; ++r) out[kk * kMr + r] = 0.0;
    }
    out += kKc * kMr;
  }
}

/// Packs depth [k0, k0+kc) x columns [col0, col0+nc) of a k x n operand
/// into kNr-column panels laid out depth-major (out[kk*kNr + u]),
/// zero-padded. When `transposed`, the logical operand is bᵀ with b stored
/// n x k, so element (kk, col) is read from b[col*ldb + kk] — this is how
/// MatMulABt consumes the second factor's rows directly.
template <bool transposed>
void PackB(const double* b, size_t ldb, size_t k0, size_t col0, size_t kc,
           size_t nc, double* out) {
  for (size_t q = 0; q < nc; q += kNr) {
    const size_t qn = std::min(kNr, nc - q);
    for (size_t kk = 0; kk < kc; ++kk) {
      for (size_t u = 0; u < qn; ++u) {
        out[kk * kNr + u] = transposed ? b[(col0 + q + u) * ldb + (k0 + kk)]
                                       : b[(k0 + kk) * ldb + (col0 + q + u)];
      }
      for (size_t u = qn; u < kNr; ++u) out[kk * kNr + u] = 0.0;
    }
    out += kKc * kNr;
  }
}

/// The register-tiled core: accumulates a kMr x kNr tile of C from packed
/// panels, then adds it into C (respecting the pr x qn valid region of
/// edge tiles).
inline void MicroKernel(const double* __restrict ap, const double* __restrict bp,
                        size_t kc, double* __restrict c, size_t ldc, size_t pr,
                        size_t qn) {
  vreal acc[kMr][2];
  for (size_t r = 0; r < kMr; ++r) {
    acc[r][0] = vreal{};
    acc[r][1] = vreal{};
  }
  for (size_t kk = 0; kk < kc; ++kk) {
    vreal b0, b1;
    __builtin_memcpy(&b0, bp + kk * kNr, sizeof(vreal));
    __builtin_memcpy(&b1, bp + kk * kNr + kVecLen, sizeof(vreal));
    for (size_t r = 0; r < kMr; ++r) {
      const double av = ap[kk * kMr + r];
      acc[r][0] += av * b0;
      acc[r][1] += av * b1;
    }
  }
  if (pr == kMr && qn == kNr) {
    for (size_t r = 0; r < kMr; ++r) {
      for (size_t h = 0; h < 2; ++h) {
        for (size_t u = 0; u < kVecLen; ++u) {
          c[r * ldc + h * kVecLen + u] += acc[r][h][u];
        }
      }
    }
  } else {
    for (size_t r = 0; r < pr; ++r) {
      for (size_t u = 0; u < qn; ++u) {
        c[r * ldc + u] += acc[r][u / kVecLen][u % kVecLen];
      }
    }
  }
}

/// Blocked GEMM driver: C(m x n) = op_a(a) · op_b(b) with C pre-zeroed by
/// the caller. The k0 loop is outermost and sequential, so each C element
/// accumulates its k-blocks in a fixed order; parallelism splits the i0
/// row-blocks, whose C tiles are disjoint — together this makes the
/// result independent of the thread count.
/// With `upper_only`, micro-tiles lying strictly below the diagonal of C
/// are skipped (the caller mirrors them from the upper triangle): a syrk
/// for symmetric outputs at half the flops. The tile set is a pure
/// function of the geometry, so determinism is unaffected.
template <bool a_trans, bool b_trans>
void GemmBlocked(const double* a, size_t lda, const double* b, size_t ldb,
                 double* c, size_t m, size_t k, size_t n,
                 const ParallelOptions& options, bool upper_only = false) {
  const size_t nc_max = std::min(kNc, (n + kNr - 1) / kNr * kNr);
  std::vector<double> bpack(nc_max * kKc);
  const size_t num_iblocks = (m + kMc - 1) / kMc;

  ParallelOptions block_options = options;
  if (m * k * n < kParallelFlopCutoff) block_options.num_threads = 1;

  for (size_t k0 = 0; k0 < k; k0 += kKc) {
    const size_t kc = std::min(kKc, k - k0);
    for (size_t j0 = 0; j0 < n; j0 += kNc) {
      const size_t nc = std::min(kNc, n - j0);
      PackB<b_trans>(b, ldb, k0, j0, kc, nc, bpack.data());
      ParallelFor(
          0, num_iblocks,
          [&](size_t ib_begin, size_t ib_end) {
            std::vector<double> apack(kMc * kKc);
            for (size_t ib = ib_begin; ib < ib_end; ++ib) {
              const size_t i0 = ib * kMc;
              const size_t mc = std::min(kMc, m - i0);
              PackA<a_trans>(a, lda, i0, k0, mc, kc, apack.data());
              for (size_t p = 0; p < mc; p += kMr) {
                const size_t pr = std::min(kMr, mc - p);
                const double* ap = apack.data() + (p / kMr) * kKc * kMr;
                for (size_t q = 0; q < nc; q += kNr) {
                  const size_t qn = std::min(kNr, nc - q);
                  // Tile columns [j0+q, j0+q+qn) all below row i0+p → the
                  // whole tile is strictly lower-triangle; skip it.
                  if (upper_only && j0 + q + qn <= i0 + p) continue;
                  const double* bp = bpack.data() + (q / kNr) * kKc * kNr;
                  MicroKernel(ap, bp, kc, c + (i0 + p) * n + j0 + q, n, pr,
                              qn);
                }
              }
            }
          },
          block_options);
    }
  }
}

// Rows per transpose tile: the strided side of a tile is 16 rows x m
// doubles (16 KiB at m = 128), which stays in L1 while the tile's m
// contiguous column runs stream past it.
constexpr size_t kTransposeTileRows = 16;

template <bool kShift>
void ColumnsToRowsTiled(const double* const* columns, size_t first_row,
                        size_t num_rows, size_t m, const double* offset,
                        double* rows, size_t ld_rows) {
  for (size_t r0 = 0; r0 < num_rows; r0 += kTransposeTileRows) {
    const size_t tile = std::min(kTransposeTileRows, num_rows - r0);
    double* out = rows + r0 * ld_rows;
    for (size_t j = 0; j < m; ++j) {
      const double* in = columns[j] + first_row + r0;
      const double shift = kShift ? offset[j] : 0.0;
      for (size_t r = 0; r < tile; ++r) {
        out[r * ld_rows + j] = kShift ? in[r] - shift : in[r];
      }
    }
  }
}

}  // namespace

void MatMul(const double* a, const double* b, double* c, size_t m, size_t k,
            size_t n, const ParallelOptions& options) {
  if (m == 0 || n == 0) return;
  std::memset(c, 0, m * n * sizeof(double));
  if (k == 0) return;
  // The plain loop's per-element update is the micro-kernel's (one
  // multiply-add chain from zero) while k fits one kKc depth block; beyond
  // that the blocked path sums per-block partials, so deeper products
  // always take it and the path never depends on the row count.
  if (k <= kKc && m * k * n < kBlockedFlopCutoff) {
    // The plain i-k-j loop the kernel layer replaced; still the fastest
    // shape for small operands. No zero-skip (the old loop had one): a
    // 0.0 factor must multiply — and so propagate — a NaN/Inf partner,
    // exactly as the blocked path does, so semantics don't flip with
    // operand size.
    for (size_t i = 0; i < m; ++i) {
      const double* a_row = a + i * k;
      double* c_row = c + i * n;
      for (size_t kk = 0; kk < k; ++kk) {
        const double a_ik = a_row[kk];
        const double* b_row = b + kk * n;
        for (size_t j = 0; j < n; ++j) c_row[j] += a_ik * b_row[j];
      }
    }
    return;
  }
  GemmBlocked<false, false>(a, k, b, n, c, m, k, n, options);
}

void MatMulABt(const double* a, const double* b, double* c, size_t m, size_t k,
               size_t n, const ParallelOptions& options) {
  if (m == 0 || n == 0) return;
  std::memset(c, 0, m * n * sizeof(double));
  if (k == 0) return;
  // The dot-product loop below does not always round like the
  // micro-kernel's multiply-add chain (at k = 4 it does not), so the path
  // is a function of k·n only: every row takes the same one.
  if (k * n < kBlockedFlopsPerRowCutoff) {
    // Row-by-row dot products: both operands are walked contiguously.
    for (size_t i = 0; i < m; ++i) {
      const double* a_row = a + i * k;
      double* c_row = c + i * n;
      for (size_t j = 0; j < n; ++j) {
        const double* b_row = b + j * k;
        double sum = 0.0;
        for (size_t kk = 0; kk < k; ++kk) sum += a_row[kk] * b_row[kk];
        c_row[j] = sum;
      }
    }
    return;
  }
  GemmBlocked<false, true>(a, k, b, k, c, m, k, n, options);
}

void GramAtAChunk(const double* a, size_t rows, size_t m, double* partial,
                  const ParallelOptions& options) {
  if (m == 0) return;
  std::memset(partial, 0, m * m * sizeof(double));
  if (rows == 0) return;
  if (m * m * rows < kBlockedFlopCutoff) {
    // Column-pair accumulation exploiting symmetry (the loop
    // stats::SampleCovariance used to run inline). No zero-skip: a 0.0
    // factor must still multiply (and so propagate) a NaN/Inf partner.
    for (size_t i = 0; i < rows; ++i) {
      const double* row = a + i * m;
      for (size_t p = 0; p < m; ++p) {
        const double v = row[p];
        double* partial_row = partial + p * m;
        for (size_t q = p; q < m; ++q) partial_row[q] += v * row[q];
      }
    }
    return;
  }
  // partial = aᵀ · a through the blocked driver, syrk-style: only the
  // upper block-triangle of tiles is computed (the first operand is the
  // chunk read transposed, lda = m; the second is the chunk as-is) at
  // half the flops of a full product. GemmBlocked partitions disjoint
  // output tiles only, so the accumulation order per element does not
  // depend on the thread count.
  GemmBlocked<true, false>(a, m, a, m, partial, m, rows, m, options,
                           /*upper_only=*/true);
}

void GramAtA(const double* a, size_t n, size_t m, double* c,
             const ParallelOptions& options) {
  if (m == 0) return;
  const size_t num_chunks = (n + kGramChunkRows - 1) / kGramChunkRows;
  if (num_chunks <= 1) {
    // One chunk: write the partial straight into c. Bitwise identical to
    // the buffered merge below (and to a streaming accumulator's
    // "partial added into a zeroed scatter"): the accumulators start at
    // +0.0 and never produce -0.0, so 0.0 + x == x for every element.
    GramAtAChunk(a, n, m, c, options);
  } else {
    std::memset(c, 0, m * m * sizeof(double));
    // Record-dimension (k) parallelism: chunk partials are computed wave
    // by wave — across chunks when m fits a single output-row block of
    // the GEMM driver (the tall-skinny case that used to run
    // single-threaded), within each chunk otherwise — and folded into c
    // strictly in chunk order. Each element's floating-point order is
    // therefore a pure function of n alone: bitwise identical for any
    // thread count and for any out-of-core caller flushing
    // kGramChunkRows records at a time.
    const size_t threads = EffectiveThreadCount(options, num_chunks);
    const size_t wave = m > kMc ? 1 : std::min(num_chunks, threads);
    std::vector<double> partials(wave * m * m);
    ParallelOptions chunk_options = options;
    if (wave > 1) chunk_options.num_threads = 1;
    for (size_t wave_begin = 0; wave_begin < num_chunks; wave_begin += wave) {
      const size_t wave_end = std::min(wave_begin + wave, num_chunks);
      ParallelFor(
          wave_begin, wave_end,
          [&](size_t chunk_begin, size_t chunk_end) {
            for (size_t chunk = chunk_begin; chunk < chunk_end; ++chunk) {
              const size_t row0 = chunk * kGramChunkRows;
              const size_t rows = std::min(kGramChunkRows, n - row0);
              GramAtAChunk(a + row0 * m, rows, m,
                           partials.data() + (chunk - wave_begin) * m * m,
                           chunk_options);
            }
          },
          options);
      for (size_t chunk = wave_begin; chunk < wave_end; ++chunk) {
        const double* partial = partials.data() + (chunk - wave_begin) * m * m;
        for (size_t p = 0; p < m; ++p) {
          double* c_row = c + p * m;
          const double* partial_row = partial + p * m;
          for (size_t q = p; q < m; ++q) c_row[q] += partial_row[q];
        }
      }
    }
  }
  for (size_t p = 0; p < m; ++p) {
    for (size_t q = p + 1; q < m; ++q) c[q * m + p] = c[p * m + q];
  }
}

void RowsToColumns(const double* rows, size_t ld_rows, size_t num_rows,
                   size_t m, double* columns, size_t ld_columns) {
  for (size_t r0 = 0; r0 < num_rows; r0 += kTransposeTileRows) {
    const size_t tile = std::min(kTransposeTileRows, num_rows - r0);
    const double* in = rows + r0 * ld_rows;
    for (size_t j = 0; j < m; ++j) {
      double* out = columns + j * ld_columns + r0;
      for (size_t r = 0; r < tile; ++r) out[r] = in[r * ld_rows + j];
    }
  }
}

void ColumnsToRows(const double* const* columns, size_t first_row,
                   size_t num_rows, size_t m, const double* offset,
                   double* rows, size_t ld_rows) {
  // The shift is a template branch, not a subtraction of 0.0, so the
  // copy form preserves every bit pattern (NaN payloads included).
  if (offset != nullptr) {
    ColumnsToRowsTiled<true>(columns, first_row, num_rows, m, offset, rows,
                             ld_rows);
  } else {
    ColumnsToRowsTiled<false>(columns, first_row, num_rows, m, nullptr, rows,
                              ld_rows);
  }
}

void TransposeInto(const double* in, size_t rows, size_t cols, double* out) {
  RowsToColumns(in, cols, rows, cols, out, rows);
}

Matrix MatMul(const Matrix& a, const Matrix& b, const ParallelOptions& options) {
  RR_CHECK_EQ(a.cols(), b.rows()) << "matmul shape mismatch";
  Matrix out(a.rows(), b.cols());
  MatMul(a.data(), b.data(), out.data(), a.rows(), a.cols(), b.cols(),
         options);
  return out;
}

Matrix MatMulTransposed(const Matrix& a, const Matrix& b,
                        const ParallelOptions& options) {
  RR_CHECK_EQ(a.cols(), b.cols()) << "matmul-ABt shape mismatch";
  Matrix out(a.rows(), b.rows());
  MatMulABt(a.data(), b.data(), out.data(), a.rows(), a.cols(), b.rows(),
            options);
  return out;
}

Matrix GramMatrix(const Matrix& centered, double denom,
                  const ParallelOptions& options) {
  RR_CHECK_GT(denom, 0.0);
  Matrix out(centered.cols(), centered.cols());
  GramAtA(centered.data(), centered.rows(), centered.cols(), out.data(),
          options);
  double* c = out.data();
  for (size_t i = 0; i < out.size(); ++i) c[i] /= denom;
  return out;
}

}  // namespace kernels
}  // namespace linalg
}  // namespace randrecon
