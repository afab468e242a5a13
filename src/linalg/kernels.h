// High-performance dense kernels under the Matrix API.
//
// Every attack in the paper funnels into three primitives — dense matrix
// products, sample covariance (a Gram matrix of centered data), and
// symmetric eigendecomposition — so those primitives get a dedicated
// kernel layer: cache-blocked, register-tiled loops over raw row-major
// pointers (no bounds checks inside), parallelized over row ranges via
// common/parallel.h once the operand sizes justify waking the pool.
//
// Layout of the layer:
//   * Pointer kernels (MatMul, MatMulABt, GramAtA, RowsToColumns,
//     ColumnsToRows): the actual blocked implementations. Small problems
//     fall through to the plain loops the kernels replaced, so tiny
//     matrices never pay packing overhead.
//   * Matrix-level wrappers (MatMul, MatMulTransposed, GramMatrix):
//     shape-checked conveniences used by Matrix::operator* and
//     stats::SampleCovariance.
//
// Determinism: for a fixed build, results are bitwise identical for any
// thread count — work is partitioned by output rows/tiles and every
// output element's floating-point accumulation order is independent of
// the partition.

#ifndef RANDRECON_LINALG_KERNELS_H_
#define RANDRECON_LINALG_KERNELS_H_

#include <cstddef>

#include "common/parallel.h"
#include "linalg/matrix.h"

namespace randrecon {
namespace linalg {
namespace kernels {

/// c(m x n) = a(m x k) · b(k x n). All row-major; c is overwritten.
void MatMul(const double* a, const double* b, double* c, size_t m, size_t k,
            size_t n, const ParallelOptions& options = {});

/// c(m x n) = a(m x k) · b(n x k)ᵀ without materializing the transpose.
/// The projection step X Q̂ Q̂ᵀ of PCA-DR/SF and the Q Λ Qᵀ recomposition
/// are exactly this shape.
void MatMulABt(const double* a, const double* b, double* c, size_t m, size_t k,
               size_t n, const ParallelOptions& options = {});

/// Fixed record-chunk size of GramAtA's accumulation order. Chunk
/// boundaries always fall at record indices that are multiples of this
/// constant, so an out-of-core accumulator that flushes kGramChunkRows
/// records at a time (stats::StreamingMoments) reproduces the in-memory
/// Gram matrix bitwise.
constexpr size_t kGramChunkRows = 4096;

/// partial(m x m) = a(rows x m)ᵀ · a(rows x m) for ONE record chunk:
/// fills the upper triangle (p <= q); the strict lower triangle is
/// UNSPECIFIED (zero on the small-size path, diagonal-straddling tile
/// spill on the blocked path) — read p <= q only, or mirror it yourself.
/// `partial` is overwritten. The floating-point accumulation order of
/// every upper-triangle element is a pure function of (rows, m) —
/// independent of the thread count — so merging chunk partials in chunk
/// order is bitwise deterministic.
void GramAtAChunk(const double* a, size_t rows, size_t m, double* partial,
                  const ParallelOptions& options = {});

/// c(m x m) = a(n x m)ᵀ · a(n x m): the Gram matrix of the columns of `a`
/// (syrk-style). The result is exactly symmetric by construction.
/// Internally the record dimension is processed in fixed chunks of
/// kGramChunkRows rows (GramAtAChunk partials folded into c in chunk
/// order), which parallelizes the tall-skinny case (huge n, small m) and
/// pins one accumulation order for in-memory and streaming callers alike.
void GramAtA(const double* a, size_t n, size_t m, double* c,
             const ParallelOptions& options = {});

/// The two directions of the row↔column copy every columnar layer makes
/// (ingest's Offer, column-store append and gather, the row-major
/// pass-1 adapter, the centered Gram staging, Matrix::Transpose). Both walk the rows in
/// fixed tiles, so the strided side of each copy stays cache-resident
/// across the tile's m columns. Every value is copied (or shifted by one
/// subtraction) exactly once, so the output bytes are those of the naive
/// element loop.

/// columns[j * ld_columns + r] = rows[r * ld_rows + j] for r < num_rows,
/// j < m.
void RowsToColumns(const double* rows, size_t ld_rows, size_t num_rows,
                   size_t m, double* columns, size_t ld_columns);

/// rows[r * ld_rows + j] = columns[j][first_row + r] − offset[j] for
/// r < num_rows, j < m; a plain copy when `offset` is null. Column j may
/// live anywhere (`columns` holds one pointer per attribute, as a
/// pipeline::ColumnarBlockStream serves them).
void ColumnsToRows(const double* const* columns, size_t first_row,
                   size_t num_rows, size_t m, const double* offset,
                   double* rows, size_t ld_rows);

/// out(cols x rows) = in(rows x cols)ᵀ (RowsToColumns over dense
/// operands).
void TransposeInto(const double* in, size_t rows, size_t cols, double* out);

/// Shape-checked Matrix products routed through the pointer kernels.
Matrix MatMul(const Matrix& a, const Matrix& b,
              const ParallelOptions& options = {});

/// a · bᵀ (a.cols() must equal b.cols()).
Matrix MatMulTransposed(const Matrix& a, const Matrix& b,
                        const ParallelOptions& options = {});

/// centeredᵀ · centered / denom — the sample covariance of pre-centered
/// data in one blocked pass (denom = n or n-1 depending on ddof).
Matrix GramMatrix(const Matrix& centered, double denom,
                  const ParallelOptions& options = {});

}  // namespace kernels
}  // namespace linalg
}  // namespace randrecon

#endif  // RANDRECON_LINALG_KERNELS_H_
