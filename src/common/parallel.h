// Minimal persistent thread pool and data-parallel loop helpers for the
// kernel layer (linalg/kernels.h) and any other hot path that wants
// row-range parallelism.
//
// Design constraints, in priority order:
//   1. Determinism: results must be bitwise identical for any thread
//      count. ParallelFor guarantees this only when each index's work is
//      self-contained (writes to disjoint data, no cross-chunk
//      accumulation) — its chunk boundaries DO depend on the thread
//      count. A floating-point reduction stays deterministic by fixing
//      its chunk boundaries independently of the thread count and
//      combining the partials in index order on the calling thread.
//   2. Zero cost when serial: below `min_parallel_items` (or with one
//      thread) the body runs inline with no pool interaction.
//   3. One pool per process: workers are started lazily on first
//      parallel call and reused for the lifetime of the process.
//      Nested parallel calls (a ParallelFor body that itself calls
//      ParallelFor, directly or through a kernel) are safe: the inner
//      call detects it is inside a pool task and runs inline.

#ifndef RANDRECON_COMMON_PARALLEL_H_
#define RANDRECON_COMMON_PARALLEL_H_

#include <cstddef>
#include <functional>

namespace randrecon {

/// Tuning knobs for ParallelFor / ParallelForEach.
struct ParallelOptions {
  /// Worker count. 0 = auto: the RANDRECON_THREADS environment variable if
  /// set, else std::thread::hardware_concurrency(). 1 forces serial.
  int num_threads = 0;
  /// Ranges smaller than this run inline on the calling thread.
  size_t min_parallel_items = 2;
};

/// Worker count that `options` resolves to for a range of `items` items
/// (always >= 1, and never more than `items`).
size_t EffectiveThreadCount(const ParallelOptions& options, size_t items);

/// Invokes `body(chunk_begin, chunk_end)` over disjoint contiguous chunks
/// covering [begin, end). Each index is visited exactly once. Bodies run
/// concurrently, so they must only write to disjoint data. Chunk
/// boundaries depend on the resolved thread count: results are
/// thread-count-independent only if each index's computation is
/// self-contained (no cross-index floating-point accumulation). Blocks
/// until every chunk has finished.
void ParallelFor(size_t begin, size_t end,
                 const std::function<void(size_t, size_t)>& body,
                 const ParallelOptions& options = {});

/// Invokes `body(i)` once per index in [begin, end), with indices claimed
/// dynamically by whichever worker frees up first — for coarse,
/// unevenly-sized tasks (one task per index, e.g. whole pipeline jobs).
/// Unlike ParallelFor there is no contiguous pre-partition, so one
/// expensive index never serializes the indices behind it. Bodies run
/// concurrently and must only write to disjoint data.
void ParallelForEach(size_t begin, size_t end,
                     const std::function<void(size_t)>& body,
                     const ParallelOptions& options = {});

}  // namespace randrecon

#endif  // RANDRECON_COMMON_PARALLEL_H_
