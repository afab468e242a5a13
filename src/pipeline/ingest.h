// The overload-safe concurrent ingest core: N producers → bounded
// queue → one writer thread → rolling sharded store.
//
// This is the robustness substrate the continuous-ingest attack service
// (ROADMAP) sits on. Producers call Offer() from any thread; the rows
// cross a BoundedQueue (common/bounded_queue.h) into a dedicated writer
// thread draining into a RollingShardedStoreWriter
// (data/rolling_store.h). The thread appends each batch, which seals
// every shard that fills, and then publishes the manifest, so
// concurrent RollingStoreSnapshotReaders always have a sealed prefix to
// attack. Offer's one copy of a batch is its transpose, made on the
// producer's thread: the queue carries column-major batches, and the
// one writer thread fills store blocks from them with contiguous
// column copies (RollingShardedStoreWriter::AppendColumns) instead of
// transposing every row itself. Three properties are load-bearing:
//
//   * Bounded memory: at most `queue_batches` batches are in flight.
//     A full queue pushes back on producers, never the allocator.
//   * Admission control, never unbounded blocking: Offer waits at most
//     `admission_timeout_nanos` (and never past the batch's own
//     deadline) for room. If the queue stays full, the batch is SHED:
//     Offer returns Status::Unavailable — the retryable-transient code
//     (common/status.h), so a producer with a retry budget backs off
//     and re-offers — and the shed is counted, never silent.
//   * Exact accounting: every offered batch is either appended or shed,
//     so `ingest.shed + ingest.appended == ingest.offered` (same for
//     the row counters) holds at Close. tools/check_report.py enforces
//     the identity on every ingest run report. A store that fails
//     after rows were appended may never publish some of them; Close's
//     error then names exactly how many.
//
// Per-batch deadlines propagate THROUGH the queue: a batch whose
// deadline_nanos passes while it waits in the queue is shed at dequeue
// (counted under ingest.shed_expired) instead of being written late —
// admission latency and queue latency share one budget, measured on
// trace::NowNanos() like every deadline in the repo.
//
// Shutdown: Close() closes the queue (producers start failing fast),
// drains every already-accepted batch into the store (the queue's
// drain-after-close contract), closes the writer (final rotation +
// manifest publish), and joins the thread. Batches accepted before
// Close are never lost.

#ifndef RANDRECON_PIPELINE_INGEST_H_
#define RANDRECON_PIPELINE_INGEST_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/bounded_queue.h"
#include "common/result.h"
#include "data/rolling_store.h"
#include "linalg/matrix.h"

namespace randrecon {
namespace pipeline {

/// Ingest service knobs.
struct IngestOptions {
  /// Queue capacity, in batches (>= 1) — the memory bound.
  size_t queue_batches = 64;
  /// Longest an Offer may wait for queue room before shedding. 0 means
  /// shed immediately when full (pure try semantics). A batch deadline
  /// tightens (never loosens) this bound.
  uint64_t admission_timeout_nanos = 50ull * 1000 * 1000;
  /// Rotation + retention policy of the underlying rolling store.
  data::RollingStoreOptions store;
};

/// Running totals of the accounting identity (all exact at Close; a
/// momentary view mid-run). offered == appended + shed, batch-wise and
/// row-wise.
struct IngestStats {
  uint64_t batches_offered = 0;
  uint64_t batches_appended = 0;
  uint64_t batches_shed = 0;
  uint64_t rows_offered = 0;
  uint64_t rows_appended = 0;
  uint64_t rows_shed = 0;
};

/// The producer-facing ingest front end. Thread-safe: Offer may be
/// called from any number of threads; Close from one.
class IngestService {
 public:
  /// Validates options (and the store options, per
  /// RollingShardedStoreWriter::Create) and starts the writer thread.
  /// Touches no files until the first batch is appended.
  static Result<std::unique_ptr<IngestService>> Start(
      const std::string& manifest_path, std::vector<std::string> column_names,
      IngestOptions options = {});

  IngestService(const IngestService&) = delete;
  IngestService& operator=(const IngestService&) = delete;

  /// Close()s best-effort — call Close() explicitly to observe errors.
  ~IngestService();

  /// Transposes the leading `num_rows` rows of `chunk` into a
  /// column-major batch on the caller's thread and queues it (so
  /// `ingest.offer_ns_per_row` includes the transpose).
  /// `deadline_nanos` (0 = none) is an absolute trace::NowNanos()
  /// deadline for the WHOLE batch — admission and queue residency
  /// included; the write itself starts before the deadline or not at
  /// all. Returns:
  ///   * OK                 — accepted (will be appended unless the
  ///                          deadline expires in the queue);
  ///   * Unavailable        — SHED at admission: queue full past the
  ///                          admission timeout / batch deadline.
  ///                          Retryable; counted under ingest.shed;
  ///   * FailedPrecondition — the service is closed;
  ///   * the writer's error — ingest already failed sticky (a shed is
  ///                          also counted, so accounting stays exact).
  Status Offer(const linalg::Matrix& chunk, size_t num_rows,
               uint64_t deadline_nanos = 0);

  /// Stops admission, drains accepted batches, closes the store (final
  /// rotation + publish), joins the writer thread. Idempotent. Returns
  /// the first writer/store error, if any, with its code and message
  /// followed by "(N of M appended rows lost: never published)": the
  /// appended rows no successful publish named (0 when the final
  /// publish recovered them all). The identity still counts them as
  /// appended.
  Status Close();

  /// Exact once Close() returned; a momentary snapshot before that.
  IngestStats stats() const;

  /// Momentary service state as a JSON object — the ingest section of
  /// the stats server's /statusz. Reads only atomics and the queue's
  /// own depth accessor, so it is safe (and non-perturbing) from the
  /// serving thread while producers and the writer run full tilt.
  std::string StatusJson() const;

  /// The manifest path snapshots attack.
  const std::string& manifest_path() const;

  /// Published-manifest state — safe to read only after Close().
  uint64_t published_rows() const { return writer_.published_rows(); }
  size_t published_shards() const { return writer_.published_shards(); }

 private:
  /// One queued unit of work.
  struct Batch {
    /// The batch transposed: attribute j of row r at
    /// columns[j * num_rows + r]. Not zero-filled first — Offer's
    /// transpose writes every value.
    std::unique_ptr<double[]> columns;
    size_t num_rows = 0;
    uint64_t deadline_nanos = 0;
  };

  IngestService(data::RollingShardedStoreWriter writer, IngestOptions options);

  /// Writer-thread body: drain until closed-and-empty.
  void WriterLoop();

  /// Counts one shed batch everywhere the identity needs it.
  void CountShed(size_t num_rows);

  IngestOptions options_;
  data::RollingShardedStoreWriter writer_;
  BoundedQueue<Batch> queue_;
  std::thread writer_thread_;
  /// First store/writer error, sticky (mirrors the writer's own
  /// deferred error so producers fail fast instead of queueing into a
  /// dead store). Guarded by error_mutex_.
  mutable std::mutex error_mutex_;
  Status error_;
  std::atomic<bool> closed_{false};
  std::atomic<uint64_t> batches_offered_{0};
  std::atomic<uint64_t> batches_appended_{0};
  std::atomic<uint64_t> batches_shed_{0};
  std::atomic<uint64_t> rows_offered_{0};
  std::atomic<uint64_t> rows_appended_{0};
  std::atomic<uint64_t> rows_shed_{0};
};

}  // namespace pipeline
}  // namespace randrecon

#endif  // RANDRECON_PIPELINE_INGEST_H_
