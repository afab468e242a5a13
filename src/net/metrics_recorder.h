#ifndef RANDRECON_NET_METRICS_RECORDER_H_
#define RANDRECON_NET_METRICS_RECORDER_H_

/// \file
/// MetricsRecorder: the time-series half of the introspection plane. It
/// periodically snapshots the process-global metrics registry and
/// publishes the samples as a rotated series of `metrics-NNNNNN.jsonl`
/// files next to the scheduler's report series, one JSON object per
/// line:
///
///   {"seq":3,"t_nanos":120000,"counters":{...},"gauges":{...},
///    "histograms":{...}}
///
/// (the counters/gauges/histograms members are exactly
/// metrics::SnapshotJson()'s, so report tooling parses both.)
///
/// Crash safety rides the store discipline (common/file_io.h): every
/// publish rewrites the current file with WriteFileAtomic — so ANY
/// published metrics-*.jsonl is complete and parseable, even after a
/// power loss; a crash loses at most the unpublished latest sample.
/// Rotation starts a fresh file every `samples_per_file` samples and
/// retention unlinks the oldest files in the directory beyond
/// `retain_files`, earlier runs' included. A new recorder never appends
/// to a previous run's files: it continues the index sequence after the
/// highest existing one, and `seq` restarts at 1 — which is how
/// tools/check_timeseries.py detects run boundaries.
///
/// Clock: everything reads trace::NowNanos(). Tests install a fake
/// clock and drive sampling with Tick() — zero sleeps; live daemons use
/// Start()/Stop() for a real background thread.
///
/// Reconciliation contract (gated in CI): a daemon that wants its final
/// sample to agree exactly with its run report must quiesce work, write
/// the report, then call Close() — Close takes one last sample, and
/// because the recorder's own counters (recorder.samples, ...) are
/// incremented only AFTER a sample's snapshot is captured, that final
/// snapshot sees precisely the state the report saw.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/file_io.h"
#include "common/result.h"

namespace randrecon {
namespace net {

class MetricsRecorder {
 public:
  struct Options {
    /// Directory the series lives in (created if absent).
    std::string series_dir;
    /// Sampling cadence on the trace::NowNanos() clock.
    uint64_t interval_nanos = 1000000000;  // 1s
    /// Samples per file before rotating to the next index.
    size_t samples_per_file = 60;
    /// Published files retained (0 = keep everything).
    size_t retain_files = 0;
  };

  /// Validates options, creates the directory, scans for existing
  /// series files and parks the recorder one interval before its first
  /// due sample. No sample is taken yet.
  static Result<std::unique_ptr<MetricsRecorder>> Create(Options options);

  ~MetricsRecorder();
  MetricsRecorder(const MetricsRecorder&) = delete;
  MetricsRecorder& operator=(const MetricsRecorder&) = delete;

  /// Fake-clock driving: samples iff the clock reached the next due
  /// time (then re-arms; a large jump still yields ONE sample — the
  /// series records state, not wall-clock slots). Returns true iff a
  /// sample was taken. Not thread-safe against itself; serialize with
  /// Start()/Stop().
  bool Tick();

  /// Samples unconditionally, now. The building block of Tick and
  /// Close; exposed for tests that pin exact sample contents.
  Status SampleNow();

  /// Spawns the real-time sampling thread (live daemons). Tick cadence
  /// is interval_nanos of real time, polled at 10ms granularity so Stop
  /// stays prompt.
  void Start();

  /// Joins the sampling thread if running. Idempotent.
  void Stop();

  /// Stop() + one final sample: the quiesced-state sample the
  /// reconciliation contract compares against the run report.
  Status Close();

  /// Samples successfully published so far.
  uint64_t samples() const;

  /// This run's series files present in the directory, oldest first
  /// (what retention kept); empty if the directory cannot be scanned.
  std::vector<std::string> PublishedFiles() const;

 private:
  MetricsRecorder(Options options, uint64_t first_index);

  Status SampleNowLocked();
  Status PublishLocked();

  const Options options_;
  const FileSeries series_;  ///< metrics-NNNNNN.jsonl in series_dir.
  mutable std::mutex mutex_;
  const uint64_t first_index_;  ///< This run's first file index.
  uint64_t next_due_nanos_ = 0;
  uint64_t file_index_;          ///< Index of the file being written.
  uint64_t seq_ = 0;             ///< Samples taken this run.
  std::string current_lines_;    ///< Accumulated lines of the current file.
  size_t current_samples_ = 0;   ///< Samples in current_lines_.
  bool closed_ = false;

  std::thread thread_;
  std::mutex thread_mutex_;  ///< Guards thread_ start/join.
  bool stop_requested_ = false;
};

}  // namespace net
}  // namespace randrecon

#endif  // RANDRECON_NET_METRICS_RECORDER_H_
