// AttackScheduler: the long-running daemon half of the attack service —
// cadence-driven reconstruction over a LIVE rolling store, publishing a
// monotonically versioned series of run reports.
//
// An IngestService (pipeline/ingest.h) keeps appending perturbed records
// into a rolling sharded store, republishing its manifest after every
// rotation. The scheduler closes the loop: on a configurable cadence
// (and/or once `min_new_rows` rows the last report did not attack are
// published), it
// pins a RollingStoreSnapshotReader snapshot of the latest published
// manifest, re-runs the streaming SF / PCA-DR attack over it through the
// existing PipelineRunner (inheriting retry, deadline and degraded-shard
// semantics), and publishes report version N — write-temp → atomic
// rename, with a `latest.json` pointer and bounded retention — into a
// report directory that IS the series' durable state.
//
// Contracts this daemon keeps:
//
//   * Scheduling never perturbs numerics. A cycle's attack output is
//     bitwise identical to an offline sweep_attack run over the same
//     pinned snapshot manifest: the snapshot source serves the exact
//     record order and block geometry ShardedRecordSource serves, and
//     the job is built with the same noise model and attack options.
//     Telemetry observes; it never branches the math.
//   * Every cycle is attributed. An attacked cycle ends ok, degraded
//     (whole-stream attack failed non-transiently, the per-shard
//     degraded fallback covered the healthy shards and NAMED the rest)
//     or failed; a due-but-not-attacked cycle is skipped with a cause
//     (no readable manifest / snapshot unchanged since the last
//     report). scheduler.* counters keep the identity
//     cycles == cycles_ok + cycles_degraded + cycles_failed exact, the
//     same discipline as ingest shed attribution.
//   * Deterministic time. Cadence evaluation, overrun detection and the
//     cycle-latency histogram all read trace::NowNanos(), so a
//     FakeClockGuard drives every scheduling decision in tests with
//     zero sleeps. (The background daemon thread's POLL between Ticks
//     is real time — fake-clock tests call Tick() directly.)
//   * Crash-safe series. Reports and latest.json publish through
//     WriteFileAtomic (common/file_io.h: fsync, rename, fsync the
//     directory), so they survive power loss as well as a process kill.
//     The version counter is recovered by scanning the report directory,
//     so a process killed at the publish seam (`sched.publish` failpoint)
//     resumes with no gap and no duplicate version. `latest.json` is a
//     derived pointer, repaired on Create if a crash left it stale.
//
// Each report names its snapshot: the manifest's own trailing RRH64
// hash (the content identity of the ENTIRE published snapshot), its row
// span, and the signed row delta since the previous report (retention
// can shrink a snapshot, so the delta may be negative).
// tools/check_report.py --series validates the whole directory: strict
// version increase, exact row-delta chaining, the cycle-accounting
// identity, and the latest.json pointer.

#ifndef RANDRECON_PIPELINE_ATTACK_SCHEDULER_H_
#define RANDRECON_PIPELINE_ATTACK_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/file_io.h"
#include "common/result.h"
#include "data/shard_store.h"
#include "pipeline/retry.h"
#include "pipeline/runner.h"
#include "pipeline/streaming_attack.h"

namespace randrecon {
namespace pipeline {

/// Scheduler knobs. At least one trigger (`cadence_nanos`,
/// `min_new_rows`) must be set for Tick()/Start() to ever fire;
/// RunCycleNow() works regardless.
struct AttackSchedulerOptions {
  /// Attack the store every this-many nanoseconds of trace::NowNanos()
  /// time (0 = no cadence trigger). The first Tick after Create is
  /// immediately due; later Ticks fire when `now >= next_due`, and
  /// every whole cadence slot that passed unobserved beyond the one
  /// being served is counted under scheduler.overruns.
  uint64_t cadence_nanos = 0;
  /// Also fire once the PUBLISHED manifest's shards that the last report
  /// did not attack (matched by seal digest) hold at least this many
  /// rows (0 = no rows trigger). New shards count whatever retention
  /// retired meanwhile, so the trigger keeps firing on a full retention
  /// window. A scheduler that has published nothing since Create has no
  /// baseline: its first rows check fires. Evaluated against a cheap
  /// manifest parse — no snapshot is pinned until the cycle actually
  /// runs.
  uint64_t min_new_rows = 0;
  /// Re-attack a snapshot whose manifest hash equals the last report's
  /// (default: skip it, counted under scheduler.skipped_unchanged).
  bool attack_unchanged = false;
  /// Noise width of the public model handed to the attack —
  /// NoiseModel::IndependentGaussian(num_attributes, sigma), exactly
  /// what sweep_attack hands its whole-manifest jobs.
  double sigma = 0.5;
  /// Attack + chunking configuration (shared with sweep_attack for the
  /// bitwise-equality contract).
  StreamingAttackOptions attack;
  /// Retry schedule for the whole-stream snapshot job. Snapshot opens
  /// that race a manifest republish surface as retryable Unavailable
  /// (data/rolling_store.h), so retries make live-store cycles robust.
  RetryPolicy retry;
  /// PipelineRunner worker budget (0 = auto).
  int num_workers = 0;
  /// Directory the report series lives in (required; created by Create
  /// if missing). Holds report-NNNNNN.json files and latest.json.
  std::string report_dir;
  /// Keep at most this many newest reports (0 = unlimited). Retired
  /// report files are deleted only after the newer report published.
  size_t retain_reports = 0;
  /// Background daemon poll between trigger evaluations (real time —
  /// the one clock the fake cannot drive, since the daemon thread must
  /// actually wake up). Tick() callers pace themselves.
  uint64_t poll_nanos = 20ull * 1000 * 1000;
  /// Trace every cycle into the process-global capture
  /// (trace::StartTracing/StopTracing) and retain the finished span
  /// tree in the /tracez ring (trace::PushRecentCapture). Claims the
  /// one process-global capture for the cycle's duration — leave OFF
  /// when the embedding tool runs its own StartTracing bracket.
  /// Observation only: the attack math never reads trace state, so
  /// cycle output stays bitwise identical either way.
  bool trace_cycles = false;
  /// Shard-open options for the pinned snapshot (block parallelism).
  data::ColumnStoreReadOptions store_options;
};

/// How one Tick()/RunCycleNow() ended.
enum class CycleOutcome {
  /// No trigger fired — nothing was evaluated beyond the triggers.
  kNotDue,
  /// Due, but the manifest is missing/unreadable (status has the
  /// cause). Normal during warm-up: a rolling writer publishes its
  /// first manifest only after the first rotation.
  kSkippedNoManifest,
  /// Due, but the published manifest hash equals the last report's and
  /// attack_unchanged is false.
  kSkippedUnchanged,
  /// Attacked and published report `version`.
  kOk,
  /// Whole-stream attack failed; the degraded per-shard fallback
  /// covered >= 1 shard and report `version` was published naming the
  /// exclusions. `status` keeps the whole-stream failure.
  kDegraded,
  /// Attacked but nothing was published (attack failed everywhere, or
  /// the report write itself failed) — `status` has the cause. The
  /// version counter is NOT consumed.
  kFailed,
};

/// Stable lowercase name ("ok", "skipped_unchanged", ...) — what the
/// report's outcome field and logs print.
const char* CycleOutcomeName(CycleOutcome outcome);

/// Everything one cycle did — the C++-side mirror of the published
/// report, so tests compare attack output bitwise without re-parsing
/// JSON.
struct SchedulerCycleResult {
  CycleOutcome outcome = CycleOutcome::kNotDue;
  /// OK, or the cause of a skip/failure (kDegraded keeps the
  /// whole-stream failure here even though a report was published).
  Status status;
  /// Published report version (valid for kOk/kDegraded).
  uint64_t version = 0;
  /// Path of the published report file (valid for kOk/kDegraded).
  std::string report_path;
  /// Identity of the snapshot the cycle attacked: the manifest's
  /// trailing RRH64 hash, its row count and shard count — from the
  /// PINNED snapshot (not the trigger-time parse, which a republish
  /// may have outdated).
  uint64_t manifest_hash = 0;
  uint64_t snapshot_rows = 0;
  size_t snapshot_shards = 0;
  /// snapshot_rows minus the previous report's — signed, because
  /// retention can shrink the published window between reports.
  int64_t rows_since_last_report = 0;
  /// The whole-stream attack's numbers (valid for kOk) — bitwise equal
  /// to an offline sweep over the same snapshot manifest.
  StreamingAttackReport report;
  /// Every pipeline job this cycle ran, in run order: the whole-stream
  /// job, then (when degraded) the per-shard fallback jobs.
  std::vector<PipelineJobResult> jobs;
  /// Shards the degraded fallback excluded, with reasons.
  std::vector<ShardExclusion> excluded;
};

/// The daemon. Thread-safe: Tick()/RunCycleNow() serialize on an
/// internal mutex (the background thread is just another caller), and
/// concurrent IngestService writers need no coordination beyond the
/// store's own published-manifest protocol.
class AttackScheduler {
 public:
  /// Validates options (report_dir required, sigma > 0), creates
  /// report_dir if missing, scans it to recover the version counter
  /// (next version = max existing + 1) and the previous report's
  /// snapshot identity (so row-delta chaining stays exact across
  /// restarts), and repairs a stale latest.json. Touches the store not
  /// at all — the first cycle does.
  static Result<std::unique_ptr<AttackScheduler>> Create(
      std::string manifest_path, AttackSchedulerOptions options);

  AttackScheduler(const AttackScheduler&) = delete;
  AttackScheduler& operator=(const AttackScheduler&) = delete;

  /// Stop()s the daemon thread if running.
  ~AttackScheduler();

  /// Evaluates the triggers at trace::NowNanos() and runs at most one
  /// cycle. Returns kNotDue when nothing fired.
  SchedulerCycleResult Tick();

  /// Runs one cycle unconditionally (the cadence anchor is untouched).
  SchedulerCycleResult RunCycleNow();

  /// Spawns the background daemon thread: Tick(), then wait
  /// poll_nanos (or a Stop notification), forever. FailedPrecondition
  /// if already running.
  Status Start();

  /// Stops and joins the daemon thread. Idempotent; safe without
  /// Start.
  void Stop();

  /// "report-NNNNNN.json" — the series file naming scheme.
  static std::string ReportFileName(uint64_t version);

  const std::string& manifest_path() const { return manifest_path_; }
  const std::string& report_dir() const { return options_.report_dir; }

  /// Momentary accounting (exact while no cycle is in flight). The
  /// cycle identity cycles() == cycles_ok + cycles_degraded +
  /// cycles_failed always holds.
  uint64_t cycles() const;
  uint64_t cycles_ok() const;
  uint64_t cycles_degraded() const;
  uint64_t cycles_failed() const;
  uint64_t skipped_no_manifest() const;
  uint64_t skipped_unchanged() const;
  uint64_t overruns() const;
  uint64_t reports_published() const;
  /// 0 until the first publish (of this instance OR recovered from the
  /// report directory).
  uint64_t last_published_version() const;
  uint64_t next_version() const;

  /// Momentary daemon state as a JSON object — the scheduler section of
  /// the stats server's /statusz. Returns a CACHED rendering refreshed
  /// at every cycle commit point, so a scrape never blocks behind a
  /// cycle holding the scheduler mutex (cycles take attack-sized time).
  std::string StatusJson() const;

 private:
  AttackScheduler(std::string manifest_path, AttackSchedulerOptions options);

  /// One cycle, mutex_ held: parse → skip checks → pin + attack →
  /// publish → retention.
  SchedulerCycleResult RunCycleLocked();

  /// RunCycleLocked bracketed by the trace_cycles capture (no-op wrap
  /// when the option is off).
  SchedulerCycleResult RunCycleTracedLocked();

  /// Re-renders the /statusz JSON from the series/counter fields
  /// (mutex_ held) into the status cache.
  void UpdateStatusLocked();

  /// Builds and publishes report `next_version_` for an attacked
  /// cycle over snapshot `attacked`; advances the series state (the rows
  /// trigger's baseline included), rewrites latest.json and retires the
  /// oldest reports beyond retain_reports on success.
  Status PublishLocked(const data::ShardManifest& attacked,
                       SchedulerCycleResult* result);

  /// Daemon thread body.
  void DaemonLoop();

  const std::string manifest_path_;
  const AttackSchedulerOptions options_;
  const FileSeries reports_;  ///< report-NNNNNN.json in report_dir.

  /// Serializes cycles (Tick, RunCycleNow, accessors).
  mutable std::mutex mutex_;
  uint64_t next_due_ = 0;  ///< Cadence deadline (trace::NowNanos()).
  uint64_t next_version_ = 1;
  uint64_t last_published_version_ = 0;
  uint64_t last_manifest_hash_ = 0;
  uint64_t last_report_rows_ = 0;
  bool have_last_report_ = false;
  /// Seal digests of the shards the last report this instance published
  /// attacked, sorted: the rows trigger's baseline. Empty until the
  /// first publish (a published snapshot names at least one shard).
  std::vector<uint64_t> attacked_digests_;
  uint64_t cycles_ = 0;
  uint64_t cycles_ok_ = 0;
  uint64_t cycles_degraded_ = 0;
  uint64_t cycles_failed_ = 0;
  uint64_t skipped_no_manifest_ = 0;
  uint64_t skipped_unchanged_ = 0;
  uint64_t overruns_ = 0;
  uint64_t reports_published_ = 0;

  /// The cached /statusz rendering (see StatusJson). Guarded by
  /// status_mutex_, which is only ever held for a copy or a swap —
  /// never across IO or an attack.
  mutable std::mutex status_mutex_;
  std::string status_json_ = "{}";

  /// Daemon thread state.
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
  std::thread thread_;
};

}  // namespace pipeline
}  // namespace randrecon

#endif  // RANDRECON_PIPELINE_ATTACK_SCHEDULER_H_
