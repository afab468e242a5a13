// PipelineRunner: a batch scheduler for streaming attack jobs — the
// multi-tenant "attack service" shape. Many (dataset × noise × attack)
// jobs are sharded across the process thread pool; each job streams its
// own sources in bounded memory, failures are isolated per job, and the
// result order matches the submission order regardless of scheduling.

#ifndef RANDRECON_PIPELINE_RUNNER_H_
#define RANDRECON_PIPELINE_RUNNER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "data/shard_store.h"
#include "perturb/noise_model.h"
#include "pipeline/retry.h"
#include "pipeline/streaming_attack.h"

namespace randrecon {
namespace pipeline {

/// Builds a fresh source per run, so concurrent jobs never share stream
/// cursors. Return a Status to report an unavailable input (missing CSV,
/// bad covariance, ...) — the job fails, the batch continues.
using SourceFactory =
    std::function<Result<std::unique_ptr<RecordSource>>()>;

/// One unit of batch work: attack one disguised stream with one noise
/// model and one attack configuration.
struct PipelineJob {
  /// Display identifier echoed into the result.
  std::string name;
  /// The disguised stream Y (required).
  SourceFactory disguised;
  /// Optional aligned ground-truth stream for rmse_vs_reference.
  SourceFactory reference;
  /// The public noise knowledge handed to the attack.
  perturb::NoiseModel noise = perturb::NoiseModel::IndependentGaussian(1, 1.0);
  /// Attack + chunking configuration.
  StreamingAttackOptions attack;
  /// Where reconstructed chunks go; null means NullChunkSink. Sinks are
  /// per-job (never shared), so no cross-job synchronization is needed.
  std::shared_ptr<ChunkSink> sink;
  /// Retry schedule for transient failures (pipeline/retry.h). The
  /// default (max_attempts = 1) retries nothing. Only retryable errors
  /// (Status::IsRetryable: kUnavailable, kIoError) are retried; a
  /// deterministic failure stops at its first occurrence. CAVEAT: a
  /// retry re-builds the sources (fresh factory call) and re-streams the
  /// WHOLE pipeline into `sink` — a sink that accumulates across runs
  /// would see the failed attempt's partial chunks followed by the
  /// successful attempt's full stream. Enable retries only with a null
  /// sink or one whose Consume is restart-tolerant.
  RetryPolicy retry;
};

/// Outcome of one job.
struct PipelineJobResult {
  std::string name;
  /// OK iff the job ran to completion; the factory/pipeline error
  /// otherwise. When the retry policy's deadline cut retries short this
  /// is kDeadlineExceeded, wrapping the last underlying error.
  Status status;
  /// Valid iff status.ok().
  StreamingAttackReport report;
  /// Runs attempted (1 when the first try settled it; up to
  /// retry.max_attempts).
  int attempts = 0;
  /// Whole-job wall clock, every attempt and backoff included.
  double elapsed_seconds = 0.0;
};

/// Scheduler knobs.
struct PipelineRunnerOptions {
  /// Jobs run concurrently on up to this many workers (0 = auto, i.e.
  /// RANDRECON_THREADS / hardware concurrency). Each job's own kernels
  /// run inline when the batch occupies the pool, so the worker count
  /// never changes any job's numbers — only the wall clock.
  int num_workers = 0;
};

/// Runs every job (failures isolated per job; a malformed job fails, it
/// never aborts the batch) and returns results in submission order.
std::vector<PipelineJobResult> RunPipelineJobs(
    const std::vector<PipelineJob>& jobs,
    const PipelineRunnerOptions& options = {});

/// Job-per-shard decomposition of a sharded store: expands `prototype`
/// into one job per shard of `manifest`, parsed from `manifest_path`.
/// Job k is named "<prototype.name>/shard-<k>" and attacks shard k's
/// records as an independent stream (its own moments, eigenbasis,
/// reconstruction) — the natural unit when shards are separate report
/// logs, and the natural work item for RunPipelineJobs' dynamic
/// scheduling. The prototype's noise, attack and retry options are
/// copied to every shard job; its disguised/reference factories and sink
/// describe a whole-stream job and are deliberately NOT inherited (a
/// per-shard reference or sink needs per-shard alignment the caller must
/// wire explicitly).
///
/// Job k reads data::ShardedStoreReader::ShardView(manifest, k): the
/// shard file is checked against entry k — schema, row count and seal
/// digest — when the job first reads it, so a job attacks exactly the
/// bytes the manifest names. A missing, swapped or corrupt shard fails
/// only its own job, at run time, preserving batch isolation.
///
/// Determinism: each shard job's numbers are a pure function of that
/// shard's bytes (contract 6 — the scheduler never changes numbers), and
/// attacking the WHOLE manifest as one stream remains bitwise identical
/// to the equivalent single-file attack (contract 7) — decomposition is
/// a scheduling choice, never a numerics choice.
std::vector<PipelineJob> MakePerShardJobs(const data::ShardManifest& manifest,
                                          const std::string& manifest_path,
                                          const PipelineJob& prototype);

/// One shard a degraded sweep left out, with enough identity (index,
/// path, row span) for the caller's report to say exactly which records
/// the batch did NOT cover.
struct ShardExclusion {
  size_t shard_index = 0;
  std::string shard_path;
  uint64_t row_begin = 0;
  uint64_t row_count = 0;
  /// Why the shard was excluded — the probe failure, verbatim (missing
  /// file, structural corruption, seal-digest drift, quarantined by
  /// recovery, ...).
  std::string reason;
};

/// A run report's "jobs" array over `jobs` (docs/REPORT_SCHEMA.md) — the
/// one renderer sweep_attack and the attack scheduler share, so
/// tools/check_report.py compares the same bytes.
std::string JobResultsJson(const std::vector<PipelineJobResult>& jobs);

/// One entry of a run report's "exclusions" array: `exclusion`, a shard
/// of the manifest at `manifest_path`.
std::string ShardExclusionJson(const std::string& manifest_path,
                               const ShardExclusion& exclusion);

/// MakePerShardJobsDegraded's output: runnable jobs over the healthy
/// shards plus an explicit account of everything excluded. A degraded
/// sweep NEVER silently narrows — callers must surface DegradedSummary()
/// (or the structured `excluded` list) alongside any aggregate they
/// compute from the jobs.
struct PerShardJobSet {
  std::vector<PipelineJob> jobs;
  /// jobs[i] attacks shard shard_of_job[i] of the manifest.
  std::vector<size_t> shard_of_job;
  std::vector<ShardExclusion> excluded;
  /// Manifest-wide totals, for "covered X of Y" reporting.
  size_t total_shards = 0;
  uint64_t total_rows = 0;
  /// Records the exclusions cover (sum of excluded row_counts).
  uint64_t excluded_rows = 0;
  bool degraded() const { return !excluded.empty(); }
  /// "" when nothing was excluded; otherwise a one-paragraph account
  /// naming every excluded shard, its row span and its reason.
  std::string DegradedSummary() const;
};

/// Degraded-mode job-per-shard decomposition of `manifest` (parsed from
/// `manifest_path`; whatever that path holds now is never re-read, so
/// the jobs and exclusions cover exactly the snapshot the caller has):
/// like MakePerShardJobs, but each shard is probed up front with the
/// same check its job runs (data::ShardedStoreReader::shard on the job's
/// one-shard view: the file opens, and its schema, row count and seal
/// digest match the entry) and shards that fail the probe are skipped
/// with a ShardExclusion instead of producing a job doomed to fail — the
/// batch covers every healthy shard of a store that recovery (or rot)
/// has left partially usable. A shard swapped after the probe still
/// fails its job on the digest. The probe is O(blocks) per shard: block
/// checksums are not verified up front; they guard the jobs' own reads.
PerShardJobSet MakePerShardJobsDegraded(const data::ShardManifest& manifest,
                                        const std::string& manifest_path,
                                        const PipelineJob& prototype);

}  // namespace pipeline
}  // namespace randrecon

#endif  // RANDRECON_PIPELINE_RUNNER_H_
