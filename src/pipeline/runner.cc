#include "pipeline/runner.h"

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>

#include "common/file_io.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/run_report.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "data/shard_store.h"
#include "pipeline/record_source.h"

namespace randrecon {
namespace pipeline {
namespace {

// Runner telemetry (common/metrics.h). Job counters are exact for any
// worker count: each job increments its own outcome counter exactly
// once, and integer adds commute.
metrics::Counter m_jobs_run("pipeline.jobs_run");
metrics::Counter m_jobs_ok("pipeline.jobs_ok");
metrics::Counter m_jobs_failed("pipeline.jobs_failed");
metrics::Counter m_job_retries("pipeline.job_retries");
metrics::Counter m_deadline_exceeded("pipeline.deadline_exceeded");
metrics::Counter m_shard_probes("pipeline.shard_probes");
metrics::Counter m_shards_excluded("pipeline.shards_excluded");
metrics::Histogram m_job_wall_nanos("pipeline.job_wall_nanos");
metrics::Histogram m_backoff_nanos("pipeline.backoff_nanos");

/// One attempt: build fresh sources, run the pipeline once.
Status RunJobAttempt(const PipelineJob& job, StreamingAttackReport* report) {
  Result<std::unique_ptr<RecordSource>> disguised = job.disguised();
  if (!disguised.ok()) return disguised.status();

  std::unique_ptr<RecordSource> reference;
  if (job.reference) {
    Result<std::unique_ptr<RecordSource>> made = job.reference();
    if (!made.ok()) return made.status();
    reference = std::move(made).value();
  }

  NullChunkSink null_sink;
  ChunkSink* sink = job.sink != nullptr ? job.sink.get() : &null_sink;

  const StreamingAttackPipeline pipeline(job.attack);
  Result<StreamingAttackReport> run = pipeline.Run(
      disguised.value().get(), job.noise, sink, reference.get());
  if (!run.ok()) return run.status();
  *report = std::move(run).value();
  return Status::OK();
}

PipelineJobResult RunOneJobOrThrow(const PipelineJob& job) {
  PipelineJobResult result;
  result.name = job.name;
  trace::TraceSpan job_span("pipeline.job", &m_job_wall_nanos);
  m_jobs_run.Add(1);
  Stopwatch stopwatch;
  auto finish = [&](Status status) {
    (status.ok() ? m_jobs_ok : m_jobs_failed).Add(1);
    if (status.code() == StatusCode::kDeadlineExceeded) {
      m_deadline_exceeded.Add(1);
    }
    result.status = std::move(status);
    result.elapsed_seconds = stopwatch.ElapsedSeconds();
    return result;
  };

  if (!job.disguised) {
    return finish(
        Status::InvalidArgument("PipelineJob: no disguised source factory"));
  }

  const int max_attempts = std::max(job.retry.max_attempts, 1);
  const double deadline = job.retry.deadline_seconds;
  const uint64_t job_key = RetryJobKey(job.name);
  auto deadline_error = [&](const Status& last) {
    return Status::DeadlineExceeded(
        "PipelineJob '" + job.name + "': deadline of " +
        std::to_string(deadline) + "s exceeded after " +
        std::to_string(result.attempts) + " attempt(s); last error: " +
        last.ToString());
  };

  Status last;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (attempt > 1) {
      // Deterministic capped-exponential backoff: the wait for (job,
      // attempt) replays exactly on a rerun (pipeline/retry.h).
      const double backoff = RetryBackoffSeconds(job.retry, job_key, attempt);
      if (deadline > 0.0 &&
          stopwatch.ElapsedSeconds() + backoff >= deadline) {
        return finish(deadline_error(last));
      }
      if (backoff > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      }
      m_job_retries.Add(1);
      m_backoff_nanos.Record(static_cast<uint64_t>(backoff * 1e9));
      RR_LOG(kWarning) << "job '" << job.name << "': attempt " << attempt
                       << " of " << max_attempts << " after "
                       << last.ToString();
    }
    result.attempts = attempt;
    Status status = RunJobAttempt(job, &result.report);
    if (status.ok()) return finish(Status::OK());
    last = std::move(status);
    // Deterministic failures reproduce on every attempt — stop now.
    if (!last.IsRetryable()) break;
    if (deadline > 0.0 && stopwatch.ElapsedSeconds() >= deadline) {
      return finish(deadline_error(last));
    }
  }
  return finish(std::move(last));
}

/// The documented isolation contract covers user-supplied factories and
/// sinks too: an exception escaping one job (e.g. bad_alloc materializing
/// a huge source) must fail that job, not reach the thread pool's
/// catch-all abort or escape RunPipelineJobs.
PipelineJobResult RunOneJob(const PipelineJob& job) {
  try {
    return RunOneJobOrThrow(job);
  } catch (const std::exception& e) {
    m_jobs_failed.Add(1);
    PipelineJobResult result;
    result.name = job.name;
    result.status = Status::FailedPrecondition(
        std::string("PipelineJob: uncaught exception: ") + e.what());
    return result;
  } catch (...) {
    m_jobs_failed.Add(1);
    PipelineJobResult result;
    result.name = job.name;
    result.status =
        Status::FailedPrecondition("PipelineJob: uncaught non-std exception");
    return result;
  }
}

}  // namespace

std::vector<PipelineJobResult> RunPipelineJobs(
    const std::vector<PipelineJob>& jobs,
    const PipelineRunnerOptions& options) {
  std::vector<PipelineJobResult> results(jobs.size());
  if (jobs.empty()) return results;
  // One dynamically-claimed pool task per job, so a single expensive job
  // never serializes the jobs queued behind it. Each body writes only
  // its own result slot, and a job's numbers are deterministic on their
  // own (sources are seeded/rewindable, kernels are thread-count
  // invariant), so the batch output is independent of the worker count
  // and of which worker ran which job.
  ParallelOptions parallel;
  parallel.num_threads = options.num_workers;
  parallel.min_parallel_items = 2;
  ParallelForEach(
      0, jobs.size(), [&](size_t i) { results[i] = RunOneJob(jobs[i]); },
      parallel);
  return results;
}

std::vector<PipelineJob> MakePerShardJobs(const data::ShardManifest& manifest,
                                          const std::string& manifest_path,
                                          const PipelineJob& prototype) {
  const auto shared = std::make_shared<const data::ShardManifest>(manifest);
  std::vector<PipelineJob> jobs;
  jobs.reserve(manifest.shards.size());
  for (size_t s = 0; s < manifest.shards.size(); ++s) {
    PipelineJob job;
    job.name = prototype.name + "/shard-" + std::to_string(s);
    job.noise = prototype.noise;
    job.attack = prototype.attack;
    job.retry = prototype.retry;
    // Each job reads a one-shard view of the manifest, so its first read
    // checks the shard file against entry s — seal digest included — and
    // a missing, swapped or corrupt shard fails just this job.
    job.disguised = [shared, manifest_path,
                     s]() -> Result<std::unique_ptr<RecordSource>> {
      return std::unique_ptr<RecordSource>(
          std::make_unique<ShardedRecordSource>(
              data::ShardedStoreReader::ShardView(*shared, manifest_path, s)));
    };
    jobs.push_back(std::move(job));
  }
  return jobs;
}

namespace {

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace

std::string JobResultsJson(const std::vector<PipelineJobResult>& jobs) {
  std::string json = "[";
  for (size_t i = 0; i < jobs.size(); ++i) {
    const PipelineJobResult& job = jobs[i];
    if (i > 0) json.append(",");
    json.append(
        "{\"name\":\"" + report::JsonEscape(job.name) + "\",\"ok\":" +
        (job.status.ok() ? "true" : "false") + ",\"status\":\"" +
        report::JsonEscape(job.status.ToString()) +
        "\",\"records\":" + std::to_string(job.report.num_records) +
        ",\"attributes\":" + std::to_string(job.report.num_attributes) +
        ",\"components\":" + std::to_string(job.report.num_components) +
        ",\"rmse_vs_disguised\":" +
        report::JsonDouble(job.report.rmse_vs_disguised) +
        ",\"attempts\":" + std::to_string(job.attempts) +
        ",\"elapsed_seconds\":" + report::JsonDouble(job.elapsed_seconds) +
        "}");
  }
  json.append("]");
  return json;
}

std::string ShardExclusionJson(const std::string& manifest_path,
                               const ShardExclusion& exclusion) {
  return "{\"manifest\":\"" + report::JsonEscape(manifest_path) +
         "\",\"shard_index\":" + std::to_string(exclusion.shard_index) +
         ",\"shard_path\":\"" + report::JsonEscape(exclusion.shard_path) +
         "\",\"row_begin\":" + std::to_string(exclusion.row_begin) +
         ",\"row_count\":" + std::to_string(exclusion.row_count) +
         ",\"reason\":\"" + report::JsonEscape(exclusion.reason) + "\"}";
}

std::string PerShardJobSet::DegradedSummary() const {
  if (excluded.empty()) return "";
  std::string summary =
      "degraded sweep: excluded " + std::to_string(excluded.size()) + " of " +
      std::to_string(total_shards) + " shards (" +
      std::to_string(excluded_rows) + " of " + std::to_string(total_rows) +
      " rows not covered):";
  for (const ShardExclusion& exclusion : excluded) {
    summary += "\n  shard " + std::to_string(exclusion.shard_index) + " ('" +
               exclusion.shard_path + "', rows [" +
               std::to_string(exclusion.row_begin) + ", " +
               std::to_string(exclusion.row_begin + exclusion.row_count) +
               ")): " + exclusion.reason;
  }
  return summary;
}

PerShardJobSet MakePerShardJobsDegraded(const data::ShardManifest& manifest,
                                        const std::string& manifest_path,
                                        const PipelineJob& prototype) {
  // Build jobs exactly the way the non-degraded decomposition does (same
  // names, same factories — a healthy store yields the identical batch),
  // then keep only the shards that pass the probe.
  std::vector<PipelineJob> all_jobs =
      MakePerShardJobs(manifest, manifest_path, prototype);
  PerShardJobSet set;
  set.total_shards = manifest.shards.size();
  set.total_rows = manifest.num_records;
  for (size_t s = 0; s < manifest.shards.size(); ++s) {
    const data::ShardManifestEntry& entry = manifest.shards[s];
    data::ShardedStoreReader view =
        data::ShardedStoreReader::ShardView(manifest, manifest_path, s);
    const std::string shard_path = view.shard_path(0);
    m_shard_probes.Add(1);
    Status probed = view.shard(0).status();
    if (probed.ok()) {
      set.jobs.push_back(std::move(all_jobs[s]));
      set.shard_of_job.push_back(s);
      continue;
    }
    // A shard recovery renamed aside is the common cause of a missing
    // file — say so when the quarantined copy is sitting right there.
    if (FileExists(shard_path + kQuarantineFileSuffix)) {
      probed = Status::FailedPrecondition(
          "shard was quarantined by recovery ('" + shard_path +
          kQuarantineFileSuffix + "'); " + probed.ToString());
    }
    ShardExclusion exclusion;
    exclusion.shard_index = s;
    exclusion.shard_path = shard_path;
    exclusion.row_begin = entry.row_begin;
    exclusion.row_count = entry.row_count;
    exclusion.reason = probed.ToString();
    set.excluded_rows += entry.row_count;
    m_shards_excluded.Add(1);
    RR_LOG(kWarning) << "degraded sweep: excluding shard "
                     << exclusion.shard_index << " ('" << exclusion.shard_path
                     << "'): " << exclusion.reason;
    set.excluded.push_back(std::move(exclusion));
  }
  return set;
}

}  // namespace pipeline
}  // namespace randrecon
