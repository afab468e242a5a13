#include "pipeline/attack_scheduler.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <utility>

#include "common/failpoint.h"
#include "common/file_io.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/run_report.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "data/byte_codec.h"
#include "data/rolling_store.h"
#include "pipeline/record_source.h"

namespace randrecon {
namespace pipeline {

namespace {

// The publish seams. `sched.publish` fires before the report is even
// rendered to its temp file — killing the process here (crash action)
// is the "died between deciding to publish and publishing" window the
// crash-safety test exercises: on restart the directory scan must hand
// out the SAME version again (no gap, no duplicate). `sched.latest`
// fires before the latest.json rewrite — the pointer going stale is
// non-fatal by contract, repaired on the next publish or Create.
// `sched.after_rename` fires once the report is under its final name;
// an error there stands in for a failed directory fsync, after which
// the version must still be consumed.
Failpoint fp_sched_publish("sched.publish");
Failpoint fp_sched_latest("sched.latest");
Failpoint fp_sched_after_rename("sched.after_rename");

// Per-process scheduler telemetry. The identity
//   scheduler.cycles == cycles_ok + cycles_degraded + cycles_failed
// is kept exact by incrementing outcome counters in the same locked
// region that increments cycles. These are registry-global (shared by
// every scheduler in the process, reset only by a reporting TOOL);
// the per-report series numbers come from the instance counters.
metrics::Counter m_cycles("scheduler.cycles");
metrics::Counter m_cycles_ok("scheduler.cycles_ok");
metrics::Counter m_cycles_degraded("scheduler.cycles_degraded");
metrics::Counter m_cycles_failed("scheduler.cycles_failed");
metrics::Counter m_skipped_no_manifest("scheduler.skipped_no_manifest");
metrics::Counter m_skipped_unchanged("scheduler.skipped_unchanged");
metrics::Counter m_overruns("scheduler.overruns");
metrics::Counter m_reports_published("scheduler.reports_published");
metrics::Counter m_reports_retired("scheduler.reports_retired");
metrics::Gauge g_last_version("scheduler.last_version");
metrics::Gauge g_last_snapshot_rows("scheduler.last_snapshot_rows");
metrics::Histogram h_cycle_nanos("scheduler.cycle_nanos");

/// The report series: report-NNNNNN.json files in `dir`.
FileSeries ReportSeries(const std::string& dir) {
  return FileSeries{dir, "report-", ".json"};
}

/// Rewrites `<dir>/latest.json` to name report `version`.
Status PublishLatestPointer(const FileSeries& reports, uint64_t version) {
  RR_FAILPOINT(fp_sched_latest);
  return WriteFileAtomic(JoinPath(reports.dir, "latest.json"),
                         "{\"version\":" + std::to_string(version) +
                             ",\"path\":\"" + ReportSeries("").Path(version) +
                             "\"}\n");
}

/// Recovers the previous report's snapshot identity from its own JSON
/// (the report_series block this scheduler wrote), so row-delta
/// chaining stays exact across restarts. Substring scanning is safe
/// here because the format is ours: the keys appear exactly once, in
/// the report_series section.
bool RecoverSeriesState(const std::string& path, uint64_t* rows,
                        uint64_t* hash) {
  std::ifstream file(path, std::ios::binary);
  if (!file.is_open()) return false;
  std::string text((std::istreambuf_iterator<char>(file)),
                   std::istreambuf_iterator<char>());
  const size_t series = text.find("\"report_series\":{");
  if (series == std::string::npos) return false;
  static const char kRowsKey[] = "\"snapshot_rows\":";
  static const char kHashKey[] = "\"manifest_hash\":\"";
  const size_t rows_at = text.find(kRowsKey, series);
  const size_t hash_at = text.find(kHashKey, series);
  if (rows_at == std::string::npos || hash_at == std::string::npos) {
    return false;
  }
  *rows = std::strtoull(text.c_str() + rows_at + sizeof(kRowsKey) - 1,
                        nullptr, 10);
  // The rendered digest is "0x%016llx"; base 16 consumes the prefix.
  *hash = std::strtoull(text.c_str() + hash_at + sizeof(kHashKey) - 1,
                        nullptr, 16);
  return true;
}

}  // namespace

const char* CycleOutcomeName(CycleOutcome outcome) {
  switch (outcome) {
    case CycleOutcome::kNotDue:
      return "not_due";
    case CycleOutcome::kSkippedNoManifest:
      return "skipped_no_manifest";
    case CycleOutcome::kSkippedUnchanged:
      return "skipped_unchanged";
    case CycleOutcome::kOk:
      return "ok";
    case CycleOutcome::kDegraded:
      return "degraded";
    case CycleOutcome::kFailed:
      return "failed";
  }
  return "unknown";
}

std::string AttackScheduler::ReportFileName(uint64_t version) {
  return ReportSeries("").Path(version);
}

AttackScheduler::AttackScheduler(std::string manifest_path,
                                 AttackSchedulerOptions options)
    : manifest_path_(std::move(manifest_path)),
      options_(std::move(options)),
      reports_(ReportSeries(options_.report_dir)) {}

AttackScheduler::~AttackScheduler() { Stop(); }

Result<std::unique_ptr<AttackScheduler>> AttackScheduler::Create(
    std::string manifest_path, AttackSchedulerOptions options) {
  if (options.report_dir.empty()) {
    return Status::InvalidArgument(
        "AttackScheduler: report_dir is required — the report directory IS "
        "the series' durable state");
  }
  if (!(options.sigma > 0.0)) {
    return Status::InvalidArgument("AttackScheduler: sigma must be > 0, got " +
                                   report::JsonDouble(options.sigma));
  }
  if (::mkdir(options.report_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError("AttackScheduler: cannot create report dir '" +
                           options.report_dir + "': " + std::strerror(errno));
  }
  std::unique_ptr<AttackScheduler> scheduler(
      new AttackScheduler(std::move(manifest_path), std::move(options)));

  // Recover the version counter from the directory itself — the only
  // source a crash cannot desynchronize from the published files.
  RR_ASSIGN_OR_RETURN(const std::vector<uint64_t> versions,
                      scheduler->reports_.List());
  if (!versions.empty()) {
    const uint64_t max_version = versions.back();
    scheduler->next_version_ = max_version + 1;
    const std::string latest_report = scheduler->reports_.Path(max_version);
    uint64_t rows = 0;
    uint64_t hash = 0;
    if (RecoverSeriesState(latest_report, &rows, &hash)) {
      scheduler->last_published_version_ = max_version;
      scheduler->last_report_rows_ = rows;
      scheduler->last_manifest_hash_ = hash;
      scheduler->have_last_report_ = true;
    } else {
      // Unreadable predecessor: versions still advance past it (no
      // duplicates), but the row-delta chain deliberately restarts —
      // prev_version 0 tells the validator not to cross-check.
      RR_LOG(kWarning) << "AttackScheduler: cannot recover series state from '"
                       << latest_report
                       << "' — row-delta chaining restarts at the next report";
    }
    // A crash between the report rename and the pointer rewrite leaves
    // latest.json one version behind; publishing is already done, so
    // repair is just rewriting the derived pointer.
    const Status repaired =
        PublishLatestPointer(scheduler->reports_, max_version);
    if (!repaired.ok()) {
      RR_LOG(kWarning) << "AttackScheduler: " << repaired.message()
                       << " — latest.json stays stale until the next publish";
    }
  }

  // The first Tick after Create is immediately due (fake clock at t=0
  // included: next_due == now fires).
  scheduler->next_due_ = trace::NowNanos();
  scheduler->UpdateStatusLocked();  // No concurrency yet: Create owns it.
  return scheduler;
}

SchedulerCycleResult AttackScheduler::Tick() {
  std::lock_guard<std::mutex> lock(mutex_);
  const uint64_t now = trace::NowNanos();
  bool due = false;
  if (options_.cadence_nanos > 0 && now >= next_due_) {
    // Every whole cadence slot that passed beyond the one being served
    // was missed — a cycle that overruns its cadence shows up here, with
    // the anchor advanced so the schedule never tries to "catch up" by
    // firing back-to-back.
    const uint64_t missed = (now - next_due_) / options_.cadence_nanos;
    if (missed > 0) {
      overruns_ += missed;
      m_overruns.Add(missed);
    }
    next_due_ += (missed + 1) * options_.cadence_nanos;
    due = true;
  }
  if (!due && options_.min_new_rows > 0) {
    // Cheap trigger probe: parse the manifest, pin nothing, and count
    // the rows of shards the last report did not attack. Not a size
    // delta: retention holds a full window's size constant.
    Result<data::ShardManifest> parsed =
        data::ReadShardManifest(manifest_path_);
    if (parsed.ok()) {
      uint64_t new_rows = 0;
      for (const data::ShardManifestEntry& entry : parsed.value().shards) {
        if (!std::binary_search(attacked_digests_.begin(),
                                attacked_digests_.end(), entry.seal_digest)) {
          new_rows += entry.row_count;
        }
      }
      due = attacked_digests_.empty() || new_rows >= options_.min_new_rows;
    }
  }
  if (!due) {
    UpdateStatusLocked();  // Overruns may have advanced.
    return SchedulerCycleResult{};
  }
  SchedulerCycleResult result = RunCycleTracedLocked();
  UpdateStatusLocked();
  return result;
}

SchedulerCycleResult AttackScheduler::RunCycleNow() {
  std::lock_guard<std::mutex> lock(mutex_);
  SchedulerCycleResult result = RunCycleTracedLocked();
  UpdateStatusLocked();
  return result;
}

SchedulerCycleResult AttackScheduler::RunCycleTracedLocked() {
  if (!options_.trace_cycles) return RunCycleLocked();
  trace::StartTracing();
  SchedulerCycleResult result = RunCycleLocked();
  trace::PushRecentCapture(
      std::string("scheduler.cycle ") + CycleOutcomeName(result.outcome),
      trace::StopTracing());
  return result;
}

SchedulerCycleResult AttackScheduler::RunCycleLocked() {
  Stopwatch watch;
  SchedulerCycleResult result;

  Result<data::ShardManifest> parsed = data::ReadShardManifest(manifest_path_);
  if (!parsed.ok()) {
    result.outcome = CycleOutcome::kSkippedNoManifest;
    result.status = parsed.status();
    ++skipped_no_manifest_;
    m_skipped_no_manifest.Add(1);
    return result;
  }
  // The snapshot attacked: this parse until the job pins its own.
  data::ShardManifest attacked = std::move(parsed).value();
  if (!options_.attack_unchanged && have_last_report_ &&
      attacked.manifest_hash == last_manifest_hash_) {
    result.outcome = CycleOutcome::kSkippedUnchanged;
    ++skipped_unchanged_;
    m_skipped_unchanged.Add(1);
    return result;
  }

  // The snapshot the report names, and the degraded fallback
  // decomposes, MUST be the pinned one: a writer can republish between
  // the parse above and the pin inside the job, and the bitwise contract
  // is against what was actually attacked. The parse is only the
  // fallback for cycles whose factory never got to pin.
  struct PinnedManifest {
    std::mutex mutex;
    bool have = false;
    data::ShardManifest manifest;
  };
  auto pinned = std::make_shared<PinnedManifest>();

  PipelineJob job;
  job.name = manifest_path_;
  job.attack = options_.attack;
  job.noise = perturb::NoiseModel::IndependentGaussian(
      std::max<size_t>(1, attacked.column_names.size()), options_.sigma);
  job.retry = options_.retry;
  const std::string manifest_path = manifest_path_;
  const data::ColumnStoreReadOptions store_options = options_.store_options;
  job.disguised = [manifest_path, store_options,
                   pinned]() -> Result<std::unique_ptr<RecordSource>> {
    RR_ASSIGN_OR_RETURN(
        data::RollingStoreSnapshotReader snapshot,
        data::RollingStoreSnapshotReader::Open(manifest_path, store_options));
    {
      std::lock_guard<std::mutex> lock(pinned->mutex);
      pinned->have = true;
      pinned->manifest = snapshot.manifest();
    }
    return std::unique_ptr<RecordSource>(
        new ShardedRecordSource(std::move(snapshot).ReleaseReader()));
  };

  PipelineRunnerOptions runner_options;
  runner_options.num_workers = options_.num_workers;
  std::vector<PipelineJobResult> whole_results =
      RunPipelineJobs({job}, runner_options);
  PipelineJobResult& whole = whole_results.front();
  {
    std::lock_guard<std::mutex> lock(pinned->mutex);
    if (pinned->have) attacked = std::move(pinned->manifest);
  }
  result.manifest_hash = attacked.manifest_hash;
  result.snapshot_rows = attacked.num_records;
  result.snapshot_shards = attacked.shards.size();

  bool publishable = false;
  if (whole.status.ok()) {
    result.outcome = CycleOutcome::kOk;
    result.report = whole.report;
    result.jobs.push_back(std::move(whole));
    publishable = true;
  } else {
    result.status = whole.status;
    result.jobs.push_back(std::move(whole));
    // The whole-stream job failed past its retries — cover what can
    // be covered of the attacked snapshot and NAME the rest, the sweep
    // driver's discipline.
    PerShardJobSet job_set =
        MakePerShardJobsDegraded(attacked, manifest_path_, job);
    result.excluded = std::move(job_set.excluded);
    if (!job_set.jobs.empty()) {
      std::vector<PipelineJobResult> shard_results =
          RunPipelineJobs(job_set.jobs, runner_options);
      size_t ok_shards = 0;
      for (PipelineJobResult& shard_result : shard_results) {
        if (shard_result.status.ok()) ++ok_shards;
        result.jobs.push_back(std::move(shard_result));
      }
      if (ok_shards > 0) {
        result.outcome = CycleOutcome::kDegraded;
        publishable = true;
      }
    }
  }

  if (publishable) {
    result.rows_since_last_report =
        static_cast<int64_t>(result.snapshot_rows) -
        static_cast<int64_t>(last_report_rows_);
    const Status published = PublishLocked(attacked, &result);
    if (!published.ok()) {
      // The attack succeeded but nothing durable exists — that is a
      // failed cycle, and the version was not consumed.
      result.outcome = CycleOutcome::kFailed;
      result.status = published;
      result.version = 0;
      result.report_path.clear();
    }
  } else {
    result.outcome = CycleOutcome::kFailed;
  }

  ++cycles_;
  m_cycles.Add(1);
  switch (result.outcome) {
    case CycleOutcome::kOk:
      ++cycles_ok_;
      m_cycles_ok.Add(1);
      break;
    case CycleOutcome::kDegraded:
      ++cycles_degraded_;
      m_cycles_degraded.Add(1);
      break;
    default:
      ++cycles_failed_;
      m_cycles_failed.Add(1);
      break;
  }
  h_cycle_nanos.Record(watch.ElapsedNanos());
  return result;
}

Status AttackScheduler::PublishLocked(const data::ShardManifest& attacked,
                                      SchedulerCycleResult* result) {
  const uint64_t version = next_version_;
  const bool degraded = result->outcome == CycleOutcome::kDegraded;
  const std::string path = reports_.Path(version);

  size_t jobs_failed = 0;
  for (const PipelineJobResult& job : result->jobs) {
    if (!job.status.ok()) ++jobs_failed;
  }

  report::RunReportBuilder builder("attack_scheduler");
  builder.AddConfig("manifest", manifest_path_);
  builder.AddConfig("report_dir", options_.report_dir);
  builder.AddConfig("attack",
                    options_.attack.attack == StreamingAttack::kPcaDr ? "pca"
                                                                      : "sf");
  builder.AddConfigDouble("sigma", options_.sigma);
  builder.AddConfigInt("chunk_rows",
                       static_cast<int64_t>(options_.attack.chunk_rows));
  builder.AddConfigInt("cadence_nanos",
                       static_cast<int64_t>(options_.cadence_nanos));
  builder.AddConfigInt("min_new_rows",
                       static_cast<int64_t>(options_.min_new_rows));
  builder.AddConfigInt("retain_reports",
                       static_cast<int64_t>(options_.retain_reports));
  builder.AddConfigInt("version", static_cast<int64_t>(version));
  builder.AddConfigBool("degraded", degraded);
  builder.AddConfigInt("jobs_total", static_cast<int64_t>(result->jobs.size()));
  builder.AddConfigInt("jobs_failed", static_cast<int64_t>(jobs_failed));

  // The job and exclusion renderers sweep_attack uses, so
  // check_report.py shares the parsing (and the bitwise gate compares
  // the %.17g strings).
  builder.AddRawSection("jobs", JobResultsJson(result->jobs));

  std::string exclusions_json = "[";
  for (size_t i = 0; i < result->excluded.size(); ++i) {
    if (i > 0) exclusions_json.append(",");
    exclusions_json.append(
        ShardExclusionJson(manifest_path_, result->excluded[i]));
  }
  exclusions_json.append("]");
  builder.AddRawSection("exclusions", exclusions_json);

  // The series block: the report's identity in the chain. Counters are
  // the PER-INSTANCE values AS OF this cycle committing — computed
  // speculatively here, committed by the caller iff this publish
  // succeeds, so the numbers a published report carries are always the
  // ones that became true.
  const uint64_t series_cycles = cycles_ + 1;
  const uint64_t series_ok = cycles_ok_ + (degraded ? 0 : 1);
  const uint64_t series_degraded = cycles_degraded_ + (degraded ? 1 : 0);
  std::string series_json =
      "{\"version\":" + std::to_string(version) + ",\"manifest\":\"" +
      report::JsonEscape(manifest_path_) + "\",\"manifest_hash\":\"" +
      data::HexU64(result->manifest_hash) +
      "\",\"snapshot_rows\":" + std::to_string(result->snapshot_rows) +
      ",\"snapshot_shards\":" + std::to_string(result->snapshot_shards) +
      ",\"rows_since_last_report\":" +
      std::to_string(result->rows_since_last_report) +
      ",\"prev_version\":" + std::to_string(last_published_version_) +
      ",\"prev_rows\":" + std::to_string(last_report_rows_) +
      ",\"outcome\":\"" + CycleOutcomeName(result->outcome) +
      "\",\"cycles\":" + std::to_string(series_cycles) +
      ",\"cycles_ok\":" + std::to_string(series_ok) +
      ",\"cycles_degraded\":" + std::to_string(series_degraded) +
      ",\"cycles_failed\":" + std::to_string(cycles_failed_) +
      ",\"skipped_no_manifest\":" + std::to_string(skipped_no_manifest_) +
      ",\"skipped_unchanged\":" + std::to_string(skipped_unchanged_) +
      ",\"overruns\":" + std::to_string(overruns_) +
      ",\"reports_published\":" + std::to_string(reports_published_ + 1) + "}";
  builder.AddRawSection("report_series", series_json);

  const Status written = [&]() -> Status {
    RR_FAILPOINT(fp_sched_publish);
    RR_RETURN_NOT_OK(builder.WriteFile(path));
    RR_FAILPOINT(fp_sched_after_rename);
    return Status::OK();
  }();
  // The rename is the commit point: a report visible under its final
  // name consumes its version even when a later step (the directory
  // fsync) failed, or the next cycle would overwrite it.
  if (!written.ok()) {
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) return written;
    RR_LOG_EVERY_N(kWarning, 16) << "AttackScheduler: report '" << path
                                 << "' published but may not be durable: "
                                 << written.message();
  }

  // Commit: the file exists, so the series state may advance.
  result->version = version;
  result->report_path = path;
  next_version_ = version + 1;
  last_published_version_ = version;
  last_manifest_hash_ = result->manifest_hash;
  last_report_rows_ = result->snapshot_rows;
  have_last_report_ = true;
  attacked_digests_.clear();
  for (const data::ShardManifestEntry& entry : attacked.shards) {
    attacked_digests_.push_back(entry.seal_digest);
  }
  std::sort(attacked_digests_.begin(), attacked_digests_.end());
  ++reports_published_;
  m_reports_published.Add(1);
  g_last_version.Set(static_cast<int64_t>(version));
  g_last_snapshot_rows.Set(static_cast<int64_t>(result->snapshot_rows));

  const Status latest = PublishLatestPointer(reports_, version);
  if (!latest.ok()) {
    // Repeats every publish while the condition persists; rate-limited
    // so a long outage cannot melt stderr (the report series itself is
    // unaffected — latest.json is a derived pointer).
    RR_LOG_EVERY_N(kWarning, 16)
        << "AttackScheduler: " << latest.message()
        << " — latest.json stays stale until the next publish";
  }
  // Retire only after the newer report published.
  size_t retired = 0;
  const Status retained =
      reports_.RetainNewest(options_.retain_reports, &retired);
  m_reports_retired.Add(retired);
  if (!retained.ok()) {
    RR_LOG_EVERY_N(kWarning, 16) << "AttackScheduler: " << retained.message();
  }
  return Status::OK();
}

Status AttackScheduler::Start() {
  if (thread_.joinable()) {
    return Status::FailedPrecondition(
        "AttackScheduler: daemon already running");
  }
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stop_requested_ = false;
  }
  thread_ = std::thread([this] { DaemonLoop(); });
  return Status::OK();
}

void AttackScheduler::Stop() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
  thread_.join();
  thread_ = std::thread();
}

void AttackScheduler::DaemonLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(stop_mutex_);
      if (stop_requested_) return;
    }
    Tick();
    std::unique_lock<std::mutex> lock(stop_mutex_);
    stop_cv_.wait_for(lock, std::chrono::nanoseconds(options_.poll_nanos),
                      [this] { return stop_requested_; });
    if (stop_requested_) return;
  }
}

uint64_t AttackScheduler::cycles() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cycles_;
}

uint64_t AttackScheduler::cycles_ok() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cycles_ok_;
}

uint64_t AttackScheduler::cycles_degraded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cycles_degraded_;
}

uint64_t AttackScheduler::cycles_failed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cycles_failed_;
}

uint64_t AttackScheduler::skipped_no_manifest() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return skipped_no_manifest_;
}

uint64_t AttackScheduler::skipped_unchanged() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return skipped_unchanged_;
}

uint64_t AttackScheduler::overruns() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return overruns_;
}

uint64_t AttackScheduler::reports_published() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return reports_published_;
}

uint64_t AttackScheduler::last_published_version() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_published_version_;
}

uint64_t AttackScheduler::next_version() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_version_;
}

void AttackScheduler::UpdateStatusLocked() {
  std::string json = "{";
  json.append("\"manifest\":\"" + report::JsonEscape(manifest_path_) + "\"");
  json.append(",\"report_dir\":\"" +
              report::JsonEscape(options_.report_dir) + "\"");
  json.append(",\"cycles\":" + std::to_string(cycles_));
  json.append(",\"cycles_ok\":" + std::to_string(cycles_ok_));
  json.append(",\"cycles_degraded\":" + std::to_string(cycles_degraded_));
  json.append(",\"cycles_failed\":" + std::to_string(cycles_failed_));
  json.append(",\"skipped_no_manifest\":" +
              std::to_string(skipped_no_manifest_));
  json.append(",\"skipped_unchanged\":" + std::to_string(skipped_unchanged_));
  json.append(",\"overruns\":" + std::to_string(overruns_));
  json.append(",\"reports_published\":" + std::to_string(reports_published_));
  json.append(",\"next_version\":" + std::to_string(next_version_));
  json.append(",\"last_published_version\":" +
              std::to_string(last_published_version_));
  json.append(",\"last_report_rows\":" + std::to_string(last_report_rows_));
  json.append(",\"last_manifest_hash\":\"" +
              (have_last_report_ ? data::HexU64(last_manifest_hash_)
                                 : std::string("")) +
              "\"");
  json.append(",\"have_last_report\":");
  json.append(have_last_report_ ? "true" : "false");
  json.append("}");
  std::lock_guard<std::mutex> lock(status_mutex_);
  status_json_ = std::move(json);
}

std::string AttackScheduler::StatusJson() const {
  std::lock_guard<std::mutex> lock(status_mutex_);
  return status_json_;
}

}  // namespace pipeline
}  // namespace randrecon
