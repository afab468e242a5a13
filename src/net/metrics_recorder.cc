#include "net/metrics_recorder.h"

#include <sys/stat.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace randrecon {
namespace net {
namespace {

// Publication seams, mirroring report.write/report.rename: the CI fault
// matrix and the recorder tests prove a fault at either step leaves the
// previously published series intact and no stray temp behind.
Failpoint fp_recorder_write("recorder.write");      ///< Before the temp write.
Failpoint fp_recorder_publish("recorder.publish");  ///< Before the rename.

// The recorder's own instruments. Incremented strictly AFTER a sample's
// snapshot is captured — the reconciliation contract in the header
// depends on the final sample not observing its own bookkeeping.
metrics::Counter m_samples("recorder.samples");
metrics::Counter m_publish_failures("recorder.publish_failures");
metrics::Counter m_files_published("recorder.files_published");

/// The series: metrics-NNNNNN.jsonl files in `dir`.
FileSeries MetricsSeries(const std::string& dir) {
  return FileSeries{dir, "metrics-", ".jsonl"};
}

}  // namespace

MetricsRecorder::MetricsRecorder(Options options, uint64_t first_index)
    : options_(std::move(options)),
      series_(MetricsSeries(options_.series_dir)),
      first_index_(first_index),
      file_index_(first_index) {}

Result<std::unique_ptr<MetricsRecorder>> MetricsRecorder::Create(
    Options options) {
  if (options.series_dir.empty()) {
    return Status::InvalidArgument("MetricsRecorder: series_dir is required");
  }
  if (options.interval_nanos == 0) {
    return Status::InvalidArgument(
        "MetricsRecorder: interval_nanos must be > 0");
  }
  if (options.samples_per_file == 0) {
    return Status::InvalidArgument(
        "MetricsRecorder: samples_per_file must be > 0");
  }
  if (::mkdir(options.series_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError("MetricsRecorder: cannot create series dir '" +
                           options.series_dir + "': " + std::strerror(errno));
  }
  // Continue the file-index sequence after any previous run — published
  // history is never appended to or overwritten.
  RR_ASSIGN_OR_RETURN(const std::vector<uint64_t> indexes,
                      MetricsSeries(options.series_dir).List());
  std::unique_ptr<MetricsRecorder> recorder(new MetricsRecorder(
      std::move(options), indexes.empty() ? 1 : indexes.back() + 1));
  recorder->next_due_nanos_ =
      trace::NowNanos() + recorder->options_.interval_nanos;
  return recorder;
}

MetricsRecorder::~MetricsRecorder() { Stop(); }

bool MetricsRecorder::Tick() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (closed_) return false;
  const uint64_t now = trace::NowNanos();
  if (now < next_due_nanos_) return false;
  // Re-arm relative to NOW, not the missed slots: after a clock jump
  // (fake-clock tests advance in big steps) the series records one
  // sample of current state, not a backfill of identical ones.
  next_due_nanos_ = now + options_.interval_nanos;
  const Status sampled = SampleNowLocked();
  if (!sampled.ok()) {
    RR_LOG_EVERY_N(kWarning, 16)
        << "MetricsRecorder: sample publish failed: " << sampled.ToString();
  }
  return true;
}

Status MetricsRecorder::SampleNow() {
  std::lock_guard<std::mutex> lock(mutex_);
  return SampleNowLocked();
}

Status MetricsRecorder::SampleNowLocked() {
  // Snapshot FIRST; bump bookkeeping after the publish. See the
  // reconciliation contract in the header.
  const uint64_t now = trace::NowNanos();
  const std::string metrics_json = metrics::SnapshotJson();
  ++seq_;
  std::string line = "{\"seq\":" + std::to_string(seq_) +
                     ",\"t_nanos\":" + std::to_string(now) + ",";
  line.append(metrics_json.substr(1));  // Splice {"counters":... members.
  line.append("\n");
  current_lines_.append(line);
  ++current_samples_;
  const Status published = PublishLocked();
  if (!published.ok()) {
    m_publish_failures.Add(1);
    return published;
  }
  m_samples.Add(1);
  if (current_samples_ >= options_.samples_per_file) {
    // Rotate: the published file is final; the next sample opens the
    // next index.
    ++file_index_;
    current_lines_.clear();
    current_samples_ = 0;
    m_files_published.Add(1);
    const Status retired = series_.RetainNewest(options_.retain_files);
    if (!retired.ok()) {
      RR_LOG_FIRST_N(kWarning, 4) << "MetricsRecorder: " << retired.message();
    }
  }
  return Status::OK();
}

Status MetricsRecorder::PublishLocked() {
  RR_FAILPOINT(fp_recorder_write);
  PublishSeams seams;
  seams.before_rename = &fp_recorder_publish;
  return WriteFileAtomic(series_.Path(file_index_), current_lines_, seams);
}

void MetricsRecorder::Start() {
  std::lock_guard<std::mutex> lock(thread_mutex_);
  if (thread_.joinable()) return;
  stop_requested_ = false;
  thread_ = std::thread([this] {
    while (true) {
      {
        std::lock_guard<std::mutex> lock(thread_mutex_);
        if (stop_requested_) return;
      }
      Tick();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
}

void MetricsRecorder::Stop() {
  {
    std::lock_guard<std::mutex> lock(thread_mutex_);
    stop_requested_ = true;
  }
  if (thread_.joinable()) thread_.join();
}

Status MetricsRecorder::Close() {
  Stop();
  std::lock_guard<std::mutex> lock(mutex_);
  if (closed_) return Status::OK();
  const Status final_sample = SampleNowLocked();
  closed_ = true;
  return final_sample;
}

uint64_t MetricsRecorder::samples() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return seq_;
}

std::vector<std::string> MetricsRecorder::PublishedFiles() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // The directory is the source of truth: a buffered sample whose
  // rename failed has no file, and a file retention missed is still
  // there.
  Result<std::vector<uint64_t>> indexes = series_.List();
  std::vector<std::string> files;
  if (!indexes.ok()) return files;
  for (const uint64_t index : indexes.value()) {
    if (index >= first_index_) files.push_back(series_.Path(index));
  }
  return files;
}

}  // namespace net
}  // namespace randrecon
