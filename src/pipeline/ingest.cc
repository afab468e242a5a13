#include "pipeline/ingest.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace randrecon {
namespace pipeline {
namespace {

// Ingest telemetry (common/metrics.h). The accounting identity
// `offered == appended + shed` (batches and rows) is exact at Close —
// every counter below ticks exactly once per batch outcome — and
// tools/check_report.py refuses any ingest run report that breaks it.
// The shed_* counters partition ingest.shed by cause.
metrics::Counter m_offered("ingest.offered");
metrics::Counter m_appended("ingest.appended");
metrics::Counter m_shed("ingest.shed");
metrics::Counter m_shed_admission("ingest.shed_admission");
metrics::Counter m_shed_expired("ingest.shed_expired");
metrics::Counter m_shed_store_error("ingest.shed_store_error");
metrics::Counter m_rows_offered("ingest.rows_offered");
metrics::Counter m_rows_appended("ingest.rows_appended");
metrics::Counter m_rows_shed("ingest.rows_shed");
metrics::Gauge g_queue_depth("ingest.queue_depth");
metrics::Histogram h_push_block("ingest.queue_push_block_nanos");
metrics::Histogram h_pop_block("ingest.queue_pop_block_nanos");
metrics::Histogram h_append("ingest.append_nanos");

BoundedQueueInstruments QueueInstruments() {
  BoundedQueueInstruments instruments;
  instruments.depth = &g_queue_depth;
  instruments.push_block_nanos = &h_push_block;
  instruments.pop_block_nanos = &h_pop_block;
  return instruments;
}

}  // namespace

IngestService::IngestService(data::RollingShardedStoreWriter writer,
                             IngestOptions options)
    : options_(options),
      writer_(std::move(writer)),
      queue_(options.queue_batches, QueueInstruments()) {}

Result<std::unique_ptr<IngestService>> IngestService::Start(
    const std::string& manifest_path, std::vector<std::string> column_names,
    IngestOptions options) {
  if (options.queue_batches == 0) {
    return Status::InvalidArgument("ingest '" + manifest_path +
                                   "': queue_batches must be >= 1");
  }
  RR_ASSIGN_OR_RETURN(data::RollingShardedStoreWriter writer,
                      data::RollingShardedStoreWriter::Create(
                          manifest_path, std::move(column_names),
                          options.store));
  // No make_unique: the constructor is private.
  std::unique_ptr<IngestService> service(
      new IngestService(std::move(writer), options));
  service->writer_thread_ =
      std::thread(&IngestService::WriterLoop, service.get());
  return service;
}

IngestService::~IngestService() {
  Close();  // Best-effort; errors surface via explicit Close().
}

const std::string& IngestService::manifest_path() const {
  // Immutable after construction, so safe from any thread.
  return writer_.manifest_path();
}

void IngestService::CountShed(size_t num_rows) {
  batches_shed_.fetch_add(1, std::memory_order_relaxed);
  rows_shed_.fetch_add(num_rows, std::memory_order_relaxed);
  m_shed.Add(1);
  m_rows_shed.Add(num_rows);
}

Status IngestService::Offer(const linalg::Matrix& chunk, size_t num_rows,
                            uint64_t deadline_nanos) {
  if (closed_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("ingest '" + manifest_path() +
                                      "': Offer after Close");
  }
  {
    std::lock_guard<std::mutex> lock(error_mutex_);
    if (!error_.ok()) return error_;
  }
  const size_t m = writer_.num_attributes();
  if (chunk.cols() != m) {
    return Status::InvalidArgument(
        "ingest '" + manifest_path() + "': chunk has " +
        std::to_string(chunk.cols()) + " columns, store has " +
        std::to_string(m));
  }
  RR_CHECK(num_rows <= chunk.rows())
      << "IngestService::Offer: num_rows exceeds chunk";
  // From here the batch is OFFERED: whatever happens next counts as
  // exactly one of appended / shed.
  batches_offered_.fetch_add(1, std::memory_order_relaxed);
  rows_offered_.fetch_add(num_rows, std::memory_order_relaxed);
  m_offered.Add(1);
  m_rows_offered.Add(num_rows);

  Batch batch;
  batch.num_rows = num_rows;
  batch.deadline_nanos = deadline_nanos;
  batch.rows = linalg::Matrix(num_rows, m);
  std::memcpy(batch.rows.data(), chunk.data(),
              num_rows * m * sizeof(double));

  // Admission is bounded by the tighter of the service's admission
  // timeout and the batch's own deadline; with neither, a full queue
  // sheds immediately (pure try semantics). Never block forever.
  bool bounded = false;
  uint64_t admission_deadline = 0;
  if (options_.admission_timeout_nanos > 0) {
    admission_deadline = trace::NowNanos() + options_.admission_timeout_nanos;
    bounded = true;
  }
  if (deadline_nanos != 0) {
    admission_deadline =
        bounded ? std::min(admission_deadline, deadline_nanos)
                : deadline_nanos;
    bounded = true;
  }
  const QueueOpResult pushed =
      bounded ? queue_.PushUntil(std::move(batch), admission_deadline)
              : queue_.TryPush(std::move(batch));
  switch (pushed) {
    case QueueOpResult::kOk:
      return Status::OK();
    case QueueOpResult::kFull:
    case QueueOpResult::kTimedOut: {
      CountShed(num_rows);
      m_shed_admission.Add(1);
      // Overload sheds thousands of batches per second; rate-limited so
      // the shed path stays cheap and stderr stays readable (the exact
      // totals live in the counters, not the log).
      RR_LOG_EVERY_N(kWarning, 64)
          << "ingest '" << manifest_path() << "': batch of " << num_rows
          << " rows shed at admission (queue full)";
      return Status::Unavailable(
          "ingest '" + manifest_path() +
          "': queue full past the admission deadline — batch shed, retry "
          "with backoff");
    }
    case QueueOpResult::kClosed:
      // Raced a Close() that won after our closed_ check. The batch was
      // counted offered, so it must be counted shed — never silent.
      CountShed(num_rows);
      m_shed_admission.Add(1);
      return Status::FailedPrecondition("ingest '" + manifest_path() +
                                        "': Offer after Close");
    case QueueOpResult::kEmpty:
      break;  // Unreachable for a push.
  }
  RR_CHECK(false) << "IngestService::Offer: impossible queue result";
  return Status::OK();
}

void IngestService::WriterLoop() {
  Batch batch;
  while (queue_.Pop(&batch) == QueueOpResult::kOk) {
    // A deadline that expired while the batch sat in the queue sheds it
    // HERE, at dequeue: the write must start before the deadline or not
    // at all.
    if (batch.deadline_nanos != 0 &&
        trace::NowNanos() >= batch.deadline_nanos) {
      CountShed(batch.num_rows);
      m_shed_expired.Add(1);
      RR_LOG_EVERY_N(kWarning, 64)
          << "ingest '" << manifest_path() << "': batch of "
          << batch.num_rows << " rows shed — deadline expired in queue";
      continue;
    }
    // Once the store errored sticky, remaining batches shed (counted)
    // instead of piling more errors onto a dead store.
    {
      std::lock_guard<std::mutex> lock(error_mutex_);
      if (!error_.ok()) {
        CountShed(batch.num_rows);
        m_shed_store_error.Add(1);
        // The sticky error repeats for every remaining batch; the first
        // few lines say everything.
        RR_LOG_FIRST_N(kWarning, 4)
            << "ingest '" << manifest_path()
            << "': batch shed — store already failed: " << error_.ToString();
        continue;
      }
    }
    Status appended;
    Status published;
    {
      trace::TraceSpan span("ingest.append", &h_append);
      appended = writer_.Append(batch.rows, batch.num_rows);
      if (appended.ok()) published = writer_.Publish();
    }
    // A failed Append is sticky in the writer, so none of this batch's
    // rows is ever published: the batch is shed. A failed Publish comes
    // after the whole batch is in the store (Close publishes it), so the
    // batch counts as appended and only the error sticks.
    if (!appended.ok() || !published.ok()) {
      std::lock_guard<std::mutex> lock(error_mutex_);
      if (error_.ok()) error_ = appended.ok() ? published : appended;
    }
    if (!appended.ok()) {
      CountShed(batch.num_rows);
      m_shed_store_error.Add(1);
      continue;
    }
    batches_appended_.fetch_add(1, std::memory_order_relaxed);
    rows_appended_.fetch_add(batch.num_rows, std::memory_order_relaxed);
    m_appended.Add(1);
    m_rows_appended.Add(batch.num_rows);
  }
  // Closed and drained: final rotation + manifest publish.
  const Status closed = writer_.Close();
  if (!closed.ok()) {
    std::lock_guard<std::mutex> lock(error_mutex_);
    if (error_.ok()) error_ = closed;
  }
}

Status IngestService::Close() {
  const bool already = closed_.exchange(true, std::memory_order_acq_rel);
  if (!already) {
    queue_.Close();
    if (writer_thread_.joinable()) writer_thread_.join();
  }
  std::lock_guard<std::mutex> lock(error_mutex_);
  return error_;
}

IngestStats IngestService::stats() const {
  IngestStats stats;
  stats.batches_offered = batches_offered_.load(std::memory_order_relaxed);
  stats.batches_appended = batches_appended_.load(std::memory_order_relaxed);
  stats.batches_shed = batches_shed_.load(std::memory_order_relaxed);
  stats.rows_offered = rows_offered_.load(std::memory_order_relaxed);
  stats.rows_appended = rows_appended_.load(std::memory_order_relaxed);
  stats.rows_shed = rows_shed_.load(std::memory_order_relaxed);
  return stats;
}

std::string IngestService::StatusJson() const {
  const IngestStats momentary = stats();
  std::string json = "{";
  json.append("\"queue_depth\":" + std::to_string(queue_.size()));
  json.append(",\"queue_capacity\":" +
              std::to_string(options_.queue_batches));
  json.append(",\"closed\":");
  json.append(closed_.load(std::memory_order_relaxed) ? "true" : "false");
  json.append(",\"batches_offered\":" +
              std::to_string(momentary.batches_offered));
  json.append(",\"batches_appended\":" +
              std::to_string(momentary.batches_appended));
  json.append(",\"batches_shed\":" + std::to_string(momentary.batches_shed));
  json.append(",\"rows_offered\":" + std::to_string(momentary.rows_offered));
  json.append(",\"rows_appended\":" +
              std::to_string(momentary.rows_appended));
  json.append(",\"rows_shed\":" + std::to_string(momentary.rows_shed));
  json.append("}");
  return json;
}

}  // namespace pipeline
}  // namespace randrecon
