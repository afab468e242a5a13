// The open loop: producers offer on a fixed schedule that never slows
// when the system does, while a scheduler thread ticks the AttackScheduler
// and a MetricsRecorder samples the registry at its default interval.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "bench.h"
#include "common/trace.h"
#include "data/rolling_store.h"
#include "data/shard_store.h"
#include "net/metrics_recorder.h"
#include "pipeline/attack_scheduler.h"
#include "pipeline/chunk_sink.h"
#include "pipeline/ingest.h"

namespace perfbench {

namespace data = randrecon::data;
namespace pipeline = randrecon::pipeline;
namespace trace = randrecon::trace;

namespace {

// Queue room for about a quarter second of offered batches, so a cycle's
// burst on the shared cores delays the writer without shedding.
constexpr size_t kQueueBatches = 1024;

void SleepUntilNanos(uint64_t due) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(due)));
}

/// The N of "<stem>.shard-N.rrcs".
uint64_t ShardIndex(const std::string& relative_path) {
  const size_t at = relative_path.rfind(".shard-");
  if (at == std::string::npos) Die("unexpected shard name " + relative_path);
  return std::strtoull(relative_path.c_str() + at + 7, nullptr, 10);
}

bool Attacked(pipeline::CycleOutcome outcome) {
  return outcome == pipeline::CycleOutcome::kOk ||
         outcome == pipeline::CycleOutcome::kDegraded ||
         outcome == pipeline::CycleOutcome::kFailed;
}

/// Splits the newest traced cycle's pipeline.job span around its attack
/// stage spans: pin (job start to the first stage), the stages, release
/// (last stage to job end), and the cycle time outside the job.
void RecordCycleSpans(double cycle_ms, OpenLoopOutcome* outcome) {
  const std::vector<trace::RecentCapture> captures = trace::RecentCaptures(1);
  if (captures.empty()) return;
  const trace::Span* job = nullptr;
  uint64_t first_stage = ~uint64_t{0}, last_stage_end = 0, stages_ns = 0;
  for (const trace::Span& span : captures.front().spans) {
    if (span.name == "pipeline.job") job = &span;
    if (span.name.rfind("attack.", 0) != 0) continue;
    first_stage = std::min(first_stage, span.start_nanos);
    last_stage_end =
        std::max(last_stage_end, span.start_nanos + span.duration_nanos);
    stages_ns += span.duration_nanos;
  }
  if (job == nullptr || stages_ns == 0) return;
  const double job_ms = static_cast<double>(job->duration_nanos) * 1e-6;
  outcome->sched_job_ms.Add(job_ms);
  outcome->sched_pin_ms.Add(
      static_cast<double>(first_stage - job->start_nanos) * 1e-6);
  outcome->sched_release_ms.Add(
      static_cast<double>(job->start_nanos + job->duration_nanos -
                          last_stage_end) *
      1e-6);
  outcome->sched_other_ms.Add(cycle_ms - job_ms);
  outcome->sched_coverage.Add(static_cast<double>(stages_ns) * 1e-6 /
                              cycle_ms);
}

}  // namespace

OpenLoopOutcome RunOpenLoop(const Population& population,
                            const std::vector<Matrix>& pool,
                            const OpenLoopConfig& config, Results* results) {
  ResetDir(config.dir);
  const std::string manifest = config.dir + "/live.rrcm";

  pipeline::IngestOptions ingest_options;
  ingest_options.queue_batches = kQueueBatches;
  ingest_options.store.shard_rows = kShardRows;
  ingest_options.store.retain_rows = config.retain_rows;
  auto started = pipeline::IngestService::Start(
      manifest, ColumnNames(config.m), ingest_options);
  if (!started.ok()) Die("ingest start: " + started.status().ToString());
  std::unique_ptr<pipeline::IngestService> service =
      std::move(started).value();

  // The rows trigger compares snapshot sizes, and retention holds the
  // published window near retain_rows, so once the window is full it
  // never fires again. The cadence trigger stands in for it: one shard's
  // worth of time at the offered rate.
  pipeline::AttackSchedulerOptions scheduler_options;
  scheduler_options.min_new_rows = kShardRows;
  scheduler_options.cadence_nanos = static_cast<uint64_t>(
      static_cast<double>(kShardRows) / config.rows_per_s * 1e9);
  scheduler_options.sigma = population.sigma;
  scheduler_options.attack = AttackOptions();
  scheduler_options.report_dir = config.dir + "/reports";
  scheduler_options.retain_reports = 8;
  scheduler_options.trace_cycles = config.traced;
  auto scheduled =
      pipeline::AttackScheduler::Create(manifest, scheduler_options);
  if (!scheduled.ok()) Die("scheduler: " + scheduled.status().ToString());
  std::unique_ptr<pipeline::AttackScheduler> scheduler =
      std::move(scheduled).value();

  randrecon::net::MetricsRecorder::Options recorder_options;
  recorder_options.series_dir = config.dir + "/metrics";
  auto recorded = randrecon::net::MetricsRecorder::Create(recorder_options);
  if (!recorded.ok()) Die("recorder: " + recorded.status().ToString());
  std::unique_ptr<randrecon::net::MetricsRecorder> recorder =
      std::move(recorded).value();
  recorder->Start();

  // The schedule: batch i is due at start + i * period, whatever happened
  // to batch i - 1. Offers and cycles count once the store holds its
  // retention window (warm-up) and until `seconds` later.
  OpenLoopOutcome outcome;
  const double period_ns =
      static_cast<double>(kOfferRows) / config.rows_per_s * 1e9;
  const double warmup_s =
      static_cast<double>(config.retain_rows + 2 * kShardRows) /
      config.rows_per_s;
  const size_t total_batches = static_cast<size_t>(
      std::ceil((warmup_s + config.seconds) / (period_ns * 1e-9)));
  const uint64_t start = NowNanos() + 20 * 1000 * 1000;
  const uint64_t window_begin = start + static_cast<uint64_t>(warmup_s * 1e9);
  const uint64_t window_end =
      window_begin + static_cast<uint64_t>(config.seconds * 1e9);
  auto in_window = [&](uint64_t t) {
    return t >= window_begin && t < window_end;
  };
  const uint64_t push_before = HistogramSum("ingest.queue_push_block_nanos");
  const uint64_t append_before = HistogramSum("ingest.append_nanos");

  OpenLoopOutcome per_producer[2];
  auto producer = [&](size_t k) {
    OpenLoopOutcome& mine = per_producer[k];
    for (size_t i = k; i < total_batches; i += 2) {
      const uint64_t due =
          start + static_cast<uint64_t>(static_cast<double>(i) * period_ns);
      SleepUntilNanos(due);
      const uint64_t call = NowNanos();
      // A shed batch is counted by the service's own accounting.
      (void)service->Offer(pool[i % pool.size()], kOfferRows);
      const uint64_t done = NowNanos();
      if (!in_window(due)) continue;
      mine.offer_us.Add(static_cast<double>(done - due) * 1e-3);
      mine.late_us.Add(static_cast<double>(call - due) * 1e-3);
      mine.offer_call_ns.Add(static_cast<double>(done - call));
    }
  };

  std::atomic<bool> stop_ticking{false};
  pipeline::SchedulerCycleResult last_ok;
  bool have_last = false;
  auto ticker = [&] {
    while (!stop_ticking.load()) {
      if (config.traced) {
        const uint64_t pin_begin = NowNanos();
        auto pinned = data::RollingStoreSnapshotReader::Open(manifest);
        if (pinned.ok()) {
          outcome.pin_ms.Add(static_cast<double>(NowNanos() - pin_begin) *
                             1e-6);
        }
      }
      // The newest row the next cycle can see: shards carry a monotonic
      // index in their names and each holds exactly kShardRows rows.
      uint64_t visible_hash = 0, visible_rows = 0;
      auto visible = data::ReadShardManifest(manifest);
      if (visible.ok() && !visible.value().shards.empty()) {
        visible_hash = visible.value().manifest_hash;
        visible_rows =
            (ShardIndex(visible.value().shards.back().relative_path) + 1) *
            kShardRows;
      }
      const uint64_t begin = NowNanos();
      pipeline::SchedulerCycleResult cycle = scheduler->Tick();
      const uint64_t end = NowNanos();
      if (!Attacked(cycle.outcome)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      const double cycle_ms = static_cast<double>(end - begin) * 1e-6;
      if (in_window(begin)) {
        outcome.cycle_ms.Add(cycle_ms);
        outcome.cycle_rows_per_s.Add(static_cast<double>(cycle.snapshot_rows) /
                                     (cycle_ms * 1e-3));
        if (cycle.manifest_hash == visible_hash && visible_rows > 0) {
          const uint64_t newest_due =
              start + static_cast<uint64_t>(
                          static_cast<double>(visible_rows / kOfferRows -
                                              1) *
                          period_ns);
          outcome.report_lag_s.Add(static_cast<double>(end - newest_due) *
                                   1e-9);
        }
        if (config.traced) {
          RecordCycleSpans(cycle_ms, &outcome);
          std::error_code error;
          const auto bytes =
              std::filesystem::file_size(cycle.report_path, error);
          if (!error) outcome.report_bytes.Add(static_cast<double>(bytes));
        }
      }
      if (cycle.outcome == pipeline::CycleOutcome::kOk) {
        last_ok = std::move(cycle);
        have_last = true;
      }
    }
  };

  std::thread ticker_thread(ticker);
  std::thread first(producer, 0);
  std::thread second(producer, 1);
  first.join();
  second.join();
  const randrecon::Status closed = service->Close();
  const uint64_t closed_at = NowNanos();
  stop_ticking.store(true);
  ticker_thread.join();
  results->Check(closed.ok(), "ingest close: " + closed.ToString());

  // The final cycle attacks the final snapshot (skipped when the last
  // report already covers it).
  pipeline::SchedulerCycleResult final_cycle = scheduler->RunCycleNow();
  if (final_cycle.outcome == pipeline::CycleOutcome::kOk) {
    last_ok = std::move(final_cycle);
    have_last = true;
  }
  const randrecon::Status recorder_closed = recorder->Close();
  results->Check(recorder_closed.ok(),
                 "recorder close: " + recorder_closed.ToString());

  for (OpenLoopOutcome& mine : per_producer) {
    for (double v : mine.offer_us.values()) outcome.offer_us.Add(v);
    for (double v : mine.late_us.values()) outcome.late_us.Add(v);
    for (double v : mine.offer_call_ns.values()) outcome.offer_call_ns.Add(v);
  }
  const pipeline::IngestStats stats = service->stats();
  outcome.batches_offered = stats.batches_offered;
  outcome.batches_shed = stats.batches_shed;
  outcome.wall_s = static_cast<double>(closed_at - start) * 1e-9;
  outcome.load_rows_per_s =
      static_cast<double>(stats.rows_appended) / outcome.wall_s;
  outcome.push_block_ns =
      HistogramSum("ingest.queue_push_block_nanos") - push_before;
  outcome.append_ns = HistogramSum("ingest.append_nanos") - append_before;
  outcome.cycles = scheduler->cycles();
  outcome.cycles_ok = scheduler->cycles_ok();
  outcome.cycles_degraded = scheduler->cycles_degraded();
  outcome.cycles_failed = scheduler->cycles_failed();

  results->Check(stats.batches_offered ==
                         stats.batches_appended + stats.batches_shed &&
                     stats.rows_offered ==
                         stats.rows_appended + stats.rows_shed,
                 "open loop: offered == appended + shed");
  results->Check(outcome.cycles == outcome.cycles_ok +
                                       outcome.cycles_degraded +
                                       outcome.cycles_failed,
                 "open loop: cycles == ok + degraded + failed");
  results->Operations(outcome.batches_offered + outcome.cycles,
                      outcome.batches_shed + outcome.cycles_degraded +
                          outcome.cycles_failed);
  std::printf("open loop m=%zu: %llu batches offered, %llu shed; %llu cycles "
              "(%llu ok), %zu in window; %.1f s\n",
              config.m, static_cast<unsigned long long>(stats.batches_offered),
              static_cast<unsigned long long>(stats.batches_shed),
              static_cast<unsigned long long>(outcome.cycles),
              static_cast<unsigned long long>(outcome.cycles_ok),
              outcome.cycle_ms.count(),
              static_cast<double>(NowNanos() - start) * 1e-9);

  // The last report must equal a direct attack on the final snapshot.
  if (results->Check(have_last, "open loop published a report")) {
    CheckAttackQuality(population, last_ok.report, "open loop", results);
    auto parsed = data::ReadShardManifest(manifest);
    results->Check(parsed.ok() &&
                       parsed.value().manifest_hash == last_ok.manifest_hash,
                   "last report names the final snapshot");
    auto opened = pipeline::ShardedRecordSource::Open(manifest);
    if (!opened.ok()) Die("final snapshot: " + opened.status().ToString());
    pipeline::ShardedRecordSource source = std::move(opened).value();
    pipeline::NullChunkSink sink;
    auto direct = pipeline::StreamingAttackPipeline(AttackOptions())
                      .Run(&source, population.noise(), &sink);
    results->Check(direct.ok() && BitwiseEqual(direct.value(), last_ok.report),
                   "last report is bitwise equal to a direct attack on the "
                   "final snapshot");
  }
  return outcome;
}

void ReportOpenLoopLayers(const OpenLoopOutcome& outcome, Results* results) {
  results->Percentile("loadgen.late_p99_us", outcome.late_us, 99, 1.0, "us");
  results->Metric("source.pin_ms", outcome.pin_ms.Median(), "ms",
                  "(live manifest, n=" +
                      std::to_string(outcome.pin_ms.count()) + ")");
  results->Percentile("sched.pin_ms", outcome.sched_pin_ms, 50, 1.0, "ms");
  results->Percentile("sched.job_ms", outcome.sched_job_ms, 50, 1.0, "ms");
  results->Percentile("sched.release_ms", outcome.sched_release_ms, 50, 1.0,
                      "ms");
  results->Percentile("sched.other_ms", outcome.sched_other_ms, 50, 1.0,
                      "ms");
  results->Percentile("sched.coverage", outcome.sched_coverage, 50, 1.0,
                      "ratio");
  results->Percentile("sched.report_bytes", outcome.report_bytes, 50, 1.0,
                      "B");
}

}  // namespace perfbench
