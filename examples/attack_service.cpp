// The attack service in one process: continuous ingest into a rolling
// sharded store on one side, the AttackScheduler daemon re-running the
// SF / PCA-DR reconstruction over every published snapshot on the
// other. The scheduler emits a monotonically versioned report series
// (report-NNNNNN.json + latest.json) into --reports, which
// tools/check_report.py --series validates end to end.
//
//   attack_service                                  # demo with default knobs
//   attack_service --store=live.rrcm --reports=reports --producers=4
//   attack_service --fake_clock=true --shards=6     # deterministic harness
//   attack_service --stats_port=0 --metrics_series=metrics \
//                  --report=run.json --serve_ms=30000
//
// Two modes:
//
//   * Real time (default): IngestService producers offer batches under
//     admission control while the scheduler's background thread ticks
//     on its poll. How many cycles land is timing-dependent; every
//     published report is still a consistent sealed snapshot.
//   * --fake_clock=true: the deterministic harness CI smokes. A
//     synchronous rolling writer publishes one shard at a time; after
//     every publish the injected clock advances one cadence and the
//     scheduler Ticks — no daemon thread, no sleeps, no timing
//     dependence. The resulting series is bit-for-bit reproducible,
//     and each report's attack numbers are bitwise identical to an
//     offline sweep_attack run over the same snapshot (CI compares
//     them through check_report.py).
//
// The live introspection plane (all optional, docs/OBSERVABILITY.md):
//
//   * --stats_port=N  binds the stats server on 127.0.0.1:N (0 picks an
//     ephemeral port; the chosen one is printed as "stats server
//     listening on 127.0.0.1:PORT"). /healthz /varz /metricsz /statusz
//     /tracez; the scheduler (and, live mode, the ingest service)
//     publish /statusz sections, and cycles run traced so /tracez
//     shows recent span trees. Scraping observes, never perturbs: the
//     report series is bitwise identical under scrape load
//     (tests/net/scrape_under_load_test.cc).
//   * --metrics_series=DIR  runs a MetricsRecorder appending periodic
//     registry snapshots to crash-safe metrics-NNNNNN.jsonl files. In
//     fake-clock mode the recorder Ticks on the same injected clock as
//     the scheduler (deterministic cadence); live mode samples on a
//     background thread.
//   * --report=PATH  writes an attack_service run report at the end.
//     Ordering is the reconciliation contract: quiesce, write the
//     report, then Close() the recorder — so the final time-series
//     sample agrees EXACTLY with the report's counters
//     (tools/check_timeseries.py --series DIR --report PATH gates it).
//   * --serve_ms=N  keeps serving stats for up to N ms after the run
//     (or until SIGTERM/SIGINT), announced by "run complete; serving
//     stats" — scrape only after that line to see reconciled state.
//
// Exits non-zero on any failed cycle, a violated attribution identity
// (cycles != ok + degraded + failed), or a store/scheduler error.

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/build_info.h"
#include "common/flags.h"
#include "common/metrics.h"
#include "common/run_report.h"
#include "common/trace.h"
#include "data/byte_codec.h"
#include "data/rolling_store.h"
#include "net/metrics_recorder.h"
#include "net/stats_server.h"
#include "pipeline/attack_scheduler.h"
#include "pipeline/ingest.h"
#include "stats/rng.h"

using namespace randrecon;  // NOLINT(build/namespaces): example code.

namespace {

volatile std::sig_atomic_t g_interrupted = 0;

void HandleSignal(int) { g_interrupted = 1; }

/// The optional introspection plane, parsed once in main.
struct IntrospectionOptions {
  int stats_port = -1;              ///< -1 disables; 0 = ephemeral.
  std::string metrics_series;       ///< Empty disables the recorder.
  uint64_t metrics_interval_nanos = 1000000;  ///< 1ms default cadence.
  std::string report_path;          ///< Empty disables the run report.
  uint64_t serve_ms = 0;            ///< Post-run serve window.
};

/// Batch `index` of producer `producer` — the same substream keying as
/// ingest_load, so offered rows are reproducible across runs and modes.
linalg::Matrix ProducerBatch(uint64_t seed, size_t producer, size_t index,
                             size_t rows, size_t cols) {
  stats::Rng rng(seed * 1000003ull + producer * 131ull + index);
  return rng.GaussianMatrix(rows, cols);
}

void PrintCycle(const pipeline::SchedulerCycleResult& result) {
  if (result.outcome == pipeline::CycleOutcome::kNotDue) return;
  std::printf("cycle -> %s", pipeline::CycleOutcomeName(result.outcome));
  if (result.version > 0) {
    std::printf(" (report %llu: %llu rows in %zu shard(s), hash %s)",
                static_cast<unsigned long long>(result.version),
                static_cast<unsigned long long>(result.snapshot_rows),
                result.snapshot_shards,
                data::HexU64(result.manifest_hash).c_str());
  } else if (!result.status.ok()) {
    std::printf(" (%s)", result.status.ToString().c_str());
  }
  std::printf("\n");
}

/// Starts the stats server when enabled and prints the port line the CI
/// smoke parses. Returns false on a bind failure (fatal).
bool StartStats(const IntrospectionOptions& intro,
                pipeline::AttackScheduler* scheduler,
                std::unique_ptr<net::StatsServer>* server) {
  if (intro.stats_port < 0) return true;
  net::StatsServer::Options options;
  options.port = static_cast<uint16_t>(intro.stats_port);
  auto started = net::StatsServer::Start(options);
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.status().ToString().c_str());
    return false;
  }
  *server = std::move(started).value();
  (*server)->AddStatusSection(
      "scheduler", [scheduler] { return scheduler->StatusJson(); });
  std::printf("stats server listening on 127.0.0.1:%d\n", (*server)->port());
  std::fflush(stdout);
  return true;
}

/// Creates the metrics recorder when enabled. Returns false on a series
/// directory failure (fatal).
bool StartRecorder(const IntrospectionOptions& intro,
                   std::unique_ptr<net::MetricsRecorder>* recorder) {
  if (intro.metrics_series.empty()) return true;
  net::MetricsRecorder::Options options;
  options.series_dir = intro.metrics_series;
  options.interval_nanos = intro.metrics_interval_nanos;
  auto created = net::MetricsRecorder::Create(options);
  if (!created.ok()) {
    std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
    return false;
  }
  *recorder = std::move(created).value();
  return true;
}

/// Writes the run report (when enabled). MUST run after the last unit
/// of instrumented work and BEFORE MetricsRecorder::Close(), so the
/// recorder's final sample sees exactly the state the report captured.
int WriteRunReport(const IntrospectionOptions& intro, bool fake_clock,
                   pipeline::AttackScheduler* scheduler) {
  if (intro.report_path.empty()) return 0;
  report::RunReportBuilder builder("attack_service");
  builder.AddConfigBool("fake_clock", fake_clock);
  builder.AddConfig("reports", scheduler->report_dir());
  builder.AddConfigInt("cycles", static_cast<int64_t>(scheduler->cycles()));
  builder.AddConfigInt(
      "reports_published",
      static_cast<int64_t>(scheduler->reports_published()));
  builder.AddRawSection("scheduler", scheduler->StatusJson());
  const Status written = builder.WriteFile(intro.report_path);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("run report -> %s\n", intro.report_path.c_str());
  return 0;
}

/// Reconciliation epilogue + serve window. Returns nonzero if the
/// report or the recorder's final sample failed.
int FinishIntrospection(const IntrospectionOptions& intro, bool fake_clock,
                        pipeline::AttackScheduler* scheduler,
                        net::MetricsRecorder* recorder,
                        net::StatsServer* server) {
  // Live-mode recorders stop their sampling thread FIRST: a sample
  // landing between the report write and the final sample would see a
  // recorder.samples the report did not.
  if (recorder != nullptr) recorder->Stop();
  int rc = WriteRunReport(intro, fake_clock, scheduler);
  if (recorder != nullptr) {
    const Status closed = recorder->Close();
    if (!closed.ok()) {
      std::fprintf(stderr, "%s\n", closed.ToString().c_str());
      rc = rc != 0 ? rc : 1;
    }
  }
  if (server != nullptr) {
    // Printed only after Close(): a scraper that waits for this line
    // observes the reconciled final state.
    std::printf("run complete; serving stats\n");
    std::fflush(stdout);
    if (intro.serve_ms > 0) {
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(intro.serve_ms);
      while (g_interrupted == 0 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
    server->Stop();
  }
  return rc;
}

/// Shared epilogue: stats, the attribution identity, exit code.
int Finish(pipeline::AttackScheduler* scheduler, bool any_failed) {
  std::printf(
      "scheduler: %llu cycle(s) = %llu ok + %llu degraded + %llu failed; "
      "%llu skipped (no manifest), %llu skipped (unchanged), "
      "%llu overrun(s)\n",
      static_cast<unsigned long long>(scheduler->cycles()),
      static_cast<unsigned long long>(scheduler->cycles_ok()),
      static_cast<unsigned long long>(scheduler->cycles_degraded()),
      static_cast<unsigned long long>(scheduler->cycles_failed()),
      static_cast<unsigned long long>(scheduler->skipped_no_manifest()),
      static_cast<unsigned long long>(scheduler->skipped_unchanged()),
      static_cast<unsigned long long>(scheduler->overruns()));
  std::printf("published %llu report(s), latest version %llu -> %s\n",
              static_cast<unsigned long long>(scheduler->reports_published()),
              static_cast<unsigned long long>(
                  scheduler->last_published_version()),
              scheduler->report_dir().c_str());
  if (scheduler->cycles() != scheduler->cycles_ok() +
                                 scheduler->cycles_degraded() +
                                 scheduler->cycles_failed()) {
    std::fprintf(stderr, "cycle attribution identity violated\n");
    return 1;
  }
  if (scheduler->reports_published() !=
      scheduler->cycles_ok() + scheduler->cycles_degraded()) {
    std::fprintf(stderr, "published reports do not match ok+degraded\n");
    return 1;
  }
  if (any_failed || scheduler->cycles_failed() > 0) {
    std::fprintf(stderr, "at least one cycle failed\n");
    return 1;
  }
  if (scheduler->reports_published() == 0) {
    std::fprintf(stderr, "no report was ever published\n");
    return 1;
  }
  return 0;
}

/// --fake_clock=true: the deterministic harness. A synchronous writer
/// publishes `shards` full shards; after each publish the fake clock
/// advances one cadence, the scheduler Ticks, and the metrics recorder
/// Ticks on the same injected clock. Zero sleeps, zero timing
/// dependence — the report series AND the metrics series are
/// bit-for-bit reproducible.
int RunFakeClock(const std::string& store, const std::string& reports,
                 size_t shards, size_t producers, size_t rows, size_t cols,
                 uint64_t seed, size_t shard_rows, size_t retain_shards,
                 pipeline::AttackSchedulerOptions scheduler_options,
                 const IntrospectionOptions& intro) {
  trace::FakeClockGuard clock(0);
  const uint64_t cadence = scheduler_options.cadence_nanos;

  auto created = pipeline::AttackScheduler::Create(store, scheduler_options);
  if (!created.ok()) {
    std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<pipeline::AttackScheduler> scheduler =
      std::move(created).value();
  std::unique_ptr<net::MetricsRecorder> recorder;
  if (!StartRecorder(intro, &recorder)) return 1;
  // The server is declared (and therefore destroyed) last: its serving
  // thread must join before the scheduler its /statusz closure reads.
  std::unique_ptr<net::StatsServer> server;
  if (!StartStats(intro, scheduler.get(), &server)) return 1;

  bool any_failed = false;
  // Warm-up tick: due immediately, skipped with a cause (no manifest).
  PrintCycle(scheduler->Tick());

  std::vector<std::string> names;
  for (size_t c = 0; c < cols; ++c) names.push_back("a" + std::to_string(c));
  data::RollingStoreOptions store_options;
  store_options.shard_rows = shard_rows;
  store_options.retain_shards = retain_shards;
  auto writer_created =
      data::RollingShardedStoreWriter::Create(store, names, store_options);
  if (!writer_created.ok()) {
    std::fprintf(stderr, "%s\n", writer_created.status().ToString().c_str());
    return 1;
  }
  data::RollingShardedStoreWriter writer = std::move(writer_created).value();

  // Round-robin the producers' batches until `shards` shards published,
  // ticking the scheduler (then the recorder) after every publish it
  // can observe.
  size_t batch_index = 0;
  while (writer.publishes() < shards) {
    for (size_t p = 0; p < producers && writer.publishes() < shards; ++p) {
      const uint64_t before = writer.publishes();
      Status appended =
          writer.Append(ProducerBatch(seed, p, batch_index, rows, cols), rows);
      if (appended.ok()) appended = writer.Publish();
      if (!appended.ok()) {
        std::fprintf(stderr, "%s\n", appended.ToString().c_str());
        return 1;
      }
      if (writer.publishes() > before) {
        clock.Advance(cadence);
        const pipeline::SchedulerCycleResult result = scheduler->Tick();
        PrintCycle(result);
        any_failed |= result.outcome == pipeline::CycleOutcome::kFailed;
        if (recorder != nullptr) recorder->Tick();
      }
    }
    ++batch_index;
  }
  const Status closed = writer.Close();
  if (!closed.ok()) {
    std::fprintf(stderr, "%s\n", closed.ToString().c_str());
    return 1;
  }
  // One forced final cycle over the sealed store, so the last report
  // always covers every published row.
  clock.Advance(cadence);
  const pipeline::SchedulerCycleResult final_cycle = scheduler->RunCycleNow();
  PrintCycle(final_cycle);
  any_failed |= final_cycle.outcome == pipeline::CycleOutcome::kFailed;
  const int run_rc = Finish(scheduler.get(), any_failed);
  const int intro_rc = FinishIntrospection(intro, /*fake_clock=*/true,
                                           scheduler.get(), recorder.get(),
                                           server.get());
  return run_rc != 0 ? run_rc : intro_rc;
}

/// Real-time mode: IngestService producers + the scheduler daemon.
int RunLive(const std::string& store, const std::string& reports,
            size_t producers, size_t batches, size_t rows, size_t cols,
            uint64_t seed, pipeline::IngestOptions ingest_options,
            pipeline::AttackSchedulerOptions scheduler_options,
            const IntrospectionOptions& intro) {
  auto created = pipeline::AttackScheduler::Create(store, scheduler_options);
  if (!created.ok()) {
    std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<pipeline::AttackScheduler> scheduler =
      std::move(created).value();
  const Status started_daemon = scheduler->Start();
  if (!started_daemon.ok()) {
    std::fprintf(stderr, "%s\n", started_daemon.ToString().c_str());
    return 1;
  }

  std::vector<std::string> names;
  for (size_t c = 0; c < cols; ++c) names.push_back("a" + std::to_string(c));
  auto service_started =
      pipeline::IngestService::Start(store, names, ingest_options);
  if (!service_started.ok()) {
    std::fprintf(stderr, "%s\n",
                 service_started.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<pipeline::IngestService> service =
      std::move(service_started).value();
  std::unique_ptr<net::MetricsRecorder> recorder;
  if (!StartRecorder(intro, &recorder)) return 1;
  if (recorder != nullptr) recorder->Start();
  // Declared last so its serving thread joins before the scheduler and
  // ingest service its /statusz closures read.
  std::unique_ptr<net::StatsServer> server;
  if (!StartStats(intro, scheduler.get(), &server)) return 1;
  if (server != nullptr) {
    pipeline::IngestService* ingest = service.get();
    server->AddStatusSection("ingest",
                             [ingest] { return ingest->StatusJson(); });
  }

  Status first_error = Status::OK();
  for (size_t i = 0; i < batches && first_error.ok(); ++i) {
    for (size_t p = 0; p < producers; ++p) {
      const Status offered =
          service->Offer(ProducerBatch(seed, p, i, rows, cols), rows, 0);
      if (!offered.ok() && !offered.IsRetryable()) {
        first_error = offered;
        break;
      }
    }
  }
  const Status closed = service->Close();
  scheduler->Stop();
  if (!first_error.ok()) {
    std::fprintf(stderr, "%s\n", first_error.ToString().c_str());
    return 1;
  }
  if (!closed.ok()) {
    std::fprintf(stderr, "%s\n", closed.ToString().c_str());
    return 1;
  }
  std::printf("ingest published %llu row(s) in %zu shard(s) -> %s\n",
              static_cast<unsigned long long>(service->published_rows()),
              service->published_shards(), service->manifest_path().c_str());
  // The forced final cycle covers the sealed store even if the daemon
  // never caught the last republish.
  const pipeline::SchedulerCycleResult final_cycle = scheduler->RunCycleNow();
  PrintCycle(final_cycle);
  const int run_rc =
      Finish(scheduler.get(),
             final_cycle.outcome == pipeline::CycleOutcome::kFailed);
  const int intro_rc = FinishIntrospection(intro, /*fake_clock=*/false,
                                           scheduler.get(), recorder.get(),
                                           server.get());
  return run_rc != 0 ? run_rc : intro_rc;
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = Flags::Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 2;
  }
  const Flags& flags = parsed.value();
  const std::string store = flags.GetString("store", "attack_service.rrcm");
  const std::string reports =
      flags.GetString("reports", "attack_service_reports");
  const auto fake_clock = flags.GetBool("fake_clock", false);
  const auto producers = flags.GetInt("producers", 4);
  const auto batches = flags.GetInt("batches", 200);
  const auto shards = flags.GetInt("shards", 5);
  const auto rows = flags.GetInt("rows", 64);
  const auto cols = flags.GetInt("cols", 8);
  const auto queue = flags.GetInt("queue", 16);
  const auto shard_rows = flags.GetInt("shard_rows", 1024);
  const auto retain_shards = flags.GetInt("retain_shards", 0);
  const auto seed = flags.GetInt("seed", 20050607);
  const std::string attack = flags.GetString("attack", "pca");
  const auto sigma = flags.GetDouble("sigma", 0.5);
  const auto chunk_rows = flags.GetInt("chunk_rows", 4096);
  const auto cadence_us = flags.GetInt("cadence_us", 2000);
  const auto min_new_rows = flags.GetInt("min_new_rows", 0);
  const auto retain_reports = flags.GetInt("retain_reports", 0);
  const auto poll_us = flags.GetInt("poll_us", 500);
  const auto stats_port = flags.GetInt("stats_port", -1);
  const std::string metrics_series = flags.GetString("metrics_series", "");
  const auto metrics_interval_us = flags.GetInt("metrics_interval_us", 1000);
  const std::string report_path = flags.GetString("report", "");
  const auto serve_ms = flags.GetInt("serve_ms", 0);
  if (!fake_clock.ok() || !producers.ok() || producers.value() < 1 ||
      !batches.ok() || batches.value() < 1 || !shards.ok() ||
      shards.value() < 1 || !rows.ok() || rows.value() < 1 || !cols.ok() ||
      cols.value() < 1 || !queue.ok() || queue.value() < 1 ||
      !shard_rows.ok() || shard_rows.value() < 1 || !retain_shards.ok() ||
      retain_shards.value() < 0 || !seed.ok() || !sigma.ok() ||
      sigma.value() <= 0 || !chunk_rows.ok() || chunk_rows.value() < 1 ||
      !cadence_us.ok() || cadence_us.value() < 1 || !min_new_rows.ok() ||
      min_new_rows.value() < 0 || !retain_reports.ok() ||
      retain_reports.value() < 0 || !poll_us.ok() || poll_us.value() < 1 ||
      !stats_port.ok() || stats_port.value() < -1 ||
      stats_port.value() > 65535 || !metrics_interval_us.ok() ||
      metrics_interval_us.value() < 1 || !serve_ms.ok() ||
      serve_ms.value() < 0 || (attack != "pca" && attack != "sf")) {
    std::fprintf(stderr, "bad flag value\n");
    return 2;
  }

  LogBuildInfoBanner();

  IntrospectionOptions intro;
  intro.stats_port = static_cast<int>(stats_port.value());
  intro.metrics_series = metrics_series;
  intro.metrics_interval_nanos =
      static_cast<uint64_t>(metrics_interval_us.value()) * 1000;
  intro.report_path = report_path;
  intro.serve_ms = static_cast<uint64_t>(serve_ms.value());
  if (intro.serve_ms > 0) {
    // The serve window ends on SIGTERM/SIGINT (clean shutdown, exit 0)
    // — how the CI smoke tears the service down.
    std::signal(SIGTERM, HandleSignal);
    std::signal(SIGINT, HandleSignal);
  }

  // This binary owns the process-global telemetry (same convention as
  // sweep_attack/ingest_load): the scheduler's reports snapshot it.
  metrics::ResetAllMetrics();

  pipeline::AttackSchedulerOptions scheduler_options;
  scheduler_options.cadence_nanos =
      static_cast<uint64_t>(cadence_us.value()) * 1000;
  scheduler_options.min_new_rows =
      static_cast<uint64_t>(min_new_rows.value());
  scheduler_options.sigma = sigma.value();
  scheduler_options.attack.attack = attack == "pca"
                                        ? pipeline::StreamingAttack::kPcaDr
                                        : pipeline::StreamingAttack::kSpectralFiltering;
  scheduler_options.attack.chunk_rows =
      static_cast<size_t>(chunk_rows.value());
  scheduler_options.report_dir = reports;
  scheduler_options.retain_reports =
      static_cast<size_t>(retain_reports.value());
  scheduler_options.poll_nanos = static_cast<uint64_t>(poll_us.value()) * 1000;
  // Snapshot opens racing a republish surface as retryable Unavailable.
  scheduler_options.retry.max_attempts = 3;
  // With the stats server up, cycles run traced so /tracez shows the
  // recent span trees. Tracing observes the cycle, never steers it.
  scheduler_options.trace_cycles = intro.stats_port >= 0;

  if (fake_clock.value()) {
    return RunFakeClock(store, reports, static_cast<size_t>(shards.value()),
                        static_cast<size_t>(producers.value()),
                        static_cast<size_t>(rows.value()),
                        static_cast<size_t>(cols.value()),
                        static_cast<uint64_t>(seed.value()),
                        static_cast<size_t>(shard_rows.value()),
                        static_cast<size_t>(retain_shards.value()),
                        scheduler_options, intro);
  }
  pipeline::IngestOptions ingest_options;
  ingest_options.queue_batches = static_cast<size_t>(queue.value());
  ingest_options.store.shard_rows = static_cast<size_t>(shard_rows.value());
  ingest_options.store.retain_shards =
      static_cast<size_t>(retain_shards.value());
  return RunLive(store, reports, static_cast<size_t>(producers.value()),
                 static_cast<size_t>(batches.value()),
                 static_cast<size_t>(rows.value()),
                 static_cast<size_t>(cols.value()),
                 static_cast<uint64_t>(seed.value()), ingest_options,
                 scheduler_options, intro);
}
