// Continuous-ingest load generator: N producer threads offer
// deterministic Gaussian batches through the admission-controlled
// IngestService (pipeline/ingest.h) into a rolling sharded store, then
// print — and, with --report, persist — the exact accounting identity
// offered == appended + shed. The binary exits non-zero if the identity
// is violated or the store fails, so CI can use it as a gate.
//
//   ingest_load                                     # demo with default knobs
//   ingest_load --store=live.rrcm --producers=8 --queue=4 --admission_us=100
//   ingest_load --store=live.rrcm --report=ingest_report.json
//   ingest_load --store=live.rrcm --recover=true    # crash recovery, no load
//
// The last form runs RecoverShardedStore over a store whose writer
// crashed (e.g. under RANDRECON_FAILPOINTS="roll.publish=crash@2") and
// proves the recovered prefix opens as a snapshot — the CI
// crash-torture-rotation step drives exactly that sequence.
//
// Batches are substreamed per (seed, producer, index) so reruns offer
// bitwise-identical rows regardless of producer interleaving; WHICH
// batches shed under overload is scheduling-dependent, but every
// outcome is counted and the identity always closes.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/run_report.h"
#include "common/trace.h"
#include "data/rolling_store.h"
#include "data/store_recovery.h"
#include "pipeline/ingest.h"
#include "stats/rng.h"

using namespace randrecon;  // NOLINT(build/namespaces): example code.

namespace {

/// Batch `index` of producer `producer`: an independent substream keyed
/// on (seed, producer, index), so the offered rows are reproducible and
/// distinct across producers without any shared generator state.
linalg::Matrix ProducerBatch(uint64_t seed, size_t producer, size_t index,
                             size_t rows, size_t cols) {
  stats::Rng rng(seed * 1000003ull + producer * 131ull + index);
  return rng.GaussianMatrix(rows, cols);
}

/// --recover=true: turn whatever a crashed writer left at `store` back
/// into a valid snapshot (or a provably empty path) and prove the
/// recovered prefix opens and reports its rows.
int RunRecovery(const std::string& store) {
  auto recovered = data::RecoverShardedStore(store);
  if (!recovered.ok()) {
    std::fprintf(stderr, "%s\n", recovered.status().ToString().c_str());
    return 1;
  }
  const data::StoreRecoveryReport& report = recovered.value();
  std::printf(
      "recovery: %zu shard(s), %llu record(s), manifest %s, "
      "%zu file(s) removed, %zu quarantined\n",
      report.recovered_shards,
      static_cast<unsigned long long>(report.recovered_records),
      report.store_empty ? "removed (store empty)"
                         : (report.manifest_rebuilt ? "rebuilt" : "kept"),
      report.removed_files.size(), report.quarantined_files.size());
  for (const std::string& path : report.quarantined_files) {
    std::printf("  quarantined: %s\n", path.c_str());
  }
  if (report.store_empty) return 0;
  auto snapshot = data::RollingStoreSnapshotReader::Open(store);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "recovered store does not open: %s\n",
                 snapshot.status().ToString().c_str());
    return 1;
  }
  if (snapshot.value().num_records() != report.recovered_records) {
    std::fprintf(stderr, "snapshot reads %zu records, recovery reported %llu\n",
                 snapshot.value().num_records(),
                 static_cast<unsigned long long>(report.recovered_records));
    return 1;
  }
  std::printf("recovered snapshot opens: %zu record(s) x %zu attribute(s)\n",
              snapshot.value().num_records(),
              snapshot.value().num_attributes());
  return 0;
}

int RunLoad(const std::string& store, size_t producers, size_t batches,
            size_t rows, size_t cols, uint64_t seed,
            const pipeline::IngestOptions& options, uint64_t deadline_us,
            const std::string& report_path) {
  // A reporting run owns the process-global telemetry for its duration
  // (same convention as sweep_attack): counters restart at zero so the
  // report accounts for exactly this run.
  const bool reporting = !report_path.empty();
  if (reporting) {
    metrics::ResetAllMetrics();
    trace::StartTracing();
  }

  std::vector<std::string> names;
  for (size_t c = 0; c < cols; ++c) names.push_back("a" + std::to_string(c));
  auto started = pipeline::IngestService::Start(store, names, options);
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<pipeline::IngestService> service = std::move(started).value();

  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> shed{0};
  std::mutex error_mutex;
  Status first_error = Status::OK();
  ParallelForEach(0, producers, [&](size_t p) {
    for (size_t i = 0; i < batches; ++i) {
      const linalg::Matrix batch = ProducerBatch(seed, p, i, rows, cols);
      const uint64_t deadline =
          deadline_us == 0 ? 0 : trace::NowNanos() + deadline_us * 1000;
      const Status offered = service->Offer(batch, rows, deadline);
      if (offered.ok()) {
        accepted.fetch_add(1, std::memory_order_relaxed);
      } else if (offered.code() == StatusCode::kUnavailable) {
        // Admission shed: a production producer would back off and
        // re-offer; the load generator just counts it — the service's
        // own accounting (printed below) must agree. A sticky store
        // error may be retryable too (an IoError), but it is no shed.
        shed.fetch_add(1, std::memory_order_relaxed);
      } else {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (first_error.ok()) first_error = offered;
        return;  // Sticky store error: this producer stops offering.
      }
    }
  });
  const Status closed = service->Close();
  const pipeline::IngestStats stats = service->stats();

  std::printf(
      "offered %llu batch(es) / %llu row(s): %llu appended, %llu shed\n"
      "published %llu row(s) in %zu shard(s) -> %s\n",
      static_cast<unsigned long long>(stats.batches_offered),
      static_cast<unsigned long long>(stats.rows_offered),
      static_cast<unsigned long long>(stats.batches_appended),
      static_cast<unsigned long long>(stats.batches_shed),
      static_cast<unsigned long long>(service->published_rows()),
      service->published_shards(), service->manifest_path().c_str());
  std::printf("producers saw %llu admitted, %llu shed at admission\n",
              static_cast<unsigned long long>(accepted.load()),
              static_cast<unsigned long long>(shed.load()));

  // The load-bearing invariant, enforced in-binary: every offered batch
  // is accounted exactly once — no silent drops, ever.
  if (stats.batches_offered != stats.batches_appended + stats.batches_shed ||
      stats.rows_offered != stats.rows_appended + stats.rows_shed) {
    std::fprintf(stderr, "accounting identity violated\n");
    return 1;
  }
  // Producer-side counters are a weaker view (an accepted batch may
  // still shed later on an expired deadline), so the only cross-check
  // is that the service never reported MORE sheds than producers saw
  // plus the expirable accepted ones.
  if (shed.load() > stats.batches_shed) {
    std::fprintf(stderr, "producers saw more sheds than the service counted\n");
    return 1;
  }
  // A failed store names the appended rows it never published, which
  // is what the published-rows check below would otherwise only flag.
  if (!closed.ok()) {
    std::fprintf(stderr, "%s\n", closed.ToString().c_str());
    return 1;
  }
  if (stats.rows_appended != service->published_rows()) {
    std::fprintf(stderr, "published rows do not match appended rows\n");
    return 1;
  }
  if (!first_error.ok()) {
    std::fprintf(stderr, "%s\n", first_error.ToString().c_str());
    return 1;
  }

  if (reporting) {
    report::RunReportBuilder builder("ingest_load");
    builder.AddConfig("store", store);
    builder.AddConfigInt("producers", static_cast<int64_t>(producers));
    builder.AddConfigInt("batches_per_producer", static_cast<int64_t>(batches));
    builder.AddConfigInt("rows_per_batch", static_cast<int64_t>(rows));
    builder.AddConfigInt("cols", static_cast<int64_t>(cols));
    builder.AddConfigInt("queue_batches",
                         static_cast<int64_t>(options.queue_batches));
    builder.AddConfigInt(
        "admission_us",
        static_cast<int64_t>(options.admission_timeout_nanos / 1000));
    builder.AddConfigInt("deadline_us", static_cast<int64_t>(deadline_us));
    builder.AddConfigInt("shard_rows",
                         static_cast<int64_t>(options.store.shard_rows));
    builder.AddConfigInt("seed", static_cast<int64_t>(seed));
    builder.AddConfigInt("batches_offered",
                         static_cast<int64_t>(stats.batches_offered));
    builder.AddConfigInt("batches_appended",
                         static_cast<int64_t>(stats.batches_appended));
    builder.AddConfigInt("batches_shed",
                         static_cast<int64_t>(stats.batches_shed));
    builder.AddConfigInt("rows_offered",
                         static_cast<int64_t>(stats.rows_offered));
    builder.AddConfigInt("rows_appended",
                         static_cast<int64_t>(stats.rows_appended));
    builder.AddConfigInt("rows_shed", static_cast<int64_t>(stats.rows_shed));
    builder.AddConfigInt("published_rows",
                         static_cast<int64_t>(service->published_rows()));
    builder.AddConfigInt("published_shards",
                         static_cast<int64_t>(service->published_shards()));
    builder.SetSpans(trace::StopTracing());
    const Status written = builder.WriteFile(report_path);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("report written to %s\n", report_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = Flags::Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 2;
  }
  const Flags& flags = parsed.value();
  const std::string store = flags.GetString("store", "ingest_demo.rrcm");
  const auto recover = flags.GetBool("recover", false);
  const auto producers = flags.GetInt("producers", 4);
  const auto batches = flags.GetInt("batches", 300);
  const auto rows = flags.GetInt("rows", 64);
  const auto cols = flags.GetInt("cols", 8);
  const auto queue = flags.GetInt("queue", 16);
  const auto admission_us = flags.GetInt("admission_us", 50000);
  const auto deadline_us = flags.GetInt("deadline_us", 0);
  const auto shard_rows = flags.GetInt("shard_rows", 2048);
  const auto retain_shards = flags.GetInt("retain_shards", 0);
  const auto seed = flags.GetInt("seed", 20050609);
  const std::string report_path = flags.GetString("report", "");
  if (!recover.ok() || !producers.ok() || producers.value() < 1 ||
      !batches.ok() || batches.value() < 1 || !rows.ok() || rows.value() < 1 ||
      !cols.ok() || cols.value() < 1 || !queue.ok() || queue.value() < 1 ||
      !admission_us.ok() || admission_us.value() < 0 || !deadline_us.ok() ||
      deadline_us.value() < 0 || !shard_rows.ok() || shard_rows.value() < 1 ||
      !retain_shards.ok() || retain_shards.value() < 0 || !seed.ok()) {
    std::fprintf(stderr, "bad flag value\n");
    return 2;
  }
  if (recover.value()) return RunRecovery(store);
  pipeline::IngestOptions options;
  options.queue_batches = static_cast<size_t>(queue.value());
  options.admission_timeout_nanos =
      static_cast<uint64_t>(admission_us.value()) * 1000;
  options.store.shard_rows = static_cast<size_t>(shard_rows.value());
  options.store.retain_shards = static_cast<size_t>(retain_shards.value());
  return RunLoad(store, static_cast<size_t>(producers.value()),
                 static_cast<size_t>(batches.value()),
                 static_cast<size_t>(rows.value()),
                 static_cast<size_t>(cols.value()),
                 static_cast<uint64_t>(seed.value()), options,
                 static_cast<uint64_t>(deadline_us.value()), report_path);
}
