// batch_m32 / batch_m128: load a fresh rolling store closed-loop through
// IngestService, then attack the sealed manifest once with PCA-DR.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "bench.h"
#include "common/trace.h"
#include "pipeline/chunk_sink.h"
#include "pipeline/ingest.h"

namespace perfbench {

namespace pipeline = randrecon::pipeline;
namespace trace = randrecon::trace;

namespace {

constexpr size_t kBatchRows = 4096;
constexpr int kSetups = 5;

struct LoadResult {
  double load_s = 0.0;
  Samples offer_call_ns;
  uint64_t producer_wall_ns = 0;
  uint64_t push_block_ns = 0;
  uint64_t append_ns = 0;
  pipeline::IngestStats stats;
};

/// Two producers offer the pool in order, closed loop: each waits for its
/// turn, so the store's row order (and every attack bit) is a function of
/// the seed alone.
LoadResult LoadStore(const std::string& manifest, size_t m,
                     const std::vector<Matrix>& pool, Results* results) {
  pipeline::IngestOptions options;
  options.queue_batches = 16;
  options.admission_timeout_nanos = 60ull * 1000 * 1000 * 1000;
  options.store.shard_rows = kShardRows;
  auto started =
      pipeline::IngestService::Start(manifest, ColumnNames(m), options);
  if (!started.ok()) Die("ingest start: " + started.status().ToString());
  std::unique_ptr<pipeline::IngestService> service =
      std::move(started).value();

  LoadResult result;
  const uint64_t push_block_before =
      HistogramSum("ingest.queue_push_block_nanos");
  const uint64_t append_before = HistogramSum("ingest.append_nanos");
  std::mutex mutex;
  std::condition_variable turn_changed;
  size_t turn = 0;
  Samples offer_ns[2];
  uint64_t wall_ns[2] = {0, 0};
  auto producer = [&](size_t k) {
    const uint64_t begin = NowNanos();
    for (size_t i = k; i < pool.size(); i += 2) {
      {
        std::unique_lock<std::mutex> lock(mutex);
        turn_changed.wait(lock, [&] { return turn == i; });
      }
      const uint64_t call = NowNanos();
      // A refused batch is counted by the service's own accounting.
      (void)service->Offer(pool[i], pool[i].rows());
      offer_ns[k].Add(static_cast<double>(NowNanos() - call));
      {
        std::lock_guard<std::mutex> lock(mutex);
        ++turn;
      }
      turn_changed.notify_all();
    }
    wall_ns[k] = NowNanos() - begin;
  };
  const uint64_t start = NowNanos();
  std::thread first(producer, 0);
  std::thread second(producer, 1);
  first.join();
  second.join();
  const randrecon::Status closed = service->Close();
  result.load_s = static_cast<double>(NowNanos() - start) * 1e-9;
  results->Check(closed.ok(), "ingest close: " + closed.ToString());
  result.stats = service->stats();
  result.push_block_ns =
      HistogramSum("ingest.queue_push_block_nanos") - push_block_before;
  result.append_ns = HistogramSum("ingest.append_nanos") - append_before;
  result.producer_wall_ns = wall_ns[0] + wall_ns[1];
  for (const Samples& samples : offer_ns) {
    for (double v : samples.values()) result.offer_call_ns.Add(v);
  }
  return result;
}

randrecon::Result<pipeline::StreamingAttackReport> AttackManifest(
    const std::string& manifest, const Population& population,
    pipeline::RecordSource* reference = nullptr) {
  RR_ASSIGN_OR_RETURN(pipeline::ShardedRecordSource source,
                      pipeline::ShardedRecordSource::Open(manifest));
  pipeline::NullChunkSink sink;
  const pipeline::StreamingAttackPipeline attack(AttackOptions());
  return attack.Run(&source, population.noise(), &sink, reference);
}

/// The untimed aligned-reference pass: measured error against the
/// original records, next to the error the attacker predicts.
void CheckReferencePass(const Population& population,
                        const std::string& manifest, size_t n,
                        const pipeline::StreamingAttackReport& timed,
                        Results* results) {
  auto reference = OriginalSource(population, n);
  auto run = AttackManifest(manifest, population, reference.get());
  if (!results->Check(run.ok(), "reference pass: " + run.status().ToString())) {
    return;
  }
  const pipeline::StreamingAttackReport& report = run.value();
  const size_t p = report.num_components;
  double dropped = 0.0;
  for (size_t i = p; i < report.eigenvalues.size(); ++i) {
    dropped += std::max(report.eigenvalues[i], 0.0);
  }
  const double sigma2 = population.sigma * population.sigma;
  const double predicted_mse =
      (dropped + static_cast<double>(p) * sigma2) /
      static_cast<double>(population.m);
  const double measured_mse =
      report.rmse_vs_reference * report.rmse_vs_reference;
  std::printf("reference pass: rmse_vs_reference %.6f, predicted %.6f\n",
              report.rmse_vs_reference, std::sqrt(predicted_mse));
  results->Check(report.rmse_vs_reference < population.sigma,
                 "rmse_vs_reference < sigma");
  results->Check(std::fabs(measured_mse - predicted_mse) <=
                     0.05 * predicted_mse,
                 "rmse_vs_reference within 5% (MSE) of the prediction");
  pipeline::StreamingAttackReport without_reference = report;
  without_reference.has_reference = false;
  without_reference.rmse_vs_reference = 0.0;
  results->Check(BitwiseEqual(without_reference, timed),
                 "a reference stream leaves the attack bits unchanged");
}

}  // namespace

void RunBatch(const Args& args, size_t m, size_t n, Results* results) {
  const std::string store_dir = "batch";
  const std::string manifest = store_dir + "/store.rrcm";

  // ---- Set-up: population, disguised batch pool, directories. --------
  Samples setup_s;
  Population population;
  std::vector<Matrix> pool;
  for (int i = 0; i < kSetups; ++i) {
    const uint64_t begin = NowNanos();
    population = MakePopulation(m, args.seed);
    FillPool(population, n, kBatchRows, &pool);
    ResetDir(store_dir);
    setup_s.Add(static_cast<double>(NowNanos() - begin) * 1e-9);
  }

  // ---- Timed repetitions, each on a fresh store. ----------------------
  // In a traced run, repetitions alternate untraced / traced so the
  // tracing overhead is measured in the same process.
  Samples load_rate, attack_rate, batch_s, offer_us, attack_ms;
  Samples traced_batch_s, untraced_batch_s;
  Samples traced_offer_ns;
  uint64_t traced_rows = 0, traced_producer_ns = 0, traced_push_ns = 0,
           traced_append_ns = 0;
  double traced_load_s = 0.0;
  uint64_t offered = 0, shed = 0, attacks = 0, attacks_failed = 0;
  pipeline::StreamingAttackReport first_report;
  // A traced run spends half its time here and the rest on the probes.
  const double budget_s = args.trace ? args.seconds / 2 : args.seconds;
  const uint64_t measure_start = NowNanos();
  for (int rep = 0;; ++rep) {
    const double elapsed =
        static_cast<double>(NowNanos() - measure_start) * 1e-9;
    const double typical = batch_s.empty() ? 0.0 : batch_s.Median();
    if (rep >= 3 && elapsed + typical > budget_s) break;
    const bool traced = args.trace && rep % 2 == 1;
    ResetDir(store_dir);

    if (traced) trace::StartTracing();
    const uint64_t begin = NowNanos();
    const LoadResult load = LoadStore(manifest, m, pool, results);
    const uint64_t attack_begin = NowNanos();
    auto run = AttackManifest(manifest, population);
    const uint64_t end = NowNanos();
    if (traced) trace::StopTracing();

    offered += load.stats.batches_offered;
    shed += load.stats.batches_shed;
    ++attacks;
    results->Check(load.stats.batches_offered ==
                           load.stats.batches_appended +
                               load.stats.batches_shed &&
                       load.stats.rows_offered ==
                           load.stats.rows_appended + load.stats.rows_shed,
                   "offered == appended + shed");
    if (!run.ok()) {
      ++attacks_failed;
      results->Check(false, "attack: " + run.status().ToString());
      continue;
    }
    const double attack_s = static_cast<double>(end - attack_begin) * 1e-9;
    const double total_s = static_cast<double>(end - begin) * 1e-9;
    std::printf("rep %d%s: load %.3f s, attack %.3f s\n", rep,
                traced ? " (traced)" : "", load.load_s, attack_s);
    if (rep == 0) {
      first_report = run.value();
      CheckAttackQuality(population, first_report, "batch", results);
    } else {
      results->Check(BitwiseEqual(first_report, run.value()),
                     "repetition " + std::to_string(rep) +
                         " is bitwise equal to the first");
    }
    if (traced) {
      traced_batch_s.Add(total_s);
      for (double v : load.offer_call_ns.values()) traced_offer_ns.Add(v);
      traced_rows += load.stats.rows_appended;
      traced_producer_ns += load.producer_wall_ns;
      traced_push_ns += load.push_block_ns;
      traced_append_ns += load.append_ns;
      traced_load_s += load.load_s;
      continue;
    }
    untraced_batch_s.Add(total_s);
    load_rate.Add(static_cast<double>(load.stats.rows_appended) / load.load_s);
    attack_rate.Add(static_cast<double>(n) / attack_s);
    attack_ms.Add(attack_s * 1e3);
    batch_s.Add(total_s);
    for (double v : load.offer_call_ns.values()) offer_us.Add(v * 1e-3);
  }
  results->Operations(offered + attacks, shed + attacks_failed);
  std::printf("repetitions: %zu untraced, %zu traced; batches offered %llu, "
              "shed %llu\n",
              untraced_batch_s.count(), traced_batch_s.count(),
              static_cast<unsigned long long>(offered),
              static_cast<unsigned long long>(shed));
  CheckReferencePass(population, manifest, n, first_report, results);

  if (!args.trace) {
    results->Metric("setup_s", setup_s.Median(), "s",
                    "(median of " + std::to_string(setup_s.count()) + ")");
    results->Metric("load_rows_per_s", load_rate.Median(), "rows/s",
                    "(median of " + std::to_string(load_rate.count()) + ")");
    results->Metric("attack_rows_per_s", attack_rate.Median(), "rows/s",
                    "(median of " + std::to_string(attack_rate.count()) + ")");
    results->Metric("batch_s", batch_s.Median(), "s",
                    "(median of " + std::to_string(batch_s.count()) + ")");
    results->Percentile("offer_p50_us", offer_us, 50, 1.0, "us");
    results->Percentile("cycle_p50_ms", attack_ms, 50, 1.0, "ms");
    return;
  }

  // ---- Traced run: per-layer numbers. ---------------------------------
  results->Metric("ingest.offer_ns_per_row",
                  traced_offer_ns.Sum() / static_cast<double>(traced_rows),
                  "ns/row");
  // Tails from the untraced repetitions: too few samples per run to
  // repeat within the end-to-end bounds, so they are reported here.
  results->Percentile("offer_p99_us", offer_us, 99, 1.0, "us");
  results->Percentile("cycle_p90_ms", attack_ms, 90, 1.0, "ms");
  results->Metric("ingest.push_block_frac",
                  static_cast<double>(traced_push_ns) /
                      static_cast<double>(traced_producer_ns),
                  "ratio");
  results->Metric("ingest.writer_busy_frac",
                  static_cast<double>(traced_append_ns) * 1e-9 / traced_load_s,
                  "ratio");
  results->Metric("trace.overhead",
                  traced_batch_s.Median() / untraced_batch_s.Median(), "ratio",
                  "(batch_s traced / untraced)");
  ProbeLayers(population, manifest, n, pool, "probe", results);

  // The scheduler, the recorder and the open-loop generator only run
  // beside ingest, so a short open loop at the service's byte rate
  // measures them at this workload's width.
  OpenLoopConfig config;
  config.m = m;
  config.rows_per_s = 32e6 / static_cast<double>(m);
  config.retain_rows = static_cast<uint64_t>(config.rows_per_s);
  config.seconds = 4.0;
  config.traced = true;
  config.dir = "open_loop";
  pool.clear();
  FillPool(population, n, kOfferRows, &pool);
  ReportOpenLoopLayers(RunOpenLoop(population, pool, config, results),
                       results);
  RemoveDir(config.dir);
  RemoveDir(store_dir);
}

}  // namespace perfbench
