// service: the live attack service under a constant offered load.

#include <string>

#include "bench.h"
#include "data/shard_store.h"

namespace perfbench {

namespace {

constexpr size_t kServiceWidth = 32;
constexpr size_t kPoolRows = 1u << 20;  // 256 MiB at m = 32: > 2x L3.
constexpr uint64_t kRetainRows = 1u << 20;
constexpr int kSetups = 5;

OpenLoopConfig ServiceConfig(double seconds, bool traced) {
  OpenLoopConfig config;
  config.m = kServiceWidth;
  config.rows_per_s = 1e6;
  config.retain_rows = kRetainRows;
  config.seconds = seconds;
  config.traced = traced;
  config.dir = traced ? "service_traced" : "service";
  return config;
}

}  // namespace

void RunService(const Args& args, Results* results) {
  Samples setup_s;
  Population population;
  std::vector<Matrix> pool;
  for (int i = 0; i < kSetups; ++i) {
    const uint64_t begin = NowNanos();
    population = MakePopulation(kServiceWidth, args.seed);
    FillPool(population, kPoolRows, kOfferRows, &pool);
    ResetDir("service");
    setup_s.Add(static_cast<double>(NowNanos() - begin) * 1e-9);
  }

  if (!args.trace) {
    const OpenLoopOutcome outcome = RunOpenLoop(
        population, pool, ServiceConfig(args.seconds, false), results);
    RemoveDir("service");
    results->Metric("setup_s", setup_s.Median(), "s",
                    "(median of " + std::to_string(setup_s.count()) + ")");
    results->Metric("load_rows_per_s", outcome.load_rows_per_s, "rows/s",
                    "(offered 1e6 rows/s)");
    results->Percentile("attack_rows_per_s", outcome.cycle_rows_per_s, 50,
                        1.0, "rows/s");
    results->Percentile("batch_s", outcome.report_lag_s, 50, 1.0, "s");
    results->Percentile("offer_p50_us", outcome.offer_us, 50, 1.0, "us");
    results->Percentile("cycle_p50_ms", outcome.cycle_ms, 50, 1.0, "ms");
    return;
  }

  // Traced: half the time untraced, half traced, in the same process.
  const OpenLoopOutcome untraced = RunOpenLoop(
      population, pool, ServiceConfig(args.seconds / 2, false), results);
  RemoveDir("service");
  const OpenLoopConfig config = ServiceConfig(args.seconds / 2, true);
  const OpenLoopOutcome traced =
      RunOpenLoop(population, pool, config, results);
  const double rows = static_cast<double>(traced.offer_call_ns.count()) *
                      static_cast<double>(kOfferRows);
  results->Metric("ingest.offer_ns_per_row", traced.offer_call_ns.Sum() / rows,
                  "ns/row");
  // Tails from the untraced quarter: they swing with the shared cores'
  // load more than the end-to-end bounds allow, so they are reported here.
  results->Percentile("offer_p99_us", untraced.offer_us, 99, 1.0, "us");
  results->Percentile("cycle_p90_ms", untraced.cycle_ms, 90, 1.0, "ms");
  results->Metric("ingest.push_block_frac",
                  static_cast<double>(traced.push_block_ns) * 1e-9 /
                      (2.0 * traced.wall_s),
                  "ratio");
  results->Metric("ingest.writer_busy_frac",
                  static_cast<double>(traced.append_ns) * 1e-9 / traced.wall_s,
                  "ratio");
  results->Metric("trace.overhead",
                  traced.cycle_ms.Median() / untraced.cycle_ms.Median(),
                  "ratio", "(cycle_p50 traced / untraced)");
  ReportOpenLoopLayers(traced, results);

  const std::string manifest = config.dir + "/live.rrcm";
  auto parsed = randrecon::data::ReadShardManifest(manifest);
  if (!parsed.ok()) Die("final manifest: " + parsed.status().ToString());
  ProbeLayers(population, manifest, parsed.value().num_records, pool,
              "probe", results);
  RemoveDir(config.dir);
}

}  // namespace perfbench
