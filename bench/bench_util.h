// Shared helpers for the figure benchmark binaries: print the paper-style
// table to stdout and drop a CSV next to the working directory for
// replotting.

#ifndef RANDRECON_BENCH_BENCH_UTIL_H_
#define RANDRECON_BENCH_BENCH_UTIL_H_

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/build_info.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "experiment/config.h"
#include "experiment/series.h"

namespace randrecon {
namespace bench {

/// One timed measurement for WriteBenchJson: a name, the wall time, a
/// throughput figure, and any extra metrics (speedups, error bounds, ...).
struct BenchResult {
  std::string name;
  double elapsed_seconds = 0.0;
  double records_per_second = 0.0;
  std::vector<std::pair<std::string, double>> metrics;
};

/// Key/value pairs echoing the benchmark configuration into the JSON.
using BenchConfig = std::vector<std::pair<std::string, std::string>>;

namespace internal {
inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;  // Drop control chars.
    out.push_back(c);
  }
  return out;
}
}  // namespace internal

/// Writes a machine-readable benchmark report:
///   {"bench": ..., "build_info": {...}, "config": {...},
///    "results": [{"name": ..., "elapsed_seconds": ...,
///    "records_per_second": ..., <metrics>}]}
/// so successive PRs can track a perf trajectory from checked-in files;
/// build_info (common/build_info.h) names the code and flags that ran.
inline Status WriteBenchJson(const std::string& path,
                             const std::string& bench_name,
                             const BenchConfig& config,
                             const std::vector<BenchResult>& results) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status::IoError("WriteBenchJson: cannot open " + path);
  }
  char buffer[64];
  auto number = [&buffer](double v) {
    if (!std::isfinite(v)) return std::string("null");  // JSON has no inf/nan.
    std::snprintf(buffer, sizeof(buffer), "%.9g", v);
    return std::string(buffer);
  };
  out << "{\n  \"bench\": \"" << internal::JsonEscape(bench_name) << "\",\n";
  out << "  \"build_info\": " << BuildInfoJson() << ",\n";
  out << "  \"config\": {";
  for (size_t i = 0; i < config.size(); ++i) {
    if (i > 0) out << ", ";
    out << "\"" << internal::JsonEscape(config[i].first) << "\": \""
        << internal::JsonEscape(config[i].second) << "\"";
  }
  out << "},\n  \"results\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    out << "    {\"name\": \"" << internal::JsonEscape(r.name)
        << "\", \"elapsed_seconds\": " << number(r.elapsed_seconds)
        << ", \"records_per_second\": " << number(r.records_per_second);
    for (const auto& metric : r.metrics) {
      out << ", \"" << internal::JsonEscape(metric.first)
          << "\": " << number(metric.second);
    }
    out << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  out.flush();
  if (!out) {
    return Status::IoError("WriteBenchJson: write failed for " + path);
  }
  return Status::OK();
}

/// Standard config echo for experiment binaries driven by CommonConfig.
inline BenchConfig EchoCommonConfig(const experiment::CommonConfig& common) {
  return BenchConfig{
      {"num_records", std::to_string(common.num_records)},
      {"sigma", FormatDouble(common.noise_stddev, 4)},
      {"trials", std::to_string(common.num_trials)},
      {"seed", std::to_string(common.seed)},
      {"oracle_moments", common.oracle_moments ? "true" : "false"},
      {"fast_udr", common.fast_udr ? "true" : "false"},
  };
}

/// Applies the shared bench flags (--num_records, --sigma, --trials,
/// --seed, --oracle_moments, --fast_udr) to a CommonConfig. Returns a
/// non-zero process exit code on a malformed command line.
inline int ApplyCommonFlags(int argc, const char* const* argv,
                            experiment::CommonConfig* common) {
  Result<Flags> parsed = Flags::Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 2;
  }
  const Flags& flags = parsed.value();
  auto num_records = flags.GetInt("num_records",
                                  static_cast<int64_t>(common->num_records));
  auto sigma = flags.GetDouble("sigma", common->noise_stddev);
  auto trials = flags.GetInt("trials",
                             static_cast<int64_t>(common->num_trials));
  auto seed =
      flags.GetInt("seed", static_cast<int64_t>(common->seed));
  auto oracle = flags.GetBool("oracle_moments", common->oracle_moments);
  auto fast_udr = flags.GetBool("fast_udr", common->fast_udr);
  for (const Status& status :
       {num_records.status(), sigma.status(), trials.status(), seed.status(),
        oracle.status(), fast_udr.status()}) {
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 2;
    }
  }
  common->num_records = static_cast<size_t>(num_records.value());
  common->noise_stddev = sigma.value();
  common->num_trials = static_cast<size_t>(trials.value());
  common->seed = static_cast<uint64_t>(seed.value());
  common->oracle_moments = oracle.value();
  common->fast_udr = fast_udr.value();
  for (const std::string& name : flags.UnusedFlags()) {
    std::fprintf(stderr, "warning: unknown flag --%s ignored\n", name.c_str());
  }
  return 0;
}

/// Prints the experiment table, writes `<csv_name>` (and, when `common`
/// is supplied, a machine-readable `<stem>_bench.json`) in the current
/// directory, and reports elapsed time. Returns 0 on success (process
/// exit code).
inline int ReportExperiment(const Result<experiment::ExperimentResult>& result,
                            const std::string& csv_name,
                            const Stopwatch& stopwatch,
                            const experiment::CommonConfig* common = nullptr) {
  if (!result.ok()) {
    std::fprintf(stderr, "experiment failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", experiment::FormatExperimentTable(result.value()).c_str());
  const Status csv_status =
      experiment::WriteExperimentCsv(result.value(), csv_name);
  if (csv_status.ok()) {
    std::printf("series written to %s\n", csv_name.c_str());
  } else {
    std::fprintf(stderr, "CSV export skipped: %s\n",
                 csv_status.ToString().c_str());
  }
  const double elapsed = stopwatch.ElapsedSeconds();
  if (common != nullptr) {
    const std::string stem =
        csv_name.size() > 4 && csv_name.rfind(".csv") == csv_name.size() - 4
            ? csv_name.substr(0, csv_name.size() - 4)
            : csv_name;
    const size_t num_points = result.value().series.empty()
                                  ? 0
                                  : result.value().series[0].points.size();
    // Throughput in reconstructed records: every swept point runs
    // `trials` full attacks over `num_records` records.
    const double total_records = static_cast<double>(common->num_records) *
                                 static_cast<double>(common->num_trials) *
                                 static_cast<double>(num_points);
    BenchResult timing;
    timing.name = result.value().experiment_id.empty()
                      ? stem
                      : result.value().experiment_id;
    timing.elapsed_seconds = elapsed;
    timing.records_per_second = elapsed > 0.0 ? total_records / elapsed : 0.0;
    timing.metrics.emplace_back("num_points",
                                static_cast<double>(num_points));
    const std::string json_name = stem + "_bench.json";
    const Status json_status = WriteBenchJson(
        json_name, stem, EchoCommonConfig(*common), {timing});
    if (json_status.ok()) {
      std::printf("bench json written to %s\n", json_name.c_str());
    } else {
      std::fprintf(stderr, "bench json skipped: %s\n",
                   json_status.ToString().c_str());
    }
  }
  std::printf("elapsed: %.2fs\n\n", elapsed);
  return 0;
}

}  // namespace bench
}  // namespace randrecon

#endif  // RANDRECON_BENCH_BENCH_UTIL_H_
