// Directory sweep driver: attack every record file in a mixed batch —
// CSV exports, binary column stores (.rrcs) and sharded-store manifests
// (.rrcm) — through one PipelineRunner invocation.
//
//   sweep_attack logs/                        # every record file in logs/
//   sweep_attack a.csv b.rrcs c.rrcm --attack=pca --sigma=0.5
//   sweep_attack logs/ --per_shard=true       # manifests fan out per shard
//   sweep_attack live                         # rolling-store stem: attacks
//                                             # live.rrcm, the latest
//                                             # PUBLISHED snapshot
//
// Arguments are files or directories (directories are scanned one level
// deep for *.csv, *.rrcs, *.rrcm). Shard files that a collected manifest
// already covers are excluded from the standalone list, so a directory
// holding "reports.rrcm" + its shards yields ONE logical job, not one
// per shard file — unless --per_shard=true, which expands each manifest
// into independent per-shard jobs (pipeline::MakePerShardJobsDegraded:
// shards that fail the manifest check are excluded and reported) for
// shard-parallel scheduling.
//
// Every job runs the same attack configuration under an independent
// noise model sized to its stream; failures (unreadable file, corrupt
// shard) are isolated per job and reported in the result table, never
// aborting the batch.
//
// With no arguments the tool demonstrates itself: it writes the same
// disguised records as a CSV, a column store and a 3-shard manifest into
// sweep_demo/, then sweeps the directory — three jobs over identical
// bytes, whose reports therefore agree (the bitwise guarantee is pinned
// in tests/pipeline/sharded_source_test.cc).

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/metrics.h"
#include "common/run_report.h"
#include "common/trace.h"
#include "data/column_store.h"
#include "data/csv.h"
#include "data/rolling_store.h"
#include "data/shard_store.h"
#include "data/synthetic.h"
#include "perturb/schemes.h"
#include "pipeline/runner.h"
#include "pipeline/source_factory.h"
#include "stats/rng.h"

using namespace randrecon;  // NOLINT(build/namespaces): example code.

namespace {

bool EndsWith(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool IsDirectory(const std::string& path) {
  struct stat file_stat;
  return ::stat(path.c_str(), &file_stat) == 0 && S_ISDIR(file_stat.st_mode);
}

bool FileExists(const std::string& path) {
  struct stat file_stat;
  return ::stat(path.c_str(), &file_stat) == 0;
}

bool LooksLikeRecordFile(const std::string& name) {
  // The store/manifest predicates come from the factory so this driver
  // stays in sync with what CreateRecordSink/OpenRecordSource dispatch
  // on; CSV has no constant (it is the extensionless fallback format).
  return EndsWith(name, ".csv") || pipeline::HasColumnStoreExtension(name) ||
         pipeline::HasShardManifestExtension(name);
}

/// Expands files/directories into a sorted list of candidate record
/// files (directories scanned one level deep).
std::vector<std::string> CollectInputs(const std::vector<std::string>& args) {
  std::vector<std::string> inputs;
  for (const std::string& arg : args) {
    if (!IsDirectory(arg)) {
      // A rolling-store STEM (the path an IngestService was started
      // with, minus the manifest extension) resolves to its manifest:
      // the latest PUBLISHED snapshot — open shards and sealed-but-
      // unpublished shards are invisible by protocol, so the sweep
      // attacks exactly what any concurrent snapshot reader would see.
      if (!LooksLikeRecordFile(arg) && !FileExists(arg) &&
          FileExists(arg + data::kShardManifestExtension)) {
        inputs.push_back(arg + data::kShardManifestExtension);
        continue;
      }
      inputs.push_back(arg);
      continue;
    }
    DIR* dir = ::opendir(arg.c_str());
    if (dir == nullptr) {
      std::fprintf(stderr, "warning: cannot open directory '%s'\n",
                   arg.c_str());
      continue;
    }
    const std::string prefix = EndsWith(arg, "/") ? arg : arg + "/";
    std::vector<std::string> found;
    while (struct dirent* entry = ::readdir(dir)) {
      const std::string name = entry->d_name;
      if (LooksLikeRecordFile(name) && !IsDirectory(prefix + name)) {
        found.push_back(prefix + name);
      }
    }
    ::closedir(dir);
    std::sort(found.begin(), found.end());  // Deterministic job order.
    inputs.insert(inputs.end(), found.begin(), found.end());
  }
  return inputs;
}

/// The sweep's resolved inputs: record files to attack, plus every
/// successfully-parsed manifest (each read exactly ONCE — the shard
/// exclusion, the noise-model width and the per-shard expansion all
/// reuse the same parse).
struct SweepInputs {
  std::vector<std::string> files;
  std::map<std::string, data::ShardManifest> manifests;
};

/// Parses the collected manifests and drops standalone shard files a
/// manifest already covers — a directory with "x.rrcm" + its shards is
/// ONE stream.
SweepInputs ResolveInputs(std::vector<std::string> inputs) {
  SweepInputs resolved;
  std::set<std::string> covered;
  for (const std::string& path : inputs) {
    if (!pipeline::HasShardManifestExtension(path)) continue;
    auto manifest = data::ReadShardManifest(path);
    if (!manifest.ok()) continue;  // Unreadable manifests fail as jobs.
    const std::string directory = data::ManifestDirectory(path);
    for (const auto& shard : manifest.value().shards) {
      covered.insert(directory + shard.relative_path);
    }
    resolved.manifests.emplace(path, std::move(manifest).value());
  }
  for (std::string& path : inputs) {
    if (covered.count(path) == 0) resolved.files.push_back(std::move(path));
  }
  return resolved;
}

pipeline::PipelineJob MakeJob(const std::string& path, size_t num_attributes,
                              double sigma,
                              const pipeline::StreamingAttackOptions& attack) {
  pipeline::PipelineJob job;
  job.name = path;
  job.attack = attack;
  job.noise = perturb::NoiseModel::IndependentGaussian(
      std::max<size_t>(1, num_attributes), sigma);
  job.disguised = [path]() -> Result<std::unique_ptr<pipeline::RecordSource>> {
    RR_ASSIGN_OR_RETURN(pipeline::OpenedRecordSource opened,
                        pipeline::OpenRecordSource(path));
    return std::move(opened.source);
  };
  return job;
}

/// One excluded shard, remembered with the manifest it came from so the
/// report can account for every row the sweep did not cover.
struct ManifestExclusion {
  std::string manifest;
  pipeline::ShardExclusion exclusion;
};

int RunSweep(const SweepInputs& inputs, double sigma,
             const std::string& attack_name, size_t chunk_rows,
             int workers, bool per_shard, int retries,
             const std::string& report_path) {
  // A reporting sweep owns the process-global telemetry for its
  // duration: counters restart at zero so the written report accounts
  // for exactly this batch, and a span capture brackets the run.
  const bool reporting = !report_path.empty();
  if (reporting) {
    metrics::ResetAllMetrics();
    trace::StartTracing();
  }

  pipeline::StreamingAttackOptions attack;
  attack.attack = attack_name == "pca"
                      ? pipeline::StreamingAttack::kPcaDr
                      : pipeline::StreamingAttack::kSpectralFiltering;
  attack.chunk_rows = chunk_rows;

  std::vector<pipeline::PipelineJob> jobs;
  std::vector<std::string> degraded_notes;
  std::vector<ManifestExclusion> exclusions;
  for (const std::string& path : inputs.files) {
    const auto manifest = inputs.manifests.find(path);
    size_t m = 0;
    if (manifest != inputs.manifests.end()) {
      m = manifest->second.column_names.size();
    } else {
      // The noise model must match the stream's width, which costs one
      // metadata open here; an unreadable file keeps a placeholder
      // model and fails cleanly inside its own job when the factory
      // reopens it.
      auto probed = pipeline::OpenRecordSource(path);
      if (probed.ok()) m = probed.value().attribute_names.size();
    }
    pipeline::PipelineJob job = MakeJob(path, m, sigma, attack);
    job.retry.max_attempts = retries;
    if (per_shard && manifest != inputs.manifests.end()) {
      // Degraded decomposition: a store that recovery left partially
      // usable still sweeps — healthy shards become jobs, quarantined
      // or rotten shards are named in the report instead of failing.
      pipeline::PerShardJobSet job_set =
          pipeline::MakePerShardJobsDegraded(manifest->second, path, job);
      for (auto& shard_job : job_set.jobs) {
        jobs.push_back(std::move(shard_job));
      }
      if (job_set.degraded()) {
        degraded_notes.push_back(path + ": " + job_set.DegradedSummary());
      }
      for (const pipeline::ShardExclusion& exclusion : job_set.excluded) {
        exclusions.push_back({path, exclusion});
      }
      continue;
    }
    jobs.push_back(std::move(job));
  }
  if (jobs.empty()) {
    std::fprintf(stderr, "no record files (*.csv, *.rrcs, *.rrcm) found\n");
    return 1;
  }

  pipeline::PipelineRunnerOptions runner_options;
  runner_options.num_workers = workers;
  const std::vector<pipeline::PipelineJobResult> results =
      pipeline::RunPipelineJobs(jobs, runner_options);

  std::printf("%-44s %8s %6s %4s %12s %9s\n", "job", "records", "attrs", "p",
              "rmse_vs_Y", "seconds");
  size_t failures = 0;
  for (const auto& result : results) {
    if (result.status.ok()) {
      std::printf("%-44s %8zu %6zu %4zu %12.6f %9.3f\n", result.name.c_str(),
                  result.report.num_records, result.report.num_attributes,
                  result.report.num_components,
                  result.report.rmse_vs_disguised, result.elapsed_seconds);
    } else {
      ++failures;
      std::printf("%-44s FAILED: %s\n", result.name.c_str(),
                  result.status.ToString().c_str());
    }
  }
  std::printf("%zu job(s), %zu failed\n", results.size(), failures);
  size_t total_retries = 0;
  for (const auto& result : results) {
    if (result.attempts > 1) total_retries += result.attempts - 1;
  }
  size_t quarantined = 0;
  for (const ManifestExclusion& entry : exclusions) {
    if (entry.exclusion.reason.find("quarantined") != std::string::npos) {
      ++quarantined;
    }
  }
  for (const std::string& note : degraded_notes) {
    std::printf("%s\n", note.c_str());
  }
  if (!degraded_notes.empty() || total_retries > 0) {
    // The degraded summary names the shards; this line accounts for the
    // sweep's health in counters (mirrored under "counters" in the
    // report as pipeline.job_retries / pipeline.shards_excluded).
    std::printf(
        "sweep telemetry: %zu retry(ies), %zu shard(s) excluded "
        "(%zu quarantined by recovery)\n",
        total_retries, exclusions.size(), quarantined);
  }

  if (reporting) {
    std::string exclusions_json = "[";
    for (size_t i = 0; i < exclusions.size(); ++i) {
      if (i > 0) exclusions_json.append(",");
      exclusions_json.append(pipeline::ShardExclusionJson(
          exclusions[i].manifest, exclusions[i].exclusion));
    }
    exclusions_json.append("]");
    // Which published snapshot each manifest job attacked: the manifest
    // path and its row count as parsed at resolve time. For a rolling
    // store this pins the run to one snapshot even if a writer
    // republished the manifest while the sweep ran.
    std::string snapshots_json = "[";
    bool first_snapshot = true;
    for (const auto& entry : inputs.manifests) {
      if (!first_snapshot) snapshots_json.append(",");
      first_snapshot = false;
      snapshots_json.append(
          "{\"manifest\":\"" + report::JsonEscape(entry.first) +
          "\",\"rows\":" + std::to_string(entry.second.num_records) +
          ",\"shards\":" + std::to_string(entry.second.shards.size()) + "}");
    }
    snapshots_json.append("]");

    report::RunReportBuilder builder("sweep_attack");
    builder.AddConfigDouble("sigma", sigma);
    builder.AddConfig("attack", attack_name);
    builder.AddConfigInt("chunk_rows", static_cast<int64_t>(chunk_rows));
    builder.AddConfigInt("workers", workers);
    builder.AddConfigBool("per_shard", per_shard);
    builder.AddConfigInt("retries", retries);
    builder.AddConfigInt("jobs_total", static_cast<int64_t>(results.size()));
    builder.AddConfigInt("jobs_failed", static_cast<int64_t>(failures));
    builder.AddRawSection("jobs", pipeline::JobResultsJson(results));
    builder.AddRawSection("exclusions", exclusions_json);
    builder.AddRawSection("snapshots", snapshots_json);
    builder.SetSpans(trace::StopTracing());
    const Status written = builder.WriteFile(report_path);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("report written to %s\n", report_path.c_str());
  }
  return failures == 0 ? 0 : 1;
}

/// Self-demo: the same disguised records as CSV + store + 3-shard
/// manifest in sweep_demo/, swept as one batch (three jobs over
/// identical bytes — their reports agree).
int RunDemo(double sigma, size_t chunk_rows, int workers) {
  std::printf(
      "No input given — demonstrating a mixed-format directory sweep.\n"
      "Usage: sweep_attack <files-or-dirs>... [--attack=sf|pca] "
      "[--sigma=S] [--chunk_rows=N] [--workers=W] [--per_shard=true] "
      "[--retries=N] [--report=PATH]\n\n");
  ::mkdir("sweep_demo", 0755);
  stats::Rng rng(20050608);
  data::SyntheticDatasetSpec spec;
  spec.eigenvalues = data::TwoLevelSpectrum(8, 2, 6.0, 0.2);
  auto generated = data::GenerateSpectrumDataset(spec, 5000, &rng);
  if (!generated.ok()) {
    std::fprintf(stderr, "%s\n", generated.status().ToString().c_str());
    return 1;
  }
  auto scheme = perturb::IndependentNoiseScheme::Gaussian(8, sigma);
  auto disguised = scheme.Disguise(generated.value().dataset, &rng);
  if (!disguised.ok()) {
    std::fprintf(stderr, "%s\n", disguised.status().ToString().c_str());
    return 1;
  }
  // One CSV, then the store and the manifest built from the CSV's parsed
  // values so all three backends hold identical doubles.
  if (!data::WriteCsv(disguised.value(), "sweep_demo/reports.csv").ok()) {
    std::fprintf(stderr, "cannot write sweep_demo/reports.csv\n");
    return 1;
  }
  auto parsed = data::ReadCsv("sweep_demo/reports.csv");
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 1;
  }
  if (!data::WriteColumnStore(parsed.value(), "sweep_demo/reports.rrcs")
           .ok()) {
    std::fprintf(stderr, "cannot write sweep_demo/reports.rrcs\n");
    return 1;
  }
  data::RollingStoreOptions sharded;
  sharded.shard_rows = 1700;  // 3 shards, the last one partial.
  const Status written = data::WriteShardedStore(
      parsed.value(), "sweep_demo/reports.rrcm", sharded);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  return RunSweep(ResolveInputs(CollectInputs({"sweep_demo"})), sigma,
                  "sf", chunk_rows, workers, /*per_shard=*/false,
                  /*retries=*/1, /*report_path=*/"");
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = Flags::Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 2;
  }
  const Flags& flags = parsed.value();
  const auto sigma = flags.GetDouble("sigma", 0.5);
  const std::string attack = flags.GetString("attack", "sf");
  const auto chunk_rows = flags.GetInt("chunk_rows", 4096);
  const auto workers = flags.GetInt("workers", 0);
  const auto per_shard = flags.GetBool("per_shard", false);
  const auto retries = flags.GetInt("retries", 1);
  const std::string report_path = flags.GetString("report", "");
  if (!sigma.ok() || sigma.value() <= 0 || !chunk_rows.ok() ||
      chunk_rows.value() < 1 || !workers.ok() || workers.value() < 0 ||
      !per_shard.ok() || !retries.ok() || retries.value() < 1 ||
      (attack != "sf" && attack != "pca")) {
    std::fprintf(stderr, "bad flag value\n");
    return 2;
  }
  if (flags.positional().empty()) {
    return RunDemo(sigma.value(), static_cast<size_t>(chunk_rows.value()),
                   static_cast<int>(workers.value()));
  }
  return RunSweep(ResolveInputs(CollectInputs(flags.positional())),
                  sigma.value(), attack,
                  static_cast<size_t>(chunk_rows.value()),
                  static_cast<int>(workers.value()), per_shard.value(),
                  static_cast<int>(retries.value()), report_path);
}
