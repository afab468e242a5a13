#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.h"
#include "common/build_info.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "data/synthetic.h"
#include "stats/rng.h"

namespace perfbench {

namespace pipeline = randrecon::pipeline;
namespace perturb = randrecon::perturb;

uint64_t NowNanos() { return randrecon::trace::NowNanos(); }

uint64_t CpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

double Samples::Sum() const {
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum;
}

double Samples::Percentile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  // Nearest rank: the ceil(q/100 * n)-th smallest sample.
  size_t rank = static_cast<size_t>(
      std::ceil(q / 100.0 * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

void Results::Metric(const std::string& name, double value,
                     const std::string& unit, const std::string& note) {
  if (!std::isfinite(value)) {
    Check(false, "metric " + name + " is not finite");
    value = 0.0;
  }
  entries_.push_back({name, value, unit});
  std::printf("%-32s %16.6f %-8s %s\n", name.c_str(), value, unit.c_str(),
              note.c_str());
  std::fflush(stdout);
}

void Results::Percentile(const std::string& name, const Samples& samples,
                         double q, double scale, const std::string& unit) {
  if (!Check(!samples.empty(), name + " has samples")) return;
  Metric(name, samples.Percentile(q) * scale, unit,
         "(n=" + std::to_string(samples.count()) + ")");
}

bool Results::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    checks_ok_ = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  return ok;
}

void Results::Operations(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

int Results::Finish() const {
  std::string json = "{\"correct\": ";
  json += checks_ok_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < entries_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", entries_[i].value);
    if (i > 0) json += ", ";
    json += "\"" + entries_[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + entries_[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return checks_ok_ ? 0 : 1;
}

void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

perturb::NoiseModel Population::noise() const {
  return perturb::NoiseModel::IndependentGaussian(m, sigma);
}

Population MakePopulation(size_t m, uint64_t seed) {
  Population population;
  population.m = m;
  population.principal = 4;
  population.sigma = 0.5;
  population.population_seed = seed * 3 + 1;
  population.noise_seed = seed * 3 + 2;
  randrecon::data::SyntheticDatasetSpec spec;
  spec.eigenvalues = randrecon::data::TwoLevelSpectrum(
      m, population.principal, /*principal_value=*/8.0,
      /*residual_value=*/0.1);
  randrecon::stats::Rng rng(seed * 3 + 3);
  auto truth = randrecon::data::GenerateSpectrumDataset(spec, 0, &rng);
  if (!truth.ok()) Die("population: " + truth.status().ToString());
  population.eigenvalues = spec.eigenvalues;
  population.covariance = truth.value().covariance;
  population.scheme = std::make_unique<perturb::IndependentNoiseScheme>(
      perturb::IndependentNoiseScheme::Gaussian(m, population.sigma));
  return population;
}

std::unique_ptr<pipeline::RecordSource> OriginalSource(
    const Population& population, size_t n) {
  auto created = pipeline::MvnRecordSource::Create(
      Vector(population.m, 0.0), population.covariance, n,
      population.population_seed);
  if (!created.ok()) Die("mvn source: " + created.status().ToString());
  return std::make_unique<pipeline::MvnRecordSource>(
      std::move(created).value());
}

std::unique_ptr<pipeline::RecordSource> DisguisedSource(
    const Population& population, size_t n) {
  return std::make_unique<pipeline::PerturbingRecordSource>(
      OriginalSource(population, n), population.scheme.get(),
      population.noise_seed);
}

void FillPool(const Population& population, size_t n, size_t batch_rows,
              std::vector<Matrix>* pool) {
  if (pool->empty()) {
    pool->assign(n / batch_rows, Matrix(batch_rows, population.m));
  }
  auto source = DisguisedSource(population, n);
  for (Matrix& batch : *pool) {
    auto rows = source->NextChunk(&batch);
    if (!rows.ok() || rows.value() != batch_rows) {
      Die("pool generation came up short");
    }
  }
}

pipeline::StreamingAttackOptions AttackOptions(int num_threads) {
  pipeline::StreamingAttackOptions options;
  options.attack = pipeline::StreamingAttack::kPcaDr;
  options.chunk_rows = 4096;
  options.parallel.num_threads = num_threads;
  return options;
}

void CheckAttackQuality(const Population& population,
                        const pipeline::StreamingAttackReport& report,
                        const std::string& label, Results* results) {
  results->Check(report.num_components == population.principal,
                 label + ": PCA-DR keeps p = " +
                     std::to_string(population.principal) + " (kept " +
                     std::to_string(report.num_components) + ")");
  bool spectrum_ok = report.eigenvalues.size() == population.m;
  for (size_t i = 0; spectrum_ok && i < population.m; ++i) {
    const double truth = population.eigenvalues[i];
    const double tolerance = i < population.principal ? 0.05 * truth : 0.05;
    spectrum_ok = std::fabs(report.eigenvalues[i] - truth) <= tolerance;
  }
  results->Check(spectrum_ok,
                 label + ": estimated spectrum within tolerance of the truth");
}

bool BitwiseEqual(const pipeline::StreamingAttackReport& a,
                  const pipeline::StreamingAttackReport& b) {
  return a.num_records == b.num_records &&
         a.num_attributes == b.num_attributes &&
         a.num_components == b.num_components &&
         a.has_reference == b.has_reference &&
         a.eigenvalues.size() == b.eigenvalues.size() &&
         a.mean.size() == b.mean.size() &&
         std::memcmp(a.eigenvalues.data(), b.eigenvalues.data(),
                     a.eigenvalues.size() * sizeof(double)) == 0 &&
         std::memcmp(a.mean.data(), b.mean.data(),
                     a.mean.size() * sizeof(double)) == 0 &&
         std::memcmp(&a.rmse_vs_disguised, &b.rmse_vs_disguised,
                     sizeof(double)) == 0 &&
         std::memcmp(&a.rmse_vs_reference, &b.rmse_vs_reference,
                     sizeof(double)) == 0;
}

std::vector<std::string> ColumnNames(size_t m) {
  std::vector<std::string> names;
  for (size_t j = 0; j < m; ++j) names.push_back("x" + std::to_string(j));
  return names;
}

void ResetDir(const std::string& dir) {
  std::error_code error;
  std::filesystem::remove_all(dir, error);
  std::filesystem::create_directories(dir, error);
  if (error) Die("cannot create " + dir + ": " + error.message());
}

void RemoveDir(const std::string& dir) {
  std::error_code error;
  std::filesystem::remove_all(dir, error);
}

uint64_t CounterValue(const std::string& name) {
  for (const auto& counter : randrecon::metrics::Snapshot().counters) {
    if (counter.name == name) return counter.value;
  }
  Die("no counter " + name);
}

uint64_t HistogramSum(const std::string& name) {
  for (const auto& histogram : randrecon::metrics::Snapshot().histograms) {
    if (histogram.name == name) return histogram.sum;
  }
  Die("no histogram " + name);
}

namespace {

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                  &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    const size_t first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

std::string Escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::string IdentityJson(const Args& args) {
  char seconds[32];
  std::snprintf(seconds, sizeof(seconds), "%g", args.seconds);
  return std::string("{\"build_info\":") + randrecon::BuildInfoJson() +
         ",\"cpu_model\":\"" + Escape(CpuModel()) + "\",\"nproc\":" +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"thread_budget\":\"2 producers + 1 scheduler thread; attack "
         "pool = nproc\",\"workload\":\"" +
         Escape(args.workload) + "\",\"seed\":" + std::to_string(args.seed) +
         ",\"seconds\":" + seconds + ",\"trace\":" +
         (args.trace ? "true" : "false") + "}";
}

}  // namespace perfbench
