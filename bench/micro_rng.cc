// Micro-benchmark for the random substrate: the Philox generator's
// scalar draws (Gaussian(), Uniform(), one call per value, served from
// its group cache by the scalar Box–Muller reference) vs its batch fills
// (SIMD engines), for Gaussian / uniform / Bernoulli draws and MVN
// records (a SampleRecord loop vs one SampleMatrix), at n in {1e5, 1e6}
// draws. Writes BENCH_rng.json so the perf trajectory is checked in.
//
// The binary is also a perf gate: it exits non-zero if the batch
// Gaussian fill is not at least kMinGaussianSpeedup x faster than the
// scalar Gaussian() loop at the largest size — CI runs
// `micro_rng --smoke` next to the linalg/pipeline smokes, so a
// regression that deoptimizes the batch path (or silently knocks
// dispatch down to the scalar engine on SIMD hardware) fails the build.
//
// Flags: --smoke=true   small sizes / fewer reps (CI)
//        --seed=N       RNG seed (default 7)
//        --json=PATH    output path (default BENCH_rng.json)

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "stats/mvn.h"
#include "stats/philox.h"

namespace randrecon {
namespace bench {
namespace {

/// The CI gate: batch Gaussian fill must beat the scalar Gaussian() loop
/// by at least this factor on every machine the bench runs on.
constexpr double kMinGaussianSpeedup = 4.0;

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

struct Comparison {
  double scalar_seconds = 0.0;
  double batch_seconds = 0.0;
  double speedup = 0.0;
};

/// Times scalar vs batch back to back per rep and reports medians plus
/// the median per-rep ratio (pairing the reps makes the ratio robust
/// against machine noise drifting between the two measurements).
template <typename ScalarFn, typename BatchFn>
Comparison Compare(int reps, const ScalarFn& scalar_fn,
                   const BatchFn& batch_fn) {
  std::vector<double> scalar_times, batch_times, ratios;
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch scalar_watch;
    scalar_fn();
    const double scalar_seconds =
        std::max(scalar_watch.ElapsedSeconds(), 1e-9);
    Stopwatch batch_watch;
    batch_fn();
    const double batch_seconds = std::max(batch_watch.ElapsedSeconds(), 1e-9);
    scalar_times.push_back(scalar_seconds);
    batch_times.push_back(batch_seconds);
    ratios.push_back(scalar_seconds / batch_seconds);
  }
  Comparison comparison;
  comparison.scalar_seconds = Median(std::move(scalar_times));
  comparison.batch_seconds = Median(std::move(batch_times));
  comparison.speedup = Median(std::move(ratios));
  return comparison;
}

void Report(std::vector<BenchResult>* results, const std::string& stem,
            double draws, const Comparison& comparison) {
  BenchResult scalar;
  scalar.name = stem + "/scalar";
  scalar.elapsed_seconds = comparison.scalar_seconds;
  scalar.records_per_second = draws / comparison.scalar_seconds;
  results->push_back(scalar);
  BenchResult batch;
  batch.name = stem + "/batch";
  batch.elapsed_seconds = comparison.batch_seconds;
  batch.records_per_second = draws / comparison.batch_seconds;
  batch.metrics.emplace_back("speedup", comparison.speedup);
  results->push_back(batch);
  std::printf(
      "%-24s scalar %8.2f ns/draw  batch %8.2f ns/draw  speedup %5.2fx\n",
      stem.c_str(), 1e9 * comparison.scalar_seconds / draws,
      1e9 * comparison.batch_seconds / draws, comparison.speedup);
}

}  // namespace
}  // namespace bench
}  // namespace randrecon

int main(int argc, char** argv) {
  using namespace randrecon;
  using bench::BenchResult;

  Result<Flags> parsed = Flags::Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 2;
  }
  const Flags& flags = parsed.value();
  const auto smoke = flags.GetBool("smoke", false);
  const auto seed = flags.GetInt("seed", 7);
  if (!smoke.ok() || !seed.ok()) {
    std::fprintf(stderr, "bad flag value\n");
    return 2;
  }
  const std::string json_path = flags.GetString("json", "BENCH_rng.json");

  const std::vector<size_t> sizes = smoke.value()
                                        ? std::vector<size_t>{200000}
                                        : std::vector<size_t>{100000, 1000000};
  std::printf("substrate engine: %s\n", stats::philox_internal::ActiveEngine());

  std::vector<BenchResult> results;
  double gaussian_speedup_at_max = 0.0;

  // Warm the engines, the thread pool and the buffers before timing.
  {
    std::vector<double> warm(sizes.back());
    stats::Philox gen(1);
    gen.FillGaussian(warm.data(), warm.size());
    for (size_t i = 0; i < 1000; ++i) warm[i % warm.size()] = gen.Gaussian();
  }

  for (size_t n : sizes) {
    const int reps = n <= 200000 ? 9 : 5;
    const double draws = static_cast<double>(n);
    const std::string suffix = "/" + std::to_string(n);
    std::vector<double> buffer(n);
    std::vector<uint8_t> bits(n);
    stats::Philox gen(static_cast<uint64_t>(seed.value()));

    const bench::Comparison gaussian = bench::Compare(
        reps,
        [&] {
          for (size_t i = 0; i < n; ++i) buffer[i] = gen.Gaussian();
        },
        [&] { gen.FillGaussian(buffer.data(), n); });
    bench::Report(&results, "gaussian" + suffix, draws, gaussian);
    if (n == sizes.back()) gaussian_speedup_at_max = gaussian.speedup;

    const bench::Comparison uniform = bench::Compare(
        reps,
        [&] {
          for (size_t i = 0; i < n; ++i) buffer[i] = gen.Uniform(0.0, 1.0);
        },
        [&] { gen.FillUniform(buffer.data(), n); });
    bench::Report(&results, "uniform" + suffix, draws, uniform);

    const bench::Comparison bernoulli = bench::Compare(
        reps,
        [&] {
          for (size_t i = 0; i < n; ++i) {
            bits[i] = gen.Uniform(0.0, 1.0) < 0.3 ? 1 : 0;
          }
        },
        [&] { gen.FillBernoulli(0.3, bits.data(), n); });
    bench::Report(&results, "bernoulli" + suffix, draws, bernoulli);

    // MVN records: m = 32 attributes, n/32 rows, so both sides consume n
    // Gaussian draws: record by record (scalar draws + one matvec each)
    // vs one batch fill + one blocked Z·Aᵀ product.
    const size_t m = 32;
    const size_t rows = n / m;
    stats::Philox cov_rng(99);
    linalg::Matrix g = cov_rng.GaussianMatrix(m, m);
    linalg::Matrix cov(m, m);
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < m; ++j) {
        double dot = 0.0;
        for (size_t k = 0; k < m; ++k) dot += g(i, k) * g(j, k);
        cov(i, j) = dot / m + (i == j ? 1.0 : 0.0);
      }
    }
    auto sampler = stats::MultivariateNormalSampler::CreateZeroMean(cov);
    if (!sampler.ok()) {
      std::fprintf(stderr, "%s\n", sampler.status().ToString().c_str());
      return 1;
    }
    const bench::Comparison sample_matrix = bench::Compare(
        reps,
        [&] {
          for (size_t i = 0; i < rows; ++i) sampler.value().SampleRecord(&gen);
        },
        [&] { sampler.value().SampleMatrix(rows, &gen); });
    bench::Report(&results, "sample_matrix" + suffix, static_cast<double>(rows),
                  sample_matrix);
  }

  const bench::BenchConfig config = {
      {"smoke", smoke.value() ? "true" : "false"},
      {"seed", std::to_string(seed.value())},
      {"engine", stats::philox_internal::ActiveEngine()},
      {"min_gaussian_speedup", FormatDouble(bench::kMinGaussianSpeedup, 1)},
  };
  const Status json_status =
      bench::WriteBenchJson(json_path, "micro_rng", config, results);
  if (!json_status.ok()) {
    std::fprintf(stderr, "%s\n", json_status.ToString().c_str());
    return 1;
  }
  std::printf("bench json written to %s\n", json_path.c_str());

  if (gaussian_speedup_at_max < bench::kMinGaussianSpeedup) {
    std::fprintf(stderr,
                 "FAIL: batch Gaussian fill speedup %.2fx < required %.1fx\n",
                 gaussian_speedup_at_max, bench::kMinGaussianSpeedup);
    return 1;
  }
  return 0;
}
