// Google-benchmark microbenchmarks for the reconstruction attacks
// themselves: cost per full n x m reconstruction, on the same disguised
// dataset per dimension so numbers are directly comparable across
// schemes.

#include <benchmark/benchmark.h>

#include "core/be_dr.h"
#include "core/ndr.h"
#include "core/pca_dr.h"
#include "core/spectral_filtering.h"
#include "core/udr.h"
#include "data/synthetic.h"
#include "perturb/schemes.h"
#include "stats/rng.h"

namespace randrecon {
namespace {

struct Fixture {
  linalg::Matrix disguised;
  perturb::NoiseModel noise;
};

Fixture MakeFixture(size_t m) {
  stats::Rng rng(42 + m);
  data::SyntheticDatasetSpec spec;
  spec.eigenvalues = data::TwoLevelSpectrumWithTrace(m, 5, 1.0, 100.0);
  auto synthetic = data::GenerateSpectrumDataset(spec, 1000, &rng);
  auto scheme = perturb::IndependentNoiseScheme::Gaussian(m, 5.0);
  auto disguised = scheme.Disguise(synthetic.value().dataset, &rng);
  return {disguised.value().records(), scheme.noise_model()};
}

void BM_NdrReconstruct(benchmark::State& state) {
  Fixture f = MakeFixture(static_cast<size_t>(state.range(0)));
  core::NdrReconstructor attack;
  for (auto _ : state) {
    benchmark::DoNotOptimize(attack.Reconstruct(f.disguised, f.noise));
  }
}
BENCHMARK(BM_NdrReconstruct)->Arg(20)->Arg(100);

void BM_UdrClosedFormReconstruct(benchmark::State& state) {
  Fixture f = MakeFixture(static_cast<size_t>(state.range(0)));
  core::UdrOptions options;
  options.estimator = core::UdrDensityEstimator::kGaussianClosedForm;
  core::UdrReconstructor attack(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(attack.Reconstruct(f.disguised, f.noise));
  }
}
BENCHMARK(BM_UdrClosedFormReconstruct)->Arg(20)->Arg(100);

void BM_UdrAs2000Reconstruct(benchmark::State& state) {
  // The expensive path: EM density reconstruction per attribute. Kept to
  // m = 8 so the default benchmark time budget stays sane.
  Fixture f = MakeFixture(8);
  core::UdrOptions options;
  options.estimator = core::UdrDensityEstimator::kAs2000Grid;
  core::UdrReconstructor attack(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(attack.Reconstruct(f.disguised, f.noise));
  }
}
BENCHMARK(BM_UdrAs2000Reconstruct);

void BM_SfReconstruct(benchmark::State& state) {
  Fixture f = MakeFixture(static_cast<size_t>(state.range(0)));
  core::SpectralFilteringReconstructor attack;
  for (auto _ : state) {
    benchmark::DoNotOptimize(attack.Reconstruct(f.disguised, f.noise));
  }
}
BENCHMARK(BM_SfReconstruct)->Arg(20)->Arg(100);

void BM_PcaDrReconstruct(benchmark::State& state) {
  Fixture f = MakeFixture(static_cast<size_t>(state.range(0)));
  core::PcaReconstructor attack;
  for (auto _ : state) {
    benchmark::DoNotOptimize(attack.Reconstruct(f.disguised, f.noise));
  }
}
BENCHMARK(BM_PcaDrReconstruct)->Arg(20)->Arg(100);

void BM_BeDrReconstruct(benchmark::State& state) {
  Fixture f = MakeFixture(static_cast<size_t>(state.range(0)));
  core::BayesEstimateReconstructor attack;
  for (auto _ : state) {
    benchmark::DoNotOptimize(attack.Reconstruct(f.disguised, f.noise));
  }
}
BENCHMARK(BM_BeDrReconstruct)->Arg(20)->Arg(100);

void BM_BeDrLiteralFormula(benchmark::State& state) {
  Fixture f = MakeFixture(static_cast<size_t>(state.range(0)));
  core::BeDrOptions options;
  options.use_literal_formula = true;
  options.moment_options.eigen_floor = 1e-6;
  core::BayesEstimateReconstructor attack(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(attack.Reconstruct(f.disguised, f.noise));
  }
}
BENCHMARK(BM_BeDrLiteralFormula)->Arg(20)->Arg(100);

}  // namespace
}  // namespace randrecon

BENCHMARK_MAIN();
