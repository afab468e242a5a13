// Micro-benchmark for the blocked/parallel kernel layer (PR 1): times the
// pre-PR naive loops against the kernels they were replaced by — dense
// matmul, sample covariance, symmetric Jacobi eigendecomposition — at
// m in {64, 256, 512}, and writes BENCH_linalg.json so every future PR
// has a perf trajectory to compare against.
//
// The "naive" implementations below are verbatim copies of the seed
// code paths: the i-k-j operator* loop, the column-pair SampleCovariance
// loop over bounds-checked operator(), and the Jacobi sweep with a full
// off-diagonal rescan per sweep. Keep them frozen — they are the
// baseline the acceptance numbers are measured against.
//
// Flags: --smoke=true     small sizes / single rep (CI)
//        --seed=N         RNG seed (default 7)
//        --json=PATH      output path (default BENCH_linalg.json)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "linalg/eigen.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "linalg/matrix_util.h"
#include "stats/moments.h"
#include "stats/rng.h"

namespace randrecon {
namespace bench {
namespace {

using linalg::Matrix;
using linalg::Vector;

// ---------------------------------------------------------------------------
// Frozen pre-PR baselines.
// ---------------------------------------------------------------------------

Matrix NaiveMatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* a_row = a.row_data(i);
    double* out_row = out.row_data(i);
    for (size_t k = 0; k < a.cols(); ++k) {
      const double a_ik = a_row[k];
      if (a_ik == 0.0) continue;
      const double* b_row = b.row_data(k);
      for (size_t j = 0; j < b.cols(); ++j) {
        out_row[j] += a_ik * b_row[j];
      }
    }
  }
  return out;
}

Matrix NaiveSampleCovariance(const Matrix& data) {
  const size_t n = data.rows();
  const size_t m = data.cols();
  const Matrix centered = stats::CenterColumns(data);
  Matrix cov(m, m);
  const double denom = static_cast<double>(n);
  for (size_t a = 0; a < m; ++a) {
    for (size_t b = a; b < m; ++b) {
      double sum = 0.0;
      for (size_t i = 0; i < n; ++i) {
        sum += centered(i, a) * centered(i, b);
      }
      cov(a, b) = sum / denom;
      cov(b, a) = cov(a, b);
    }
  }
  return cov;
}

double NaiveOffDiagonalSquaredSum(const Matrix& a) {
  double sum = 0.0;
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      if (i != j) sum += a(i, j) * a(i, j);
    }
  }
  return sum;
}

Result<linalg::EigenDecomposition> NaiveSymmetricEigen(const Matrix& input) {
  // The library solver's convergence settings, frozen with the reference.
  constexpr double kTolerance = 1e-12;
  constexpr int kMaxSweeps = 64;
  const size_t m = input.rows();
  Matrix a = linalg::Symmetrize(input);
  Matrix q = Matrix::Identity(m);
  const double scale = linalg::FrobeniusNorm(a);
  const double threshold = kTolerance * kTolerance *
                           (scale > 0.0 ? scale * scale : 1.0);
  bool converged = NaiveOffDiagonalSquaredSum(a) <= threshold;
  for (int sweep = 0; sweep < kMaxSweeps && !converged; ++sweep) {
    for (size_t p = 0; p + 1 < m; ++p) {
      for (size_t r = p + 1; r < m; ++r) {
        const double apr = a(p, r);
        if (std::fabs(apr) < 1e-300) continue;
        const double app = a(p, p);
        const double arr = a(r, r);
        const double theta = (arr - app) / (2.0 * apr);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (size_t k = 0; k < m; ++k) {
          const double akp = a(k, p);
          const double akr = a(k, r);
          a(k, p) = c * akp - s * akr;
          a(k, r) = s * akp + c * akr;
        }
        for (size_t k = 0; k < m; ++k) {
          const double apk = a(p, k);
          const double ark = a(r, k);
          a(p, k) = c * apk - s * ark;
          a(r, k) = s * apk + c * ark;
        }
        for (size_t k = 0; k < m; ++k) {
          const double qkp = q(k, p);
          const double qkr = q(k, r);
          q(k, p) = c * qkp - s * qkr;
          q(k, r) = s * qkp + c * qkr;
        }
      }
    }
    converged = NaiveOffDiagonalSquaredSum(a) <= threshold;
  }
  if (!converged) {
    return Status::NumericalError("naive Jacobi did not converge");
  }
  Vector eigenvalues(m);
  for (size_t i = 0; i < m; ++i) eigenvalues[i] = a(i, i);
  std::sort(eigenvalues.begin(), eigenvalues.end(),
            [](double lhs, double rhs) { return lhs > rhs; });
  return linalg::EigenDecomposition{std::move(eigenvalues), std::move(q)};
}

// ---------------------------------------------------------------------------
// Harness.
// ---------------------------------------------------------------------------

Matrix RandomSpd(size_t m, stats::Rng* rng) {
  const Matrix g = rng->GaussianMatrix(m, m);
  Matrix a = linalg::Symmetrize(g * g.Transpose());
  for (size_t i = 0; i < m; ++i) a(i, i) += 1.0;
  a *= 1.0 / static_cast<double>(m);
  return a;
}

struct Comparison {
  double naive_seconds = 0.0;
  double kernel_seconds = 0.0;
  double speedup = 0.0;
  double max_abs_diff = 0.0;
};

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Times the two implementations back-to-back within each rep and reports
/// median times plus the median of the per-rep speedup ratios. Pairing the
/// ratio within a rep makes it robust against frequency drift and noisy
/// neighbours: both sides of one ratio share the same machine state.
template <typename NaiveFn, typename KernelFn>
Comparison TimePair(int reps, const NaiveFn& naive_fn,
                    const KernelFn& kernel_fn) {
  std::vector<double> naive_samples, kernel_samples, ratios;
  for (int rep = 0; rep < reps; ++rep) {
    // Floor at 1 ns: a coarse clock reading 0 must not produce inf ratios.
    Stopwatch watch;
    naive_fn();
    naive_samples.push_back(std::max(watch.ElapsedSeconds(), 1e-9));
    watch.Restart();
    kernel_fn();
    kernel_samples.push_back(std::max(watch.ElapsedSeconds(), 1e-9));
    ratios.push_back(naive_samples.back() / kernel_samples.back());
  }
  Comparison comparison;
  comparison.naive_seconds = Median(std::move(naive_samples));
  comparison.kernel_seconds = Median(std::move(kernel_samples));
  comparison.speedup = Median(std::move(ratios));
  return comparison;
}

void Record(std::vector<BenchResult>* results, const std::string& op, size_t m,
            double work_records, const Comparison& comparison) {
  BenchResult naive;
  naive.name = op + "/" + std::to_string(m) + "/naive";
  naive.elapsed_seconds = comparison.naive_seconds;
  naive.records_per_second = work_records / comparison.naive_seconds;
  results->push_back(naive);

  BenchResult kernel;
  kernel.name = op + "/" + std::to_string(m) + "/kernel";
  kernel.elapsed_seconds = comparison.kernel_seconds;
  kernel.records_per_second = work_records / comparison.kernel_seconds;
  kernel.metrics.emplace_back("speedup", comparison.speedup);
  kernel.metrics.emplace_back("max_abs_diff", comparison.max_abs_diff);
  results->push_back(kernel);

  std::printf("%-14s m=%4zu  naive %9.4fs  kernel %9.4fs  speedup %6.2fx  "
              "maxdiff %.2e\n",
              op.c_str(), m, comparison.naive_seconds,
              comparison.kernel_seconds, comparison.speedup,
              comparison.max_abs_diff);
}

}  // namespace
}  // namespace bench
}  // namespace randrecon

int main(int argc, char** argv) {
  using namespace randrecon;
  using bench::BenchResult;
  using linalg::Matrix;

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
  const std::string json_path = flags.GetString("json", "BENCH_linalg.json");

  const std::vector<size_t> sizes =
      smoke.value() ? std::vector<size_t>{64, 128}
                    : std::vector<size_t>{64, 256, 512};
  stats::Rng rng(static_cast<uint64_t>(seed.value()));
  std::vector<BenchResult> results;

  for (size_t m : sizes) {
    const int reps = m <= 64 ? 50 : 9;

    // Dense matmul: C = A * B.
    {
      const Matrix a = rng.GaussianMatrix(m, m);
      const Matrix b = rng.GaussianMatrix(m, m);
      Matrix naive_out, kernel_out;
      bench::Comparison comparison = bench::TimePair(
          reps, [&] { naive_out = bench::NaiveMatMul(a, b); },
          [&] { kernel_out = linalg::kernels::MatMul(a, b); });
      comparison.max_abs_diff = linalg::MaxAbsDifference(naive_out, kernel_out);
      bench::Record(&results, "matmul", m, static_cast<double>(m), comparison);
    }

    // Sample covariance over n = 4m records.
    {
      const size_t n = 4 * m;
      const Matrix data = rng.GaussianMatrix(n, m);
      Matrix naive_cov, kernel_cov;
      bench::Comparison comparison = bench::TimePair(
          reps, [&] { naive_cov = bench::NaiveSampleCovariance(data); },
          [&] { kernel_cov = stats::SampleCovariance(data); });
      comparison.max_abs_diff = linalg::MaxAbsDifference(naive_cov, kernel_cov);
      bench::Record(&results, "covariance", m, static_cast<double>(n),
                    comparison);
    }

    // Symmetric eigendecomposition of a random SPD matrix.
    {
      const Matrix spd = bench::RandomSpd(m, &rng);
      const int eigen_reps = m <= 64 ? 5 : 1;
      Result<linalg::EigenDecomposition> naive_eig =
          Status::NumericalError("not run");
      Result<linalg::EigenDecomposition> kernel_eig =
          Status::NumericalError("not run");
      bench::Comparison comparison = bench::TimePair(
          eigen_reps, [&] { naive_eig = bench::NaiveSymmetricEigen(spd); },
          [&] { kernel_eig = linalg::SymmetricEigen(spd); });
      if (!naive_eig.ok() || !kernel_eig.ok()) {
        std::fprintf(stderr, "eigen failed at m=%zu\n", m);
        return 1;
      }
      double max_eval_diff = 0.0;
      for (size_t i = 0; i < m; ++i) {
        max_eval_diff = std::max(
            max_eval_diff, std::fabs(naive_eig.value().eigenvalues[i] -
                                     kernel_eig.value().eigenvalues[i]));
      }
      comparison.max_abs_diff = max_eval_diff;
      bench::Record(&results, "eigen", m, static_cast<double>(m), comparison);
    }
  }

  const bench::BenchConfig config = {
      {"smoke", smoke.value() ? "true" : "false"},
      {"seed", std::to_string(seed.value())},
      {"covariance_records", "4m"},
      {"threads_env", std::getenv("RANDRECON_THREADS")
                          ? std::getenv("RANDRECON_THREADS")
                          : "auto"},
  };
  const Status json_status =
      bench::WriteBenchJson(json_path, "micro_linalg", config, results);
  if (!json_status.ok()) {
    std::fprintf(stderr, "%s\n", json_status.ToString().c_str());
    return 1;
  }
  std::printf("bench json written to %s\n", json_path.c_str());
  return 0;
}
