// Shared pieces of the end-to-end benchmark: exact sample statistics,
// the result sink that prints every metric and the final JSON line, the
// §7.1 input population, and the workload entry points.
//
// Every workload drives the library through its public API only. The
// timers here sit in the benchmark's own files, around calls into each
// layer; nothing in src/ is instrumented for the benchmark's sake.

#ifndef RANDRECON_PERFBENCH_BENCH_H_
#define RANDRECON_PERFBENCH_BENCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "perturb/noise_model.h"
#include "perturb/schemes.h"
#include "pipeline/record_source.h"
#include "pipeline/streaming_attack.h"

namespace perfbench {

using randrecon::linalg::Matrix;
using randrecon::linalg::Vector;

/// Rows per sealed shard of every store the benchmark writes.
constexpr size_t kShardRows = 1u << 16;
/// Rows per open-loop batch.
constexpr size_t kOfferRows = 256;

/// Command-line arguments of one run.
struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

/// Nanoseconds on the library's clock (steady_clock).
uint64_t NowNanos();

/// Process CPU time in nanoseconds (all threads).
uint64_t CpuNanos();

/// Raw samples with exact order statistics.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Sum() const;
  /// Exact nearest-rank percentile, q in [0, 100]; 0 when empty.
  double Percentile(double q) const;
  double Median() const { return Percentile(50.0); }
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

/// Collects metrics and correctness checks; prints one human-readable line
/// per metric and, last, the JSON result line.
class Results {
 public:
  /// Records a metric; `note` (e.g. a sample count) goes to the human line.
  void Metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = "");
  /// Records a percentile metric with its sample count.
  void Percentile(const std::string& name, const Samples& samples, double q,
                  double scale, const std::string& unit);
  /// One correctness check: counted attempted, and failed when !ok.
  bool Check(bool ok, const std::string& what);
  /// Operations of the workload itself (batches offered, cycles run).
  void Operations(uint64_t attempted, uint64_t failed);

  /// Prints the final JSON line; returns the process exit code.
  int Finish() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool checks_ok_ = true;
};

/// Prints `message` to stderr and exits 1 (no result line).
[[noreturn]] void Die(const std::string& message);

/// The §7.1 population every workload attacks: a two-level spectrum with
/// a few principal components, rotated by a seeded orthogonal basis,
/// disguised by independent Gaussian noise.
struct Population {
  size_t m = 0;
  size_t principal = 0;  ///< Number of principal components p.
  double sigma = 0.0;
  Vector eigenvalues;  ///< True spectrum, descending.
  Matrix covariance;
  uint64_t population_seed = 0;
  uint64_t noise_seed = 0;
  std::unique_ptr<randrecon::perturb::IndependentNoiseScheme> scheme;
  randrecon::perturb::NoiseModel noise() const;
};

Population MakePopulation(size_t m, uint64_t seed);

/// The original records X (aligned ground truth).
std::unique_ptr<randrecon::pipeline::RecordSource> OriginalSource(
    const Population& population, size_t n);

/// The disguised stream Y = X + R.
std::unique_ptr<randrecon::pipeline::RecordSource> DisguisedSource(
    const Population& population, size_t n);

/// Fills `pool` with the first n disguised records in batches of
/// `batch_rows`, allocating the batches when `pool` is empty and reusing
/// them otherwise.
void FillPool(const Population& population, size_t n, size_t batch_rows,
              std::vector<Matrix>* pool);

/// PCA-DR, chunked like the scheduler's default.
randrecon::pipeline::StreamingAttackOptions AttackOptions(int num_threads = 0);

/// Checks p and the spectrum against the population's truth.
void CheckAttackQuality(const Population& population,
                        const randrecon::pipeline::StreamingAttackReport& report,
                        const std::string& label, Results* results);

/// memcmp of every numeric field of two attack reports.
bool BitwiseEqual(const randrecon::pipeline::StreamingAttackReport& a,
                  const randrecon::pipeline::StreamingAttackReport& b);

std::vector<std::string> ColumnNames(size_t m);
void ResetDir(const std::string& dir);
void RemoveDir(const std::string& dir);

/// Value of a registered counter / sum of a registered histogram.
uint64_t CounterValue(const std::string& name);
uint64_t HistogramSum(const std::string& name);

/// Build, machine and run identity as one JSON object.
std::string IdentityJson(const Args& args);

// ---- Workloads -----------------------------------------------------------

/// batch_m32 / batch_m128: closed-loop load of n x m rows, then one
/// PCA-DR run over the sealed store, repeated on fresh stores.
void RunBatch(const Args& args, size_t m, size_t n, Results* results);

/// service: open-loop ingest beside scheduler cycles and the recorder.
void RunService(const Args& args, Results* results);

/// Per-layer probes over a sealed store of `n` rows (traced runs).
/// `pool` holds the batches the store was loaded from.
void ProbeLayers(const Population& population, const std::string& manifest,
                 size_t n, const std::vector<Matrix>& pool,
                 const std::string& scratch_dir, Results* results);

/// An open loop: 2 producers offer kOfferRows-row batches from `pool`
/// on a fixed schedule while a scheduler thread ticks an AttackScheduler
/// and a MetricsRecorder samples.
struct OpenLoopConfig {
  size_t m = 32;
  double rows_per_s = 1e6;
  uint64_t retain_rows = 1u << 20;
  double seconds = 10.0;
  /// Trace every cycle and probe snapshot pins from the scheduler thread.
  bool traced = false;
  std::string dir;
};

struct OpenLoopOutcome {
  Samples offer_us;  ///< Offer return minus due time (measured window).
  Samples late_us;   ///< Offer call minus due time (generator lateness).
  Samples offer_call_ns;  ///< Caller time inside Offer.
  Samples cycle_ms;       ///< Wall of each Tick that attacked.
  Samples cycle_rows_per_s;
  /// Report return minus the due time of the newest row it covers.
  Samples report_lag_s;
  Samples pin_ms;        ///< RollingStoreSnapshotReader::Open, live.
  Samples sched_pin_ms;      ///< pipeline.job start to the first stage.
  Samples sched_release_ms;  ///< Last stage end to pipeline.job end.
  Samples sched_job_ms;      ///< pipeline.job span.
  Samples sched_other_ms;
  Samples sched_coverage;  ///< Attack stage spans over the cycle wall.
  Samples report_bytes;
  uint64_t batches_offered = 0, batches_shed = 0;
  uint64_t cycles = 0, cycles_ok = 0, cycles_degraded = 0, cycles_failed = 0;
  double load_rows_per_s = 0.0;
  double wall_s = 0.0;   ///< Open-loop wall (first due to Close).
  uint64_t push_block_ns = 0;
  uint64_t append_ns = 0;
};

OpenLoopOutcome RunOpenLoop(const Population& population,
                            const std::vector<Matrix>& pool,
                            const OpenLoopConfig& config, Results* results);

/// Prints the open loop's per-layer metrics (generator lateness, live
/// pins, scheduler cycle breakdown).
void ReportOpenLoopLayers(const OpenLoopOutcome& outcome, Results* results);

}  // namespace perfbench

#endif  // RANDRECON_PERFBENCH_BENCH_H_
