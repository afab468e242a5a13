// Process-global metrics: named counters, gauges and log-bucketed
// latency histograms threaded through the store and pipeline hot paths.
//
// The registry follows the failpoint discipline (common/failpoint.h):
// a metric is a namespace-scope object in the .cc that uses it, so
// construction registers its name for the process lifetime and tools
// can enumerate every instrument the binary actually links. On the hot
// path a counter increment is ONE relaxed atomic add — no branch, no
// lock, no allocation — so the ~2.2 GB/s ingest paths keep their
// numbers (gated <= 2% of a block flush in bench/micro_io.cc, next to
// the disarmed-failpoint gate it mirrors).
//
// Determinism contract (docs/ARCHITECTURE.md, observability section):
// metrics OBSERVE, they never perturb. No instrumented code path reads
// a metric to make a decision, so attack reports are bitwise identical
// with instrumentation on or off (pinned in micro_io/micro_pipeline and
// tests/pipeline/streaming_attack_test.cc), and counter values for
// single-threaded runs are exact and pinned by tests.
//
// Snapshots: metrics::Snapshot() returns every registered instrument's
// current value (sorted by name, so output is deterministic);
// SnapshotJson() renders the same data as the "counters" / "gauges" /
// "histograms" sections of the versioned run report
// (docs/REPORT_SCHEMA.md, common/run_report.h).
//
// Compile-out: building with -DRANDRECON_DISABLE_METRICS turns every
// increment into a no-op (registration and snapshots still work, all
// values read zero) — the baseline the bench gate's per-op measurement
// is compared against.

#ifndef RANDRECON_COMMON_METRICS_H_
#define RANDRECON_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace randrecon {
namespace metrics {

/// Monotonic event count. Define at namespace scope:
///   metrics::Counter m_blocks_written("store.blocks_written");
/// Thread-safe: Add is a relaxed atomic add (totals are exact — integer
/// adds commute — but carry no ordering; read them quiescent or accept
/// a momentarily stale view).
class Counter {
 public:
  /// `name` must be a string literal (or otherwise outlive the
  /// process); duplicate names are a fatal programmer error.
  explicit Counter(const char* name);

  void Add(uint64_t delta = 1) {
#ifndef RANDRECON_DISABLE_METRICS
    value_.fetch_add(delta, std::memory_order_relaxed);
#else
    (void)delta;
#endif
  }

  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  const char* name() const { return name_; }

 private:
  friend class MetricsRegistry;
  const char* name_;
  std::atomic<uint64_t> value_{0};
};

/// Last-written level (queue depths, open shard count, ...). Same
/// registration and threading rules as Counter.
class Gauge {
 public:
  explicit Gauge(const char* name);

  void Set(int64_t value) {
#ifndef RANDRECON_DISABLE_METRICS
    value_.store(value, std::memory_order_relaxed);
#else
    (void)value;
#endif
  }

  void Add(int64_t delta) {
#ifndef RANDRECON_DISABLE_METRICS
    value_.fetch_add(delta, std::memory_order_relaxed);
#else
    (void)delta;
#endif
  }

  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  const char* name() const { return name_; }

 private:
  friend class MetricsRegistry;
  const char* name_;
  std::atomic<int64_t> value_{0};
};

/// Number of histogram buckets: bucket 0 holds the value 0, bucket i
/// (1..63) holds values in [2^(i-1), 2^i), and the last bucket is
/// unbounded above. Log-spaced buckets cover nanoseconds to hours in 64
/// fixed slots with <= 2x relative error, which is what latency
/// percentiles need.
constexpr size_t kHistogramBuckets = 64;

struct HistogramSnapshot;

/// Log-bucketed histogram of non-negative integer samples (typically
/// nanoseconds). Record is a handful of relaxed atomic ops; count and
/// sum are EXACT under any concurrency (integer adds commute — pinned
/// by the hammering test), percentiles are bucket-resolution
/// approximations clamped to the exact observed [min, max]:
///   * empty histogram            -> every percentile reads 0;
///   * a single sample v          -> every percentile reads exactly v;
///   * all samples in one bucket  -> every percentile reads the max.
class Histogram {
 public:
  explicit Histogram(const char* name);

  /// Folds `value` in. Relaxed atomics only; safe from any thread.
  void Record(uint64_t value);

  /// Bucket that holds `value` (see kHistogramBuckets).
  static size_t BucketIndex(uint64_t value);

  /// Largest value bucket `bucket` can hold (inclusive; UINT64_MAX for
  /// the last bucket).
  static uint64_t BucketUpperBound(size_t bucket);

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Smallest / largest recorded sample (0 when empty).
  uint64_t Min() const;
  uint64_t Max() const;
  uint64_t BucketCount(size_t bucket) const;

  /// The value at `percentile` (in [0, 100]): the upper bound of the
  /// bucket holding the ceil(percentile/100 * count)-th smallest
  /// sample, clamped to [Min(), Max()]. 0 when empty.
  uint64_t ValueAtPercentile(double percentile) const;

  /// A self-consistent snapshot: count, sum, min, max and the full
  /// bucket array are captured together, with the capture retried
  /// (bounded) until two successive count reads agree, and the
  /// percentiles computed from the CAPTURED buckets — not from live
  /// re-reads like the individual accessors. Under a sustained
  /// concurrent Record storm the bounded retry can give up with a tear
  /// of any size between fields (a sampler preempted between its reads
  /// sees every Record that landed meanwhile in the later fields only),
  /// but each field is monotone: every field of a later snapshot is >=
  /// (count/sum/max, buckets per-entry) or <= (min, once nonzero) the
  /// same field of an earlier one, which is exactly the tolerance
  /// tools/check_timeseries.py validates and tests/common/metrics_test.cc
  /// pins. At quiesce the snapshot is exact.
  HistogramSnapshot ConsistentSnapshot() const;

  const char* name() const { return name_; }

 private:
  friend class MetricsRegistry;
  const char* name_;
  std::atomic<uint64_t> buckets_[kHistogramBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{~uint64_t{0}};
  std::atomic<uint64_t> max_{0};
};

/// One instrument's snapshot value.
struct CounterSnapshot {
  std::string name;
  uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  int64_t value = 0;
};

struct HistogramSnapshot {
  std::string name;
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  uint64_t p50 = 0;
  uint64_t p95 = 0;
  uint64_t p99 = 0;
  /// Per-bucket counts captured with the scalars (see kHistogramBuckets
  /// for the bucket geometry). Run-report JSON omits these; the stats
  /// server's /metricsz renders them as cumulative Prometheus
  /// `le` buckets.
  std::array<uint64_t, kHistogramBuckets> buckets{};
};

/// Every registered instrument's current value, sorted by name.
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;
};

MetricsSnapshot Snapshot();

/// Snapshot() rendered as one JSON object:
///   {"counters": {"store.blocks_written": 12, ...},
///    "gauges": {...},
///    "histograms": {"pipeline.job_wall_nanos":
///        {"count":3,"sum":...,"min":...,"max":...,
///         "p50":...,"p95":...,"p99":...}, ...}}
/// — the metrics sections of the run report (docs/REPORT_SCHEMA.md).
std::string SnapshotJson();

/// Zeroes every registered instrument. For tests and report runs that
/// want counters scoped to one workload; NOT safe concurrent with hot
/// paths that are mid-increment (quiesce first).
void ResetAllMetrics();

/// Every registered instrument name, sorted — the enumeration tools use
/// to keep docs and validators honest.
std::vector<std::string> ListMetricNames();

}  // namespace metrics
}  // namespace randrecon

#endif  // RANDRECON_COMMON_METRICS_H_
