#include "common/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "data/column_store.h"
#include "pipeline/runner.h"

namespace randrecon {
namespace metrics {
namespace {

// Namespace-scope registration, exactly as production code defines its
// instruments. Names are test-prefixed so they can never collide with a
// real hot-path metric.
Counter test_counter("test.metrics.counter");
Gauge test_gauge("test.metrics.gauge");
Histogram test_histogram("test.metrics.histogram");
Counter hammer_counter("test.metrics.hammer_counter");
Histogram hammer_histogram("test.metrics.hammer_histogram");

class MetricsTest : public ::testing::Test {
 protected:
  // Registry state is process-global; each test starts from zero.
  void SetUp() override { ResetAllMetrics(); }
};

TEST_F(MetricsTest, CounterCountsExactly) {
  EXPECT_EQ(test_counter.Value(), 0u);
  test_counter.Add();
  test_counter.Add(41);
  EXPECT_EQ(test_counter.Value(), 42u);
}

TEST_F(MetricsTest, GaugeSetAndAdd) {
  test_gauge.Set(7);
  EXPECT_EQ(test_gauge.Value(), 7);
  test_gauge.Add(-10);
  EXPECT_EQ(test_gauge.Value(), -3);
}

TEST_F(MetricsTest, RegisteredNamesAreListed) {
  // Registration happens at static-init of the defining TU, so pull the
  // store/runner objects into this binary the way any real tool does —
  // by using them (a static library drops unreferenced objects).
  (void)data::ColumnStoreHash("x", 1);
  (void)pipeline::RunPipelineJobs({}, {});
  const std::vector<std::string> names = ListMetricNames();
  auto listed = [&](const char* name) {
    for (const std::string& entry : names) {
      if (entry == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(listed("test.metrics.counter"));
  EXPECT_TRUE(listed("test.metrics.gauge"));
  EXPECT_TRUE(listed("test.metrics.histogram"));
  // The production instruments linked into this binary register the
  // same way.
  EXPECT_TRUE(listed("store.blocks_written"));
  EXPECT_TRUE(listed("pipeline.jobs_run"));
}

// ---- Bucket geometry: bucket 0 holds 0, bucket i holds [2^(i-1), 2^i).

TEST_F(MetricsTest, BucketIndexBoundaries) {
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(7), 3u);
  EXPECT_EQ(Histogram::BucketIndex(8), 4u);
  EXPECT_EQ(Histogram::BucketIndex(~uint64_t{0}), kHistogramBuckets - 1);
}

TEST_F(MetricsTest, BucketUpperBounds) {
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(2), 3u);
  EXPECT_EQ(Histogram::BucketUpperBound(3), 7u);
  EXPECT_EQ(Histogram::BucketUpperBound(kHistogramBuckets - 1), ~uint64_t{0});
  // Every value lands in the bucket whose bound covers it.
  for (uint64_t value : {0ull, 1ull, 2ull, 5ull, 1000ull, 123456789ull}) {
    const size_t bucket = Histogram::BucketIndex(value);
    EXPECT_LE(value, Histogram::BucketUpperBound(bucket));
    if (bucket > 0) {
      EXPECT_GT(value, Histogram::BucketUpperBound(bucket - 1));
    }
  }
}

// ---- Percentile pinning: the documented edge cases are exact.

TEST_F(MetricsTest, EmptyHistogramReadsZero) {
  EXPECT_EQ(test_histogram.Count(), 0u);
  EXPECT_EQ(test_histogram.Sum(), 0u);
  EXPECT_EQ(test_histogram.Min(), 0u);
  EXPECT_EQ(test_histogram.Max(), 0u);
  EXPECT_EQ(test_histogram.ValueAtPercentile(50), 0u);
  EXPECT_EQ(test_histogram.ValueAtPercentile(99), 0u);
}

TEST_F(MetricsTest, SingleSampleIsExactEverywhere) {
  test_histogram.Record(777);
  EXPECT_EQ(test_histogram.Count(), 1u);
  EXPECT_EQ(test_histogram.Sum(), 777u);
  EXPECT_EQ(test_histogram.Min(), 777u);
  EXPECT_EQ(test_histogram.Max(), 777u);
  EXPECT_EQ(test_histogram.ValueAtPercentile(0), 777u);
  EXPECT_EQ(test_histogram.ValueAtPercentile(50), 777u);
  EXPECT_EQ(test_histogram.ValueAtPercentile(100), 777u);
}

TEST_F(MetricsTest, AllSamplesInOneBucketReadTheMax) {
  // 1000..1023 all land in bucket index 10 ([512, 1024)).
  for (uint64_t v = 1000; v < 1024; ++v) test_histogram.Record(v);
  EXPECT_EQ(test_histogram.BucketCount(10), 24u);
  EXPECT_EQ(test_histogram.ValueAtPercentile(50), 1023u);
  EXPECT_EQ(test_histogram.ValueAtPercentile(99), 1023u);
  EXPECT_EQ(test_histogram.Min(), 1000u);
}

TEST_F(MetricsTest, PercentilesClampToObservedRange) {
  // One tiny and one huge sample: p50's bucket bound (1) clamps to the
  // exact min, p99's unbounded bucket clamps to the exact max.
  test_histogram.Record(1);
  test_histogram.Record(1000);
  EXPECT_EQ(test_histogram.ValueAtPercentile(50), 1u);
  EXPECT_EQ(test_histogram.ValueAtPercentile(99), 1000u);
}

TEST_F(MetricsTest, ZeroesLandInBucketZero) {
  test_histogram.Record(0);
  test_histogram.Record(0);
  EXPECT_EQ(test_histogram.BucketCount(0), 2u);
  EXPECT_EQ(test_histogram.ValueAtPercentile(50), 0u);
  EXPECT_EQ(test_histogram.Max(), 0u);
}

// ---- Concurrency: totals are exact under ParallelForEach hammering.

TEST_F(MetricsTest, ConcurrentCounterTotalsAreExact) {
  constexpr size_t kTasks = 64;
  constexpr uint64_t kAddsPerTask = 10000;
  ParallelOptions options;
  options.min_parallel_items = 2;
  ParallelForEach(
      0, kTasks,
      [&](size_t) {
        for (uint64_t i = 0; i < kAddsPerTask; ++i) hammer_counter.Add(1);
      },
      options);
  EXPECT_EQ(hammer_counter.Value(), kTasks * kAddsPerTask);
}

TEST_F(MetricsTest, ConcurrentHistogramCountAndSumAreExact) {
  constexpr size_t kTasks = 32;
  constexpr uint64_t kSamplesPerTask = 5000;
  ParallelOptions options;
  options.min_parallel_items = 2;
  ParallelForEach(
      0, kTasks,
      [&](size_t task) {
        for (uint64_t i = 0; i < kSamplesPerTask; ++i) {
          hammer_histogram.Record(task * kSamplesPerTask + i);
        }
      },
      options);
  const uint64_t n = kTasks * kSamplesPerTask;
  EXPECT_EQ(hammer_histogram.Count(), n);
  EXPECT_EQ(hammer_histogram.Sum(), n * (n - 1) / 2);  // Sum of 0..n-1.
  EXPECT_EQ(hammer_histogram.Min(), 0u);
  EXPECT_EQ(hammer_histogram.Max(), n - 1);
}

// ---- Snapshots.

TEST_F(MetricsTest, SnapshotIsSortedAndCurrent) {
  test_counter.Add(5);
  test_gauge.Set(-2);
  test_histogram.Record(16);
  const MetricsSnapshot snapshot = Snapshot();
  for (size_t i = 1; i < snapshot.counters.size(); ++i) {
    EXPECT_LT(snapshot.counters[i - 1].name, snapshot.counters[i].name);
  }
  bool found_counter = false, found_gauge = false, found_histogram = false;
  for (const CounterSnapshot& c : snapshot.counters) {
    if (c.name == "test.metrics.counter") {
      found_counter = true;
      EXPECT_EQ(c.value, 5u);
    }
  }
  for (const GaugeSnapshot& g : snapshot.gauges) {
    if (g.name == "test.metrics.gauge") {
      found_gauge = true;
      EXPECT_EQ(g.value, -2);
    }
  }
  for (const HistogramSnapshot& h : snapshot.histograms) {
    if (h.name == "test.metrics.histogram") {
      found_histogram = true;
      EXPECT_EQ(h.count, 1u);
      EXPECT_EQ(h.p50, 16u);
    }
  }
  EXPECT_TRUE(found_counter);
  EXPECT_TRUE(found_gauge);
  EXPECT_TRUE(found_histogram);
}

TEST_F(MetricsTest, SnapshotJsonHasAllSections) {
  test_counter.Add(3);
  const std::string json = SnapshotJson();
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{"), std::string::npos);
  EXPECT_NE(json.find("\"test.metrics.counter\":3"), std::string::npos);
}

TEST_F(MetricsTest, ResetZeroesEverything) {
  test_counter.Add(9);
  test_gauge.Set(9);
  test_histogram.Record(9);
  ResetAllMetrics();
  EXPECT_EQ(test_counter.Value(), 0u);
  EXPECT_EQ(test_gauge.Value(), 0);
  EXPECT_EQ(test_histogram.Count(), 0u);
  EXPECT_EQ(test_histogram.ValueAtPercentile(50), 0u);
}

// ---- ConsistentSnapshot.

TEST_F(MetricsTest, ConsistentSnapshotMatchesQuiescedState) {
  test_histogram.Record(1);
  test_histogram.Record(7);
  test_histogram.Record(100);
  const HistogramSnapshot snapshot = test_histogram.ConsistentSnapshot();
  EXPECT_EQ(snapshot.count, 3u);
  EXPECT_EQ(snapshot.sum, 108u);
  EXPECT_EQ(snapshot.min, 1u);
  EXPECT_EQ(snapshot.max, 100u);
  uint64_t bucket_total = 0;
  for (uint64_t b : snapshot.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snapshot.count);
}

// Under a concurrent all-ones hammer, every ConsistentSnapshot is
// monotone against the one before it — count, sum, max and each bucket
// never decrease, the tolerance tools/check_timeseries.py validates —
// and the snapshot after quiesce is exact. Count and sum of one torn
// capture are NOT bounded against each other: the retry gives up after
// a few attempts, and a sampler preempted between its field reads sees
// any skew.
TEST_F(MetricsTest, ConsistentSnapshotIsMonotoneUnderLoadAndExactAtQuiesce) {
  constexpr size_t kTasks = 8;
  constexpr uint64_t kSamplesPerTask = 40000;
  ParallelOptions options;
  options.min_parallel_items = 2;
  std::vector<HistogramSnapshot> observed;
  std::atomic<bool> done{false};
  std::thread sampler([&] {
    while (!done.load(std::memory_order_acquire)) {
      observed.push_back(hammer_histogram.ConsistentSnapshot());
    }
  });
  ParallelForEach(
      0, kTasks,
      [&](size_t) {
        for (uint64_t i = 0; i < kSamplesPerTask; ++i) {
          hammer_histogram.Record(1);
        }
      },
      options);
  done.store(true, std::memory_order_release);
  sampler.join();
  ASSERT_FALSE(observed.empty());
  for (size_t i = 1; i < observed.size(); ++i) {
    const HistogramSnapshot& before = observed[i - 1];
    const HistogramSnapshot& after = observed[i];
    EXPECT_GE(after.count, before.count) << "snapshot " << i;
    EXPECT_GE(after.sum, before.sum) << "snapshot " << i;
    EXPECT_GE(after.max, before.max) << "snapshot " << i;
    for (size_t b = 0; b < after.buckets.size(); ++b) {
      EXPECT_GE(after.buckets[b], before.buckets[b])
          << "snapshot " << i << " bucket " << b;
    }
  }
  const uint64_t total = kTasks * kSamplesPerTask;
  const HistogramSnapshot final_snapshot =
      hammer_histogram.ConsistentSnapshot();
  EXPECT_EQ(final_snapshot.count, total);
  EXPECT_EQ(final_snapshot.sum, total);
  EXPECT_EQ(final_snapshot.buckets[Histogram::BucketIndex(1)], total);
}

TEST_F(MetricsTest, RegistrySnapshotCarriesBuckets) {
  test_histogram.Record(0);
  test_histogram.Record(5);
  const MetricsSnapshot snapshot = Snapshot();
  for (const HistogramSnapshot& h : snapshot.histograms) {
    if (h.name == "test.metrics.histogram") {
      EXPECT_EQ(h.buckets[0], 1u);  // The zero sample.
      uint64_t total = 0;
      for (uint64_t b : h.buckets) total += b;
      EXPECT_EQ(total, h.count);
      return;
    }
  }
  FAIL() << "test.metrics.histogram not in registry snapshot";
}

}  // namespace
}  // namespace metrics
}  // namespace randrecon
