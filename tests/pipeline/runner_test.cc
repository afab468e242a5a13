// The batch scheduler: submission-order results, per-job failure
// isolation, and agreement with individually-run pipelines.

#include "pipeline/runner.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>

#include <gtest/gtest.h>

#include "common/file_io.h"
#include "common/metrics.h"
#include "data/rolling_store.h"
#include "data/synthetic.h"
#include "linalg/matrix_util.h"
#include "perturb/schemes.h"
#include "stats/rng.h"

namespace randrecon {
namespace pipeline {
namespace {

using linalg::Matrix;

struct BatchFixture {
  Matrix disguised;
  perturb::NoiseModel noise = perturb::NoiseModel::IndependentGaussian(1, 1.0);
};

BatchFixture MakeBatchFixture() {
  stats::Rng rng(31);
  data::SyntheticDatasetSpec spec;
  spec.eigenvalues = data::TwoLevelSpectrum(10, 2, 6.0, 0.2);
  auto generated = data::GenerateSpectrumDataset(spec, 400, &rng);
  const auto scheme = perturb::IndependentNoiseScheme::Gaussian(10, 0.5);
  BatchFixture fixture;
  fixture.disguised = generated.value().dataset.records() +
                      scheme.GenerateNoise(400, &rng);
  fixture.noise = scheme.noise_model();
  return fixture;
}

SourceFactory MatrixFactory(const Matrix* records) {
  return [records]() -> Result<std::unique_ptr<RecordSource>> {
    return std::unique_ptr<RecordSource>(
        std::make_unique<MatrixRecordSource>(records));
  };
}

TEST(PipelineRunnerTest, BatchMatchesIndividualRuns) {
  const BatchFixture fixture = MakeBatchFixture();

  std::vector<PipelineJob> jobs(2);
  jobs[0].name = "pca";
  jobs[0].disguised = MatrixFactory(&fixture.disguised);
  jobs[0].noise = fixture.noise;
  jobs[0].attack.attack = StreamingAttack::kPcaDr;
  jobs[0].attack.chunk_rows = 53;
  jobs[0].sink = std::make_shared<CollectChunkSink>(10);
  jobs[1].name = "sf";
  jobs[1].disguised = MatrixFactory(&fixture.disguised);
  jobs[1].noise = fixture.noise;
  jobs[1].attack.attack = StreamingAttack::kSpectralFiltering;
  jobs[1].attack.chunk_rows = 53;
  jobs[1].sink = std::make_shared<CollectChunkSink>(10);

  const auto results = RunPipelineJobs(jobs);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].name, "pca");
  EXPECT_EQ(results[1].name, "sf");
  for (const auto& result : results) {
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.report.num_records, 400u);
    EXPECT_GE(result.elapsed_seconds, 0.0);
  }

  // Each sharded job's output equals a lone pipeline run of the same job.
  for (size_t i = 0; i < jobs.size(); ++i) {
    MatrixRecordSource source(&fixture.disguised);
    CollectChunkSink lone_sink(10);
    const auto lone = StreamingAttackPipeline(jobs[i].attack)
                          .Run(&source, fixture.noise, &lone_sink);
    ASSERT_TRUE(lone.ok());
    const auto* batch_sink =
        static_cast<const CollectChunkSink*>(jobs[i].sink.get());
    EXPECT_EQ(linalg::MaxAbsDifference(batch_sink->ToMatrix(),
                                       lone_sink.ToMatrix()),
              0.0)
        << jobs[i].name;
    EXPECT_EQ(results[i].report.num_components, lone.value().num_components);
  }
}

TEST(PipelineRunnerTest, FailedJobIsIsolated) {
  const BatchFixture fixture = MakeBatchFixture();

  std::vector<PipelineJob> jobs(3);
  jobs[0].name = "ok-before";
  jobs[0].disguised = MatrixFactory(&fixture.disguised);
  jobs[0].noise = fixture.noise;
  jobs[1].name = "broken-source";
  jobs[1].disguised = []() -> Result<std::unique_ptr<RecordSource>> {
    RR_ASSIGN_OR_RETURN(CsvRecordSource source,
                        CsvRecordSource::Open("/nonexistent/reports.csv"));
    return std::unique_ptr<RecordSource>(
        std::make_unique<CsvRecordSource>(std::move(source)));
  };
  jobs[1].noise = fixture.noise;
  jobs[2].name = "ok-after";
  jobs[2].disguised = MatrixFactory(&fixture.disguised);
  jobs[2].noise = fixture.noise;

  const auto results = RunPipelineJobs(jobs);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].status.ok()) << results[0].status.ToString();
  EXPECT_FALSE(results[1].status.ok());
  EXPECT_EQ(results[1].status.code(), StatusCode::kIoError);
  EXPECT_TRUE(results[2].status.ok()) << results[2].status.ToString();
}

TEST(PipelineRunnerTest, ThrowingFactoryIsIsolatedToo) {
  const BatchFixture fixture = MakeBatchFixture();
  std::vector<PipelineJob> jobs(2);
  jobs[0].name = "throws";
  jobs[0].disguised = []() -> Result<std::unique_ptr<RecordSource>> {
    throw std::runtime_error("factory blew up");
  };
  jobs[0].noise = fixture.noise;
  jobs[1].name = "survives";
  jobs[1].disguised = MatrixFactory(&fixture.disguised);
  jobs[1].noise = fixture.noise;

  const auto results = RunPipelineJobs(jobs);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(results[0].status.message().find("factory blew up"),
            std::string::npos);
  EXPECT_TRUE(results[1].status.ok()) << results[1].status.ToString();
}

TEST(PipelineRunnerTest, MissingFactoryFailsCleanly) {
  std::vector<PipelineJob> jobs(1);
  jobs[0].name = "empty";
  const auto results = RunPipelineJobs(jobs);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status.code(), StatusCode::kInvalidArgument);
}

TEST(PipelineRunnerTest, EmptyBatchIsNoOp) {
  EXPECT_TRUE(RunPipelineJobs({}).empty());
}

TEST(PipelineRunnerTest, WorkerCountDoesNotChangeResults) {
  const BatchFixture fixture = MakeBatchFixture();
  auto make_jobs = [&] {
    std::vector<PipelineJob> jobs(4);
    for (size_t i = 0; i < jobs.size(); ++i) {
      jobs[i].name = "job" + std::to_string(i);
      jobs[i].disguised = MatrixFactory(&fixture.disguised);
      jobs[i].noise = fixture.noise;
      jobs[i].attack.attack = i % 2 == 0 ? StreamingAttack::kPcaDr
                                         : StreamingAttack::kSpectralFiltering;
      jobs[i].attack.chunk_rows = 31 + i;
      jobs[i].sink = std::make_shared<CollectChunkSink>(10);
    }
    return jobs;
  };
  auto serial_jobs = make_jobs();
  auto pooled_jobs = make_jobs();
  PipelineRunnerOptions serial;
  serial.num_workers = 1;
  PipelineRunnerOptions pooled;
  pooled.num_workers = 4;
  RunPipelineJobs(serial_jobs, serial);
  RunPipelineJobs(pooled_jobs, pooled);
  for (size_t i = 0; i < serial_jobs.size(); ++i) {
    const auto* a = static_cast<const CollectChunkSink*>(serial_jobs[i].sink.get());
    const auto* b = static_cast<const CollectChunkSink*>(pooled_jobs[i].sink.get());
    EXPECT_EQ(linalg::MaxAbsDifference(a->ToMatrix(), b->ToMatrix()), 0.0)
        << "job " << i;
  }
}

// ---------------------------------------------------------------------------
// Retry policy integration: transient failures retry, deterministic ones
// do not, deadlines cut the schedule short.
// ---------------------------------------------------------------------------

/// A factory that fails with `failure` for the first `failures` calls,
/// then serves `records`. The call counter outlives the lambda so the
/// test can assert how many attempts actually ran.
SourceFactory FlakyFactory(const Matrix* records, int failures,
                           Status failure,
                           std::shared_ptr<std::atomic<int>> calls) {
  return [records, failures, failure,
          calls]() -> Result<std::unique_ptr<RecordSource>> {
    if (calls->fetch_add(1) < failures) return failure;
    return std::unique_ptr<RecordSource>(
        std::make_unique<MatrixRecordSource>(records));
  };
}

RetryPolicy FastRetries(int max_attempts) {
  RetryPolicy retry;
  retry.max_attempts = max_attempts;
  retry.initial_backoff_seconds = 0.0;  // Tests should not sleep.
  retry.jitter_fraction = 0.0;
  return retry;
}

TEST(PipelineRunnerRetryTest, TransientFailureRetriesToSuccess) {
  const BatchFixture fixture = MakeBatchFixture();
  auto calls = std::make_shared<std::atomic<int>>(0);
  std::vector<PipelineJob> jobs(1);
  jobs[0].name = "flaky";
  jobs[0].noise = fixture.noise;
  jobs[0].disguised = FlakyFactory(&fixture.disguised, 2,
                                   Status::Unavailable("shard busy"), calls);
  jobs[0].retry = FastRetries(5);

  const auto results = RunPipelineJobs(jobs);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].status.ok()) << results[0].status.ToString();
  EXPECT_EQ(results[0].attempts, 3);
  EXPECT_EQ(calls->load(), 3);
  EXPECT_EQ(results[0].report.num_records, 400u);
}

TEST(PipelineRunnerRetryTest, DeterministicFailureIsNotRetried) {
  const BatchFixture fixture = MakeBatchFixture();
  auto calls = std::make_shared<std::atomic<int>>(0);
  std::vector<PipelineJob> jobs(1);
  jobs[0].name = "malformed";
  jobs[0].noise = fixture.noise;
  jobs[0].disguised = FlakyFactory(
      &fixture.disguised, 100, Status::InvalidArgument("bad schema"), calls);
  jobs[0].retry = FastRetries(5);

  const auto results = RunPipelineJobs(jobs);
  EXPECT_EQ(results[0].status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(results[0].attempts, 1);
  EXPECT_EQ(calls->load(), 1);
}

TEST(PipelineRunnerRetryTest, AttemptExhaustionReportsTheLastError) {
  const BatchFixture fixture = MakeBatchFixture();
  auto calls = std::make_shared<std::atomic<int>>(0);
  std::vector<PipelineJob> jobs(1);
  jobs[0].name = "always-down";
  jobs[0].noise = fixture.noise;
  jobs[0].disguised = FlakyFactory(&fixture.disguised, 100,
                                   Status::Unavailable("still down"), calls);
  jobs[0].retry = FastRetries(3);

  const auto results = RunPipelineJobs(jobs);
  EXPECT_EQ(results[0].status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(results[0].attempts, 3);
  EXPECT_EQ(calls->load(), 3);
}

TEST(PipelineRunnerRetryTest, DeadlineCutsTheScheduleShort) {
  const BatchFixture fixture = MakeBatchFixture();
  auto calls = std::make_shared<std::atomic<int>>(0);
  std::vector<PipelineJob> jobs(1);
  jobs[0].name = "deadline";
  jobs[0].noise = fixture.noise;
  jobs[0].disguised = FlakyFactory(&fixture.disguised, 1000,
                                   Status::Unavailable("still down"), calls);
  jobs[0].retry.max_attempts = 1000;
  jobs[0].retry.initial_backoff_seconds = 0.02;
  jobs[0].retry.backoff_multiplier = 1.0;
  jobs[0].retry.jitter_fraction = 0.0;
  jobs[0].retry.deadline_seconds = 0.05;

  const auto results = RunPipelineJobs(jobs);
  EXPECT_EQ(results[0].status.code(), StatusCode::kDeadlineExceeded);
  // The wrapped message keeps the underlying failure visible.
  EXPECT_NE(results[0].status.message().find("still down"), std::string::npos)
      << results[0].status.ToString();
  EXPECT_GE(results[0].attempts, 1);
  EXPECT_LT(results[0].attempts, 1000);
}

TEST(PipelineRunnerRetryTest, DefaultPolicyPreservesSingleAttemptSemantics) {
  const BatchFixture fixture = MakeBatchFixture();
  std::vector<PipelineJob> jobs(1);
  jobs[0].name = "default";
  jobs[0].noise = fixture.noise;
  jobs[0].disguised = MatrixFactory(&fixture.disguised);
  const auto results = RunPipelineJobs(jobs);
  EXPECT_TRUE(results[0].status.ok());
  EXPECT_EQ(results[0].attempts, 1);
}

// ---------------------------------------------------------------------------
// Telemetry: the runner's counters are exact for single-threaded batches
// (common/metrics.h determinism contract). The instruments live in the
// runner's anonymous namespace, so the tests read them back by name.
// ---------------------------------------------------------------------------

uint64_t CounterByName(const char* name) {
  for (const metrics::CounterSnapshot& c : metrics::Snapshot().counters) {
    if (c.name == name) return c.value;
  }
  ADD_FAILURE() << "no counter named " << name;
  return 0;
}

uint64_t HistogramCountByName(const char* name) {
  for (const metrics::HistogramSnapshot& h : metrics::Snapshot().histograms) {
    if (h.name == name) return h.count;
  }
  ADD_FAILURE() << "no histogram named " << name;
  return 0;
}

TEST(PipelineRunnerMetricsTest, SingleWorkerBatchPinsTheCounters) {
  metrics::ResetAllMetrics();
  const BatchFixture fixture = MakeBatchFixture();
  auto flaky_calls = std::make_shared<std::atomic<int>>(0);
  auto broken_calls = std::make_shared<std::atomic<int>>(0);

  std::vector<PipelineJob> jobs(3);
  jobs[0].name = "clean";
  jobs[0].noise = fixture.noise;
  jobs[0].disguised = MatrixFactory(&fixture.disguised);
  jobs[1].name = "flaky-once";
  jobs[1].noise = fixture.noise;
  jobs[1].disguised = FlakyFactory(&fixture.disguised, 1,
                                   Status::Unavailable("blip"), flaky_calls);
  jobs[1].retry = FastRetries(5);
  jobs[2].name = "broken";
  jobs[2].noise = fixture.noise;
  jobs[2].disguised = FlakyFactory(
      &fixture.disguised, 100, Status::InvalidArgument("bad"), broken_calls);
  jobs[2].retry = FastRetries(5);

  PipelineRunnerOptions serial;
  serial.num_workers = 1;
  const auto results = RunPipelineJobs(jobs, serial);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].status.ok());
  EXPECT_TRUE(results[1].status.ok());
  EXPECT_FALSE(results[2].status.ok());

  // Every job counted once; the flaky job's single retry is the only one.
  EXPECT_EQ(CounterByName("pipeline.jobs_run"), 3u);
  EXPECT_EQ(CounterByName("pipeline.jobs_ok"), 2u);
  EXPECT_EQ(CounterByName("pipeline.jobs_failed"), 1u);
  EXPECT_EQ(CounterByName("pipeline.job_retries"), 1u);
  EXPECT_EQ(CounterByName("pipeline.deadline_exceeded"), 0u);
  EXPECT_EQ(HistogramCountByName("pipeline.job_wall_nanos"), 3u);
}

TEST(PipelineRunnerMetricsTest, ThrowingJobStillCountsAsFailed) {
  metrics::ResetAllMetrics();
  std::vector<PipelineJob> jobs(1);
  jobs[0].name = "throws";
  jobs[0].disguised = []() -> Result<std::unique_ptr<RecordSource>> {
    throw std::runtime_error("boom");
  };
  const auto results = RunPipelineJobs(jobs);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].status.ok());
  EXPECT_EQ(CounterByName("pipeline.jobs_run"), 1u);
  EXPECT_EQ(CounterByName("pipeline.jobs_ok"), 0u);
  EXPECT_EQ(CounterByName("pipeline.jobs_failed"), 1u);
  // The wall-clock span closes during unwinding, so the histogram still
  // holds one sample for the aborted job.
  EXPECT_EQ(HistogramCountByName("pipeline.job_wall_nanos"), 1u);
}

// ---------------------------------------------------------------------------
// Degraded per-shard decomposition: a partially-usable store sweeps its
// healthy shards and names exactly what it skipped.
// ---------------------------------------------------------------------------

class DegradedSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fixture_ = MakeBatchFixture();
    data::RollingStoreOptions options;
    options.shard_rows = 100;  // 400 records -> 4 shards.
    auto created = data::RollingShardedStoreWriter::Create(
        kManifestPath, Names(fixture_.disguised.cols()), options);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    data::RollingShardedStoreWriter writer = std::move(created).value();
    ASSERT_TRUE(writer.Append(fixture_.disguised, 400).ok());
    ASSERT_TRUE(writer.Close().ok());
  }

  void TearDown() override { data::RemoveShardedStoreFiles(kManifestPath); }

  static std::vector<std::string> Names(size_t m) {
    std::vector<std::string> names;
    for (size_t j = 0; j < m; ++j) names.push_back("a" + std::to_string(j));
    return names;
  }

  PipelineJob Prototype() const {
    PipelineJob prototype;
    prototype.name = "sweep";
    prototype.noise = fixture_.noise;
    return prototype;
  }

  /// The degraded decomposition of the manifest now at kManifestPath.
  PerShardJobSet Decompose() const {
    auto manifest = data::ReadShardManifest(kManifestPath);
    EXPECT_TRUE(manifest.ok()) << manifest.status().ToString();
    return MakePerShardJobsDegraded(manifest.value(), kManifestPath,
                                    Prototype());
  }

  static constexpr const char* kManifestPath = "runner_test_degraded.rrcm";
  BatchFixture fixture_;
};

TEST_F(DegradedSweepTest, HealthyStoreYieldsTheFullJobSet) {
  const PerShardJobSet job_set = Decompose();
  EXPECT_EQ(job_set.jobs.size(), 4u);
  EXPECT_FALSE(job_set.degraded());
  EXPECT_EQ(job_set.DegradedSummary(), "");
  EXPECT_EQ(job_set.total_shards, 4u);
  EXPECT_EQ(job_set.total_rows, 400u);
}

TEST_F(DegradedSweepTest, QuarantinedShardIsSkippedAndNamed) {
  // Quarantine shard 1 the way store recovery does: rename it aside.
  const std::string shard1 =
      data::ShardFileName(data::ShardStemForManifest(kManifestPath), 1);
  ASSERT_EQ(std::rename(
                shard1.c_str(),
                (shard1 + kQuarantineFileSuffix).c_str()),
            0);

  const PerShardJobSet set = Decompose();
  ASSERT_EQ(set.jobs.size(), 3u);
  ASSERT_EQ(set.shard_of_job.size(), 3u);
  EXPECT_EQ(set.shard_of_job[0], 0u);
  EXPECT_EQ(set.shard_of_job[1], 2u);
  EXPECT_EQ(set.shard_of_job[2], 3u);
  EXPECT_TRUE(set.degraded());
  ASSERT_EQ(set.excluded.size(), 1u);
  EXPECT_EQ(set.excluded[0].shard_index, 1u);
  EXPECT_EQ(set.excluded[0].shard_path, shard1);
  EXPECT_EQ(set.excluded[0].row_begin, 100u);
  EXPECT_EQ(set.excluded[0].row_count, 100u);
  EXPECT_NE(set.excluded[0].reason.find("quarantined"), std::string::npos)
      << set.excluded[0].reason;
  EXPECT_EQ(set.excluded_rows, 100u);

  // The summary names the shard, its span and the coverage shortfall.
  const std::string summary = set.DegradedSummary();
  EXPECT_NE(summary.find("1 of 4 shards"), std::string::npos) << summary;
  EXPECT_NE(summary.find("100 of 400 rows"), std::string::npos) << summary;
  EXPECT_NE(summary.find(shard1), std::string::npos) << summary;
  EXPECT_NE(summary.find("rows [100, 200)"), std::string::npos) << summary;

  // The surviving jobs run to completion — the batch is degraded, not
  // broken.
  const auto results = RunPipelineJobs(set.jobs);
  ASSERT_EQ(results.size(), 3u);
  for (const auto& result : results) {
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.report.num_records, 100u);
  }
}

TEST_F(DegradedSweepTest, CorruptShardIsExcludedByItsProbe) {
  // Flip a bit of shard 2's final stored block hash: the seal digest
  // (which hashes the stored block hashes) no longer matches the
  // manifest, so the probe excludes the shard up front.
  const std::string shard2 =
      data::ShardFileName(data::ShardStemForManifest(kManifestPath), 2);
  {
    std::fstream file(shard2,
                      std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file.is_open());
    file.seekg(-4, std::ios::end);  // Inside the final block's checksum.
    char byte = 0;
    file.read(&byte, 1);
    file.seekp(-4, std::ios::end);
    byte = static_cast<char>(byte ^ 0x1);
    file.write(&byte, 1);
  }
  const PerShardJobSet job_set = Decompose();
  EXPECT_EQ(job_set.jobs.size(), 3u);
  ASSERT_EQ(job_set.excluded.size(), 1u);
  EXPECT_EQ(job_set.excluded[0].shard_index, 2u);
}

TEST_F(DegradedSweepTest, ProbeTelemetryCountsEveryShardOnce) {
  metrics::ResetAllMetrics();
  const std::string shard1 =
      data::ShardFileName(data::ShardStemForManifest(kManifestPath), 1);
  ASSERT_EQ(std::rename(
                shard1.c_str(),
                (shard1 + kQuarantineFileSuffix).c_str()),
            0);
  Decompose();
  EXPECT_EQ(CounterByName("pipeline.shard_probes"), 4u);
  EXPECT_EQ(CounterByName("pipeline.shards_excluded"), 1u);
}

TEST_F(DegradedSweepTest, DecomposesTheGivenManifestNotThePathsCurrentOne) {
  // M1 names all four shards. Then the path is republished the way
  // retention does it: M2 names only shards 2 and 3, renumbered from
  // row 0. The decomposition of M1 must still cover exactly M1's shards.
  auto first = data::ReadShardManifest(kManifestPath);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const data::ShardManifest m1 = first.value();
  data::ShardManifest m2 = m1;
  m2.shards.erase(m2.shards.begin(), m2.shards.begin() + 2);
  m2.shards[0].row_begin = 0;
  m2.shards[1].row_begin = m2.shards[0].row_count;
  m2.num_records = m2.shards[0].row_count + m2.shards[1].row_count;
  ASSERT_TRUE(data::WriteShardManifest(m2, kManifestPath).ok());
  auto current = data::ReadShardManifest(kManifestPath);
  ASSERT_TRUE(current.ok()) << current.status().ToString();
  ASSERT_NE(current.value().manifest_hash, m1.manifest_hash);

  const PerShardJobSet set =
      MakePerShardJobsDegraded(m1, kManifestPath, Prototype());
  EXPECT_EQ(set.total_shards, 4u);
  EXPECT_EQ(set.total_rows, 400u);
  EXPECT_TRUE(set.excluded.empty());
  EXPECT_EQ(set.shard_of_job, (std::vector<size_t>{0, 1, 2, 3}));
  const auto results = RunPipelineJobs(set.jobs);
  ASSERT_EQ(results.size(), 4u);
  for (size_t s = 0; s < results.size(); ++s) {
    EXPECT_TRUE(results[s].status.ok()) << results[s].status.ToString();
    EXPECT_EQ(results[s].report.num_records, m1.shards[s].row_count);
  }
}

}  // namespace
}  // namespace pipeline
}  // namespace randrecon
