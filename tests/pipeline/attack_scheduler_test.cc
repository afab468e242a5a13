// AttackScheduler (src/pipeline/attack_scheduler.h): trigger evaluation
// on the injected clock (zero sleeps — every fake-clock test drives
// Tick() directly), the bitwise contract against a direct pipeline run,
// crash-safe report-series versioning at the publish seam, retention,
// restart recovery, and a live concurrent ingest + scheduler run (built
// with the rest of pipeline_ under the thread-sanitize CI job).

#include "pipeline/attack_scheduler.h"

#include <dirent.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/trace.h"
#include "data/byte_codec.h"
#include "data/rolling_store.h"
#include "data/shard_store.h"
#include "pipeline/chunk_sink.h"
#include "pipeline/record_source.h"
#include "stats/rng.h"

namespace randrecon {
namespace pipeline {
namespace {

using linalg::Matrix;

constexpr size_t kCols = 4;
constexpr size_t kShardRows = 40;
constexpr double kSigma = 0.5;

std::vector<std::string> Names() { return {"a", "b", "c", "d"}; }

data::ColumnStoreReadOptions SerialReadOptions() {
  data::ColumnStoreReadOptions options;
  options.parallel.num_threads = 1;
  return options;
}

/// Deterministic disguised records — shard `index` of every test store.
Matrix ShardRecords(size_t index) {
  stats::Rng rng(777 + index);
  return rng.GaussianMatrix(kShardRows, kCols);
}

/// Publishes `shards` full shards at `manifest_path`.
void PublishShards(const std::string& manifest_path, size_t shards,
                   size_t retain_shards = 0) {
  data::RollingStoreOptions options;
  options.shard_rows = kShardRows;
  options.block_rows = 16;
  options.retain_shards = retain_shards;
  auto created = data::RollingShardedStoreWriter::Create(manifest_path,
                                                         Names(), options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  data::RollingShardedStoreWriter writer = std::move(created).value();
  for (size_t s = 0; s < shards; ++s) {
    const Matrix records = ShardRecords(s);
    ASSERT_TRUE(writer.Append(records, kShardRows).ok());
    ASSERT_TRUE(writer.Publish().ok());
  }
  ASSERT_TRUE(writer.Close().ok());
}

/// Publishes shards of 40, 13, 40 and 27 rows (block_rows 7, so every
/// shard ends in a partial block): a snapshot whose shard and block
/// boundaries are both ragged.
void PublishRaggedShards(const std::string& manifest_path) {
  data::RollingStoreOptions options;
  options.shard_rows = kShardRows;
  options.block_rows = 7;
  auto created = data::RollingShardedStoreWriter::Create(manifest_path,
                                                         Names(), options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  data::RollingShardedStoreWriter writer = std::move(created).value();
  for (size_t s = 0; s < 2; ++s) {
    const Matrix records = ShardRecords(s);
    ASSERT_TRUE(writer.Append(records, kShardRows).ok());
    const size_t tail = s == 0 ? 13 : 27;
    ASSERT_TRUE(writer.Append(ShardRecords(10 + s), tail).ok());
    ASSERT_TRUE(writer.Rotate().ok());
  }
  ASSERT_TRUE(writer.Close().ok());
  auto manifest = data::ReadShardManifest(manifest_path);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  std::vector<uint64_t> rows;
  for (const data::ShardManifestEntry& shard : manifest.value().shards) {
    rows.push_back(shard.row_count);
  }
  EXPECT_EQ(rows, (std::vector<uint64_t>{40, 13, 40, 27}));
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

std::string SlurpFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::stringstream content;
  content << file.rdbuf();
  return content.str();
}

void RemoveReportDir(const std::string& dir) {
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) return;
  while (struct dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    std::remove((dir + "/" + name).c_str());
  }
  ::closedir(handle);
  ::rmdir(dir.c_str());
}

AttackSchedulerOptions BaseOptions(const std::string& report_dir) {
  AttackSchedulerOptions options;
  options.sigma = kSigma;
  options.attack.chunk_rows = 64;  // Chunking never changes numbers.
  options.attack.parallel.num_threads = 1;
  options.report_dir = report_dir;
  options.num_workers = 1;
  options.store_options = SerialReadOptions();
  return options;
}

class AttackSchedulerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DisarmAllFailpoints();
    data::RemoveShardedStoreFiles(kManifest);
    RemoveReportDir(kReports);
  }
  void TearDown() override {
    DisarmAllFailpoints();
    data::RemoveShardedStoreFiles(kManifest);
    RemoveReportDir(kReports);
  }
  static constexpr const char* kManifest = "attack_scheduler_test.rrcm";
  static constexpr const char* kReports = "attack_scheduler_test_reports";
};

TEST_F(AttackSchedulerTest, CreateValidatesOptions) {
  AttackSchedulerOptions no_dir = BaseOptions("");
  EXPECT_EQ(AttackScheduler::Create(kManifest, no_dir).status().code(),
            StatusCode::kInvalidArgument);
  AttackSchedulerOptions bad_sigma = BaseOptions(kReports);
  bad_sigma.sigma = 0.0;
  EXPECT_EQ(AttackScheduler::Create(kManifest, bad_sigma).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(AttackSchedulerTest, CadenceTriggerAndWarmupSkipsOnTheFakeClock) {
  trace::FakeClockGuard clock(0);
  AttackSchedulerOptions options = BaseOptions(kReports);
  options.cadence_nanos = 100;
  auto created = AttackScheduler::Create(kManifest, options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  AttackScheduler& scheduler = *created.value();
  // The first Tick is immediately due; no manifest is published yet, so
  // the cycle is skipped WITH a cause (normal warm-up).
  SchedulerCycleResult result = scheduler.Tick();
  EXPECT_EQ(result.outcome, CycleOutcome::kSkippedNoManifest);
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(scheduler.skipped_no_manifest(), 1u);
  // Not due again until the cadence elapses.
  EXPECT_EQ(scheduler.Tick().outcome, CycleOutcome::kNotDue);
  clock.Advance(99);
  EXPECT_EQ(scheduler.Tick().outcome, CycleOutcome::kNotDue);
  clock.Advance(1);
  EXPECT_EQ(scheduler.Tick().outcome, CycleOutcome::kSkippedNoManifest);
  EXPECT_EQ(scheduler.overruns(), 0u);
  // Skipped cycles consume no version and publish nothing.
  EXPECT_EQ(scheduler.reports_published(), 0u);
  EXPECT_EQ(scheduler.next_version(), 1u);
  EXPECT_EQ(scheduler.cycles(), 0u);  // Attacked cycles only.
}

TEST_F(AttackSchedulerTest, OverrunsCountMissedCadenceSlots) {
  trace::FakeClockGuard clock(0);
  PublishShards(kManifest, 2);
  AttackSchedulerOptions options = BaseOptions(kReports);
  options.cadence_nanos = 100;
  auto created = AttackScheduler::Create(kManifest, options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  AttackScheduler& scheduler = *created.value();
  SchedulerCycleResult first = scheduler.Tick();
  ASSERT_EQ(first.outcome, CycleOutcome::kOk) << first.status.ToString();
  EXPECT_EQ(first.version, 1u);
  // Sleep through slots at 100, 200, 300; wake inside the 400 slot:
  // the slot being served is not an overrun, the three missed are.
  clock.Advance(450);
  SchedulerCycleResult late = scheduler.Tick();
  EXPECT_EQ(late.outcome, CycleOutcome::kSkippedUnchanged);
  EXPECT_EQ(scheduler.overruns(), 3u);
  // The anchor advanced to 500 — no catch-up burst.
  EXPECT_EQ(scheduler.Tick().outcome, CycleOutcome::kNotDue);
  clock.Advance(50);
  EXPECT_EQ(scheduler.Tick().outcome, CycleOutcome::kSkippedUnchanged);
  EXPECT_EQ(scheduler.overruns(), 3u);
}

TEST_F(AttackSchedulerTest, RowsTriggerFiresOnPublishedGrowth) {
  trace::FakeClockGuard clock(0);
  data::RollingStoreOptions store_options;
  store_options.shard_rows = kShardRows;
  store_options.block_rows = 16;
  auto writer_created = data::RollingShardedStoreWriter::Create(
      kManifest, Names(), store_options);
  ASSERT_TRUE(writer_created.ok());
  data::RollingShardedStoreWriter writer = std::move(writer_created).value();
  ASSERT_TRUE(writer.Append(ShardRecords(0), kShardRows).ok());
  ASSERT_TRUE(writer.Publish().ok());

  AttackSchedulerOptions options = BaseOptions(kReports);
  options.min_new_rows = kShardRows;  // No cadence: growth-only trigger.
  auto created = AttackScheduler::Create(kManifest, options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  AttackScheduler& scheduler = *created.value();
  // With no previous report, any published manifest is new rows.
  SchedulerCycleResult first = scheduler.Tick();
  ASSERT_EQ(first.outcome, CycleOutcome::kOk) << first.status.ToString();
  EXPECT_EQ(first.snapshot_rows, kShardRows);
  EXPECT_EQ(first.rows_since_last_report,
            static_cast<int64_t>(kShardRows));
  // No growth, no trigger — the unchanged-snapshot skip is never even
  // reached.
  EXPECT_EQ(scheduler.Tick().outcome, CycleOutcome::kNotDue);
  EXPECT_EQ(scheduler.skipped_unchanged(), 0u);
  // One more published shard fires it.
  ASSERT_TRUE(writer.Append(ShardRecords(1), kShardRows).ok());
  ASSERT_TRUE(writer.Publish().ok());
  SchedulerCycleResult second = scheduler.Tick();
  ASSERT_EQ(second.outcome, CycleOutcome::kOk) << second.status.ToString();
  EXPECT_EQ(second.version, 2u);
  EXPECT_EQ(second.snapshot_rows, 2 * kShardRows);
  EXPECT_EQ(second.rows_since_last_report,
            static_cast<int64_t>(kShardRows));
  ASSERT_TRUE(writer.Close().ok());
}

// Under retention a full window keeps the snapshot's size constant, so
// the rows trigger counts the rows of shards the last report did not
// attack: every new shard still fires it. A restarted scheduler has no
// baseline, so its first rows check fires.
TEST_F(AttackSchedulerTest, RowsTriggerKeepsFiringOnAFullRetentionWindow) {
  trace::FakeClockGuard clock(0);
  data::RollingStoreOptions store_options;
  store_options.shard_rows = kShardRows;
  store_options.block_rows = 16;
  store_options.retain_shards = 2;
  auto writer_created = data::RollingShardedStoreWriter::Create(
      kManifest, Names(), store_options);
  ASSERT_TRUE(writer_created.ok());
  data::RollingShardedStoreWriter writer = std::move(writer_created).value();
  for (size_t s = 0; s < 2; ++s) {
    ASSERT_TRUE(writer.Append(ShardRecords(s), kShardRows).ok());
    ASSERT_TRUE(writer.Publish().ok());
  }

  AttackSchedulerOptions options = BaseOptions(kReports);
  options.min_new_rows = kShardRows;  // No cadence: growth-only trigger.
  {
    auto created = AttackScheduler::Create(kManifest, options);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    AttackScheduler& scheduler = *created.value();
    SchedulerCycleResult first = scheduler.Tick();
    ASSERT_EQ(first.outcome, CycleOutcome::kOk) << first.status.ToString();
    EXPECT_EQ(first.snapshot_rows, 2 * kShardRows);
    EXPECT_EQ(scheduler.Tick().outcome, CycleOutcome::kNotDue);
    for (size_t s = 2; s < 4; ++s) {
      // One more shard; retention retires the oldest, so the window
      // stays at two shards.
      ASSERT_TRUE(writer.Append(ShardRecords(s), kShardRows).ok());
      ASSERT_TRUE(writer.Publish().ok());
      SchedulerCycleResult next = scheduler.Tick();
      ASSERT_EQ(next.outcome, CycleOutcome::kOk) << next.status.ToString();
      EXPECT_EQ(next.version, s);
      EXPECT_EQ(next.snapshot_rows, 2 * kShardRows);
      EXPECT_EQ(next.rows_since_last_report, 0);
      EXPECT_EQ(scheduler.Tick().outcome, CycleOutcome::kNotDue);
    }
  }
  auto recreated = AttackScheduler::Create(kManifest, options);
  ASSERT_TRUE(recreated.ok()) << recreated.status().ToString();
  EXPECT_EQ(recreated.value()->Tick().outcome,
            CycleOutcome::kSkippedUnchanged);
  ASSERT_TRUE(writer.Close().ok());
}

// The scheduled cycle over the published snapshot and a direct pipeline
// run over the same manifest must agree bitwise.
void ExpectCycleMatchesADirectRun(const std::string& manifest_path,
                                  const std::string& report_dir) {
  AttackSchedulerOptions options = BaseOptions(report_dir);
  auto created = AttackScheduler::Create(manifest_path, options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  SchedulerCycleResult result = created.value()->RunCycleNow();
  ASSERT_EQ(result.outcome, CycleOutcome::kOk) << result.status.ToString();

  // The same attack, run directly over the same manifest with the same
  // noise model — the scheduler's scheduling must be invisible in the
  // numbers.
  auto opened = ShardedRecordSource::Open(manifest_path, SerialReadOptions());
  ASSERT_TRUE(opened.ok());
  ShardedRecordSource source = std::move(opened).value();
  const perturb::NoiseModel noise =
      perturb::NoiseModel::IndependentGaussian(kCols, kSigma);
  NullChunkSink sink;
  StreamingAttackPipeline pipeline(options.attack);
  auto direct = pipeline.Run(&source, noise, &sink);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  EXPECT_EQ(result.report.num_records, direct.value().num_records);
  EXPECT_EQ(result.report.num_components, direct.value().num_components);
  ASSERT_EQ(result.report.eigenvalues.size(),
            direct.value().eigenvalues.size());
  EXPECT_EQ(std::memcmp(result.report.eigenvalues.data(),
                        direct.value().eigenvalues.data(),
                        direct.value().eigenvalues.size() * sizeof(double)),
            0)
      << "scheduled eigenvalues are not bitwise equal to the direct run";
  ASSERT_EQ(result.report.mean.size(), direct.value().mean.size());
  EXPECT_EQ(std::memcmp(result.report.mean.data(),
                        direct.value().mean.data(),
                        direct.value().mean.size() * sizeof(double)),
            0);
  const double scheduled_rmse = result.report.rmse_vs_disguised;
  const double direct_rmse = direct.value().rmse_vs_disguised;
  EXPECT_EQ(std::memcmp(&scheduled_rmse, &direct_rmse, sizeof(double)), 0);

  // And the published report names the snapshot it attacked: the
  // manifest's own trailing hash.
  auto manifest = data::ReadShardManifest(manifest_path);
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(result.manifest_hash, manifest.value().manifest_hash);
  const std::string report = SlurpFile(result.report_path);
  EXPECT_NE(report.find("\"manifest_hash\":\"" +
                        data::HexU64(result.manifest_hash) + "\""),
            std::string::npos);
}

TEST_F(AttackSchedulerTest, CycleOutputIsBitwiseEqualToADirectPipelineRun) {
  for (const bool ragged : {false, true}) {
    SCOPED_TRACE(ragged ? "ragged shards" : "even shards");
    data::RemoveShardedStoreFiles(kManifest);
    RemoveReportDir(kReports);
    if (ragged) {
      PublishRaggedShards(kManifest);
    } else {
      PublishShards(kManifest, 3);
    }
    ExpectCycleMatchesADirectRun(kManifest, kReports);
  }
}

TEST_F(AttackSchedulerTest, SeriesStateSurvivesARestart) {
  trace::FakeClockGuard clock(0);
  PublishShards(kManifest, 2);
  AttackSchedulerOptions options = BaseOptions(kReports);
  {
    auto created = AttackScheduler::Create(kManifest, options);
    ASSERT_TRUE(created.ok());
    SchedulerCycleResult first = created.value()->RunCycleNow();
    ASSERT_EQ(first.outcome, CycleOutcome::kOk) << first.status.ToString();
    EXPECT_EQ(first.version, 1u);
  }
  // A new instance (fresh process, same directory) resumes the series:
  // version counter, unchanged-skip hash and row-delta chain all
  // recover from the published files.
  auto recreated = AttackScheduler::Create(kManifest, options);
  ASSERT_TRUE(recreated.ok()) << recreated.status().ToString();
  AttackScheduler& scheduler = *recreated.value();
  EXPECT_EQ(scheduler.next_version(), 2u);
  EXPECT_EQ(scheduler.last_published_version(), 1u);
  EXPECT_EQ(scheduler.RunCycleNow().outcome, CycleOutcome::kSkippedUnchanged);
  // Rebuild the store with one more shard (fresh writer, same path).
  data::RemoveShardedStoreFiles(kManifest);
  PublishShards(kManifest, 3);
  SchedulerCycleResult second = scheduler.RunCycleNow();
  ASSERT_EQ(second.outcome, CycleOutcome::kOk) << second.status.ToString();
  EXPECT_EQ(second.version, 2u);
  EXPECT_EQ(second.rows_since_last_report, static_cast<int64_t>(kShardRows));
  // The published chain agrees.
  const std::string report = SlurpFile(second.report_path);
  EXPECT_NE(report.find("\"prev_version\":1"), std::string::npos);
  EXPECT_NE(report.find("\"prev_rows\":" + std::to_string(2 * kShardRows)),
            std::string::npos);
}

TEST_F(AttackSchedulerTest, RestartSkipsAStrayOverflowingReportName) {
  PublishShards(kManifest, 2);
  AttackSchedulerOptions options = BaseOptions(kReports);
  options.attack_unchanged = true;
  {
    auto created = AttackScheduler::Create(kManifest, options);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    ASSERT_EQ(created.value()->RunCycleNow().outcome, CycleOutcome::kOk);
  }
  // 20 digits past 2^64 - 1: a saturating parse reads this as the
  // newest version and wraps the counter to 0.
  const std::string stray =
      std::string(kReports) + "/report-99999999999999999999.json";
  std::ofstream(stray) << "{}\n";
  auto recreated = AttackScheduler::Create(kManifest, options);
  ASSERT_TRUE(recreated.ok()) << recreated.status().ToString();
  AttackScheduler& scheduler = *recreated.value();
  EXPECT_EQ(scheduler.last_published_version(), 1u);
  EXPECT_EQ(scheduler.next_version(), 2u);
  SchedulerCycleResult next = scheduler.RunCycleNow();
  ASSERT_EQ(next.outcome, CycleOutcome::kOk) << next.status.ToString();
  EXPECT_EQ(next.version, 2u);
  EXPECT_NE(SlurpFile(std::string(kReports) + "/latest.json")
                .find("\"version\":2"),
            std::string::npos);
  EXPECT_TRUE(FileExists(stray));
}

TEST_F(AttackSchedulerTest, PublishFailureConsumesNoVersion) {
  PublishShards(kManifest, 2);
  AttackSchedulerOptions options = BaseOptions(kReports);
  options.attack_unchanged = true;  // Re-attack the same snapshot.
  auto created = AttackScheduler::Create(kManifest, options);
  ASSERT_TRUE(created.ok());
  AttackScheduler& scheduler = *created.value();
  ASSERT_TRUE(ArmFailpoint("sched.publish", FailpointAction::kError).ok());
  SchedulerCycleResult failed = scheduler.RunCycleNow();
  DisarmAllFailpoints();
  EXPECT_EQ(failed.outcome, CycleOutcome::kFailed);
  EXPECT_FALSE(failed.status.ok());
  EXPECT_EQ(failed.version, 0u);
  EXPECT_EQ(scheduler.reports_published(), 0u);
  EXPECT_EQ(scheduler.cycles_failed(), 1u);
  EXPECT_EQ(scheduler.next_version(), 1u);
  EXPECT_FALSE(FileExists(std::string(kReports) + "/" +
                          AttackScheduler::ReportFileName(1)));
  // The version the failed cycle did NOT consume is the next publish.
  SchedulerCycleResult ok = scheduler.RunCycleNow();
  ASSERT_EQ(ok.outcome, CycleOutcome::kOk) << ok.status.ToString();
  EXPECT_EQ(ok.version, 1u);
  EXPECT_EQ(scheduler.cycles(), 2u);
  EXPECT_EQ(scheduler.cycles_ok(), 1u);
}

TEST_F(AttackSchedulerTest, FailureAfterTheRenameStillConsumesTheVersion) {
  PublishShards(kManifest, 2);
  AttackSchedulerOptions options = BaseOptions(kReports);
  options.attack_unchanged = true;
  auto created = AttackScheduler::Create(kManifest, options);
  ASSERT_TRUE(created.ok());
  AttackScheduler& scheduler = *created.value();
  // Stands in for a failed directory fsync: report-000001.json is
  // already visible under its final name.
  ASSERT_TRUE(
      ArmFailpoint("sched.after_rename", FailpointAction::kError).ok());
  SchedulerCycleResult first = scheduler.RunCycleNow();
  DisarmAllFailpoints();
  ASSERT_EQ(first.outcome, CycleOutcome::kOk) << first.status.ToString();
  EXPECT_EQ(first.version, 1u);
  EXPECT_EQ(scheduler.reports_published(), 1u);
  EXPECT_EQ(scheduler.next_version(), 2u);
  const std::string dir(kReports);
  const std::string report = SlurpFile(dir + "/" +
                                       AttackScheduler::ReportFileName(1));
  // The next cycle publishes a new version instead of overwriting it.
  SchedulerCycleResult second = scheduler.RunCycleNow();
  ASSERT_EQ(second.outcome, CycleOutcome::kOk) << second.status.ToString();
  EXPECT_EQ(second.version, 2u);
  EXPECT_EQ(SlurpFile(dir + "/" + AttackScheduler::ReportFileName(1)), report);
  EXPECT_NE(SlurpFile(second.report_path).find("\"prev_version\":1"),
            std::string::npos);
}

TEST_F(AttackSchedulerTest, LatestPointerFailureIsNonFatalAndRepaired) {
  PublishShards(kManifest, 2);
  AttackSchedulerOptions options = BaseOptions(kReports);
  auto created = AttackScheduler::Create(kManifest, options);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<AttackScheduler> scheduler = std::move(created).value();
  ASSERT_TRUE(ArmFailpoint("sched.latest", FailpointAction::kError).ok());
  SchedulerCycleResult result = scheduler->RunCycleNow();
  DisarmAllFailpoints();
  // The report published — a stale derived pointer never fails a cycle.
  ASSERT_EQ(result.outcome, CycleOutcome::kOk) << result.status.ToString();
  const std::string latest = std::string(kReports) + "/latest.json";
  EXPECT_FALSE(FileExists(latest));
  // Create on the same directory repairs the pointer.
  scheduler.reset();
  auto recreated = AttackScheduler::Create(kManifest, options);
  ASSERT_TRUE(recreated.ok());
  ASSERT_TRUE(FileExists(latest));
  EXPECT_NE(SlurpFile(latest).find("\"version\":1"), std::string::npos);
}

TEST_F(AttackSchedulerTest, RetentionKeepsTheNewestReports) {
  PublishShards(kManifest, 2);
  AttackSchedulerOptions options = BaseOptions(kReports);
  options.attack_unchanged = true;
  options.retain_reports = 2;
  auto created = AttackScheduler::Create(kManifest, options);
  ASSERT_TRUE(created.ok());
  AttackScheduler& scheduler = *created.value();
  for (uint64_t version = 1; version <= 3; ++version) {
    SchedulerCycleResult result = scheduler.RunCycleNow();
    ASSERT_EQ(result.outcome, CycleOutcome::kOk) << result.status.ToString();
    ASSERT_EQ(result.version, version);
  }
  const std::string dir(kReports);
  EXPECT_FALSE(FileExists(dir + "/" + AttackScheduler::ReportFileName(1)));
  EXPECT_TRUE(FileExists(dir + "/" + AttackScheduler::ReportFileName(2)));
  EXPECT_TRUE(FileExists(dir + "/" + AttackScheduler::ReportFileName(3)));
  // Retirement never rewinds the counter: the next publish is 4, even
  // though only two files remain.
  EXPECT_EQ(scheduler.next_version(), 4u);
}

TEST_F(AttackSchedulerTest, DegradedFallbackCoversHealthyShards) {
  PublishShards(kManifest, 3);
  AttackSchedulerOptions options = BaseOptions(kReports);
  auto created = AttackScheduler::Create(kManifest, options);
  ASSERT_TRUE(created.ok());
  // The whole-stream job's first chunk read fails once (fire_count 1);
  // the per-shard fallback then covers every shard cleanly.
  ASSERT_TRUE(ArmFailpoint("source.next_chunk", FailpointAction::kError).ok());
  SchedulerCycleResult result = created.value()->RunCycleNow();
  DisarmAllFailpoints();
  ASSERT_EQ(result.outcome, CycleOutcome::kDegraded)
      << result.status.ToString();
  EXPECT_FALSE(result.status.ok());  // Keeps the whole-stream failure.
  EXPECT_EQ(result.version, 1u);
  ASSERT_EQ(result.jobs.size(), 4u);  // Whole stream + 3 shard jobs.
  EXPECT_FALSE(result.jobs[0].status.ok());
  for (size_t i = 1; i < result.jobs.size(); ++i) {
    EXPECT_TRUE(result.jobs[i].status.ok())
        << result.jobs[i].status.ToString();
  }
  EXPECT_TRUE(result.excluded.empty());
  const std::string report = SlurpFile(result.report_path);
  EXPECT_NE(report.find("\"degraded\":true"), std::string::npos);
  EXPECT_NE(report.find("\"outcome\":\"degraded\""), std::string::npos);
}

TEST_F(AttackSchedulerTest, StartStopLifecycle) {
  PublishShards(kManifest, 2);
  AttackSchedulerOptions options = BaseOptions(kReports);
  options.cadence_nanos = 1;  // Always due on the real clock.
  options.poll_nanos = 1000 * 1000;
  auto created = AttackScheduler::Create(kManifest, options);
  ASSERT_TRUE(created.ok());
  AttackScheduler& scheduler = *created.value();
  ASSERT_TRUE(scheduler.Start().ok());
  EXPECT_EQ(scheduler.Start().code(), StatusCode::kFailedPrecondition);
  // The daemon's first due Tick attacks and publishes version 1.
  while (scheduler.reports_published() == 0) std::this_thread::yield();
  scheduler.Stop();
  scheduler.Stop();  // Idempotent.
  EXPECT_GE(scheduler.cycles(), 1u);
  // Restartable after a stop.
  ASSERT_TRUE(scheduler.Start().ok());
  scheduler.Stop();
}

// ---------------------------------------------------------------------------
// Crash at the publish seam: the series resumes with no gap and no
// duplicate version.
// ---------------------------------------------------------------------------

TEST_F(AttackSchedulerTest, CrashAtPublishLeavesNoGapAndNoDuplicate) {
  PublishShards(kManifest, 2);
  AttackSchedulerOptions options = BaseOptions(kReports);
  options.attack_unchanged = true;
  const pid_t child = ::fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) {
    DisarmAllFailpoints();
    auto created = AttackScheduler::Create(kManifest, options);
    if (!created.ok()) ::_exit(43);
    // Publish report 1 cleanly, then die INSIDE the publish of report 2
    // — after the decision to publish, before any file lands.
    if (created.value()->RunCycleNow().outcome != CycleOutcome::kOk) {
      ::_exit(44);
    }
    if (!ArmFailpoint("sched.publish", FailpointAction::kCrash, 1).ok()) {
      ::_exit(45);
    }
    (void)created.value()->RunCycleNow();
    ::_exit(46);  // Unreachable: the failpoint must have crashed us.
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status)) << "child died abnormally";
  ASSERT_EQ(WEXITSTATUS(status), kFailpointCrashExitCode);

  // Restart on the same directory: version 2 was never consumed, so the
  // recovered scheduler hands it out — no gap, no duplicate.
  auto recreated = AttackScheduler::Create(kManifest, options);
  ASSERT_TRUE(recreated.ok()) << recreated.status().ToString();
  AttackScheduler& scheduler = *recreated.value();
  EXPECT_EQ(scheduler.last_published_version(), 1u);
  EXPECT_EQ(scheduler.next_version(), 2u);
  SchedulerCycleResult resumed = scheduler.RunCycleNow();
  ASSERT_EQ(resumed.outcome, CycleOutcome::kOk) << resumed.status.ToString();
  EXPECT_EQ(resumed.version, 2u);
  const std::string dir(kReports);
  EXPECT_TRUE(FileExists(dir + "/" + AttackScheduler::ReportFileName(1)));
  EXPECT_TRUE(FileExists(dir + "/" + AttackScheduler::ReportFileName(2)));
  EXPECT_FALSE(FileExists(dir + "/" + AttackScheduler::ReportFileName(3)));
  EXPECT_NE(SlurpFile(dir + "/latest.json").find("\"version\":2"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Live run: a rolling writer republishing while the scheduler attacks
// (TSan-clean by construction — the filesystem is the only shared
// state between the writer and the scheduler's snapshot opens).
// ---------------------------------------------------------------------------

TEST_F(AttackSchedulerTest, ConcurrentIngestAndSchedulerStayConsistent) {
  constexpr size_t kLiveShards = 12;
  AttackSchedulerOptions options = BaseOptions(kReports);
  options.cadence_nanos = 1;        // Every daemon poll attacks.
  options.poll_nanos = 200 * 1000;  // 0.2 ms — many cycles per run.
  options.retry.max_attempts = 3;   // Snapshot-vs-republish races retry.
  auto created = AttackScheduler::Create(kManifest, options);
  ASSERT_TRUE(created.ok());
  AttackScheduler& scheduler = *created.value();
  ASSERT_TRUE(scheduler.Start().ok());

  data::RollingStoreOptions store_options;
  store_options.shard_rows = kShardRows;
  store_options.block_rows = 16;
  auto writer_created = data::RollingShardedStoreWriter::Create(
      kManifest, Names(), store_options);
  ASSERT_TRUE(writer_created.ok());
  data::RollingShardedStoreWriter writer = std::move(writer_created).value();
  for (size_t s = 0; s < kLiveShards; ++s) {
    const Matrix records = ShardRecords(s);
    // Uneven appends straddle rotation boundaries.
    ASSERT_TRUE(writer.Append(records, kShardRows / 2).ok());
    Matrix rest(kShardRows - kShardRows / 2, kCols);
    std::memcpy(rest.data(), records.row_data(kShardRows / 2),
                rest.rows() * kCols * sizeof(double));
    ASSERT_TRUE(writer.Append(rest, rest.rows()).ok());
    ASSERT_TRUE(writer.Publish().ok());
  }
  ASSERT_TRUE(writer.Close().ok());
  scheduler.Stop();
  // One forced final cycle so the sealed store is always covered.
  SchedulerCycleResult final_cycle = scheduler.RunCycleNow();
  ASSERT_TRUE(final_cycle.outcome == CycleOutcome::kOk ||
              final_cycle.outcome == CycleOutcome::kSkippedUnchanged)
      << final_cycle.status.ToString();

  // The attribution identity is exact whatever interleaving happened.
  EXPECT_EQ(scheduler.cycles(), scheduler.cycles_ok() +
                                    scheduler.cycles_degraded() +
                                    scheduler.cycles_failed());
  EXPECT_EQ(scheduler.reports_published(),
            scheduler.cycles_ok() + scheduler.cycles_degraded());
  EXPECT_GE(scheduler.reports_published(), 1u);
  EXPECT_EQ(scheduler.cycles_failed(), 0u);
  // Every published report attacked a consistent sealed prefix: its row
  // count is a whole number of shards.
  for (uint64_t version = 1; version <= scheduler.last_published_version();
       ++version) {
    const std::string path = std::string(kReports) + "/" +
                             AttackScheduler::ReportFileName(version);
    ASSERT_TRUE(FileExists(path)) << "gap in the series at " << version;
    const std::string report = SlurpFile(path);
    const size_t at = report.find("\"snapshot_rows\":");
    ASSERT_NE(at, std::string::npos);
    const uint64_t rows = std::strtoull(
        report.c_str() + at + std::strlen("\"snapshot_rows\":"), nullptr, 10);
    EXPECT_EQ(rows % kShardRows, 0u)
        << "report " << version << " saw a torn (unsealed) snapshot of "
        << rows << " rows";
    EXPECT_LE(rows, kLiveShards * kShardRows);
    EXPECT_NE(report.find("\"version\":" + std::to_string(version)),
              std::string::npos);
  }
  // The final report covers the whole sealed store.
  const std::string last =
      SlurpFile(std::string(kReports) + "/" +
                AttackScheduler::ReportFileName(
                    scheduler.last_published_version()));
  EXPECT_NE(last.find("\"snapshot_rows\":" +
                      std::to_string(kLiveShards * kShardRows)),
            std::string::npos);
}

}  // namespace
}  // namespace pipeline
}  // namespace randrecon
