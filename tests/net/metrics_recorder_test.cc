// MetricsRecorder (src/net/metrics_recorder.h): fake-clock cadence,
// rotation, retention, index continuation across runs, crash-safe
// publish under the recorder.write / recorder.publish failpoints, and
// the reconciliation contract — the final sample Close() takes agrees
// EXACTLY with a run report written just before it. Zero sleeps: every
// test drives the trace::NowNanos() fake clock by hand.

#include "net/metrics_recorder.h"

#include <dirent.h>
#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/run_report.h"
#include "common/trace.h"

namespace randrecon {
namespace net {
namespace {

metrics::Counter test_recorder_counter("test.recorder.counter");

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

std::vector<std::string> ListDir(const std::string& dir) {
  std::vector<std::string> names;
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) return names;
  while (struct dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  ::closedir(handle);
  return names;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream file(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(file, line)) lines.push_back(line);
  return lines;
}

class MetricsRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    metrics::ResetAllMetrics();
    DisarmAllFailpoints();
    dir_ = ::testing::TempDir() + "/recorder_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    for (const std::string& name : ListDir(dir_)) {
      std::remove((dir_ + "/" + name).c_str());
    }
    ::rmdir(dir_.c_str());
  }

  void TearDown() override { DisarmAllFailpoints(); }

  std::unique_ptr<MetricsRecorder> MustCreate(MetricsRecorder::Options
                                                  options) {
    auto created = MetricsRecorder::Create(std::move(options));
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    return std::move(created).value();
  }

  MetricsRecorder::Options DefaultOptions() {
    MetricsRecorder::Options options;
    options.series_dir = dir_;
    options.interval_nanos = 100;
    return options;
  }

  std::string dir_;
};

TEST_F(MetricsRecorderTest, CreateValidatesOptions) {
  MetricsRecorder::Options options;
  EXPECT_FALSE(MetricsRecorder::Create(options).ok());  // No series_dir.
  options.series_dir = dir_;
  options.interval_nanos = 0;
  EXPECT_FALSE(MetricsRecorder::Create(options).ok());
  options.interval_nanos = 100;
  options.samples_per_file = 0;
  EXPECT_FALSE(MetricsRecorder::Create(options).ok());
}

TEST_F(MetricsRecorderTest, TickSamplesOnTheFakeClockCadence) {
  trace::FakeClockGuard clock(0);
  std::unique_ptr<MetricsRecorder> recorder = MustCreate(DefaultOptions());
  EXPECT_FALSE(recorder->Tick());  // Parked one interval out.
  clock.Advance(99);
  EXPECT_FALSE(recorder->Tick());
  clock.Advance(1);
  EXPECT_TRUE(recorder->Tick());   // Due at exactly +interval.
  EXPECT_FALSE(recorder->Tick());  // Re-armed.
  // A big jump yields ONE sample — state, not backfill.
  clock.Advance(100000);
  EXPECT_TRUE(recorder->Tick());
  EXPECT_FALSE(recorder->Tick());
  EXPECT_EQ(recorder->samples(), 2u);

  const std::vector<std::string> lines =
      ReadLines(dir_ + "/metrics-000001.jsonl");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"seq\":1,\"t_nanos\":100,"), std::string::npos);
  EXPECT_NE(lines[1].find("\"seq\":2,\"t_nanos\":100100,"),
            std::string::npos);
  EXPECT_NE(lines[0].find("\"counters\":{"), std::string::npos);
}

TEST_F(MetricsRecorderTest, RotatesEverySamplesPerFile) {
  trace::FakeClockGuard clock(0);
  MetricsRecorder::Options options = DefaultOptions();
  options.samples_per_file = 2;
  std::unique_ptr<MetricsRecorder> recorder = MustCreate(options);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(recorder->SampleNow().ok());
  }
  EXPECT_EQ(ReadLines(dir_ + "/metrics-000001.jsonl").size(), 2u);
  EXPECT_EQ(ReadLines(dir_ + "/metrics-000002.jsonl").size(), 2u);
  EXPECT_EQ(ReadLines(dir_ + "/metrics-000003.jsonl").size(), 1u);
  EXPECT_EQ(recorder->PublishedFiles().size(), 3u);
}

TEST_F(MetricsRecorderTest, RetentionUnlinksTheOldestFiles) {
  trace::FakeClockGuard clock(0);
  MetricsRecorder::Options options = DefaultOptions();
  options.samples_per_file = 1;
  options.retain_files = 1;
  std::unique_ptr<MetricsRecorder> recorder = MustCreate(options);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(recorder->SampleNow().ok());
  }
  EXPECT_FALSE(FileExists(dir_ + "/metrics-000001.jsonl"));
  EXPECT_FALSE(FileExists(dir_ + "/metrics-000002.jsonl"));
  EXPECT_TRUE(FileExists(dir_ + "/metrics-000003.jsonl"));
  const std::vector<std::string> published = recorder->PublishedFiles();
  ASSERT_EQ(published.size(), 1u);
  EXPECT_EQ(published[0], dir_ + "/metrics-000003.jsonl");
}

TEST_F(MetricsRecorderTest, ContinuesTheIndexSequenceAcrossRuns) {
  trace::FakeClockGuard clock(0);
  {
    std::unique_ptr<MetricsRecorder> first = MustCreate(DefaultOptions());
    ASSERT_TRUE(first->SampleNow().ok());
    ASSERT_TRUE(first->SampleNow().ok());
    ASSERT_TRUE(first->Close().ok());
  }
  // A new recorder never appends to published history: it opens the
  // next index and restarts seq at 1 (the run-boundary marker).
  std::unique_ptr<MetricsRecorder> second = MustCreate(DefaultOptions());
  ASSERT_TRUE(second->SampleNow().ok());
  const std::vector<std::string> lines =
      ReadLines(dir_ + "/metrics-000002.jsonl");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"seq\":1,"), std::string::npos);
  EXPECT_EQ(ReadLines(dir_ + "/metrics-000001.jsonl").size(), 3u);
}

TEST_F(MetricsRecorderTest, WriteFaultLeavesPublishedSeriesIntact) {
  trace::FakeClockGuard clock(0);
  std::unique_ptr<MetricsRecorder> recorder = MustCreate(DefaultOptions());
  ASSERT_TRUE(recorder->SampleNow().ok());
  const std::vector<std::string> before =
      ReadLines(dir_ + "/metrics-000001.jsonl");

  ASSERT_TRUE(ArmFailpoint("recorder.write", FailpointAction::kError).ok());
  EXPECT_FALSE(recorder->SampleNow().ok());
  // The published file is untouched and no temp was left behind.
  EXPECT_EQ(ReadLines(dir_ + "/metrics-000001.jsonl"), before);
  EXPECT_EQ(ListDir(dir_).size(), 1u);

  // The failed sample was retained in memory: the next publish lands
  // it together with the new one.
  DisarmAllFailpoints();
  ASSERT_TRUE(recorder->SampleNow().ok());
  EXPECT_EQ(ReadLines(dir_ + "/metrics-000001.jsonl").size(), 3u);
}

TEST_F(MetricsRecorderTest, PublishFaultLeavesNoTempBehind) {
  trace::FakeClockGuard clock(0);
  std::unique_ptr<MetricsRecorder> recorder = MustCreate(DefaultOptions());
  ASSERT_TRUE(
      ArmFailpoint("recorder.publish", FailpointAction::kError).ok());
  EXPECT_FALSE(recorder->SampleNow().ok());
  EXPECT_TRUE(ListDir(dir_).empty());
  // The buffered-but-unpublished sample must not surface a path that
  // does not exist on disk.
  EXPECT_TRUE(recorder->PublishedFiles().empty());
  DisarmAllFailpoints();
  ASSERT_TRUE(recorder->SampleNow().ok());
  EXPECT_EQ(ListDir(dir_).size(), 1u);
  EXPECT_EQ(recorder->PublishedFiles().size(), 1u);
}

TEST_F(MetricsRecorderTest, IndexContinuationBeyondSixDigits) {
  trace::FakeClockGuard clock(0);
  // FilePath pads to 6 digits but emits more past 999999; the restart
  // scan must still see such files and continue after them.
  ASSERT_EQ(::mkdir(dir_.c_str(), 0755), 0);
  {
    std::ofstream file(dir_ + "/metrics-1000000.jsonl");
    file << "{\"seq\":1,\"t_nanos\":0,\"counters\":{}}\n";
  }
  std::unique_ptr<MetricsRecorder> recorder = MustCreate(DefaultOptions());
  ASSERT_TRUE(recorder->SampleNow().ok());
  const std::vector<std::string> published = recorder->PublishedFiles();
  ASSERT_EQ(published.size(), 1u);
  EXPECT_EQ(published[0], dir_ + "/metrics-1000001.jsonl");
  EXPECT_TRUE(FileExists(dir_ + "/metrics-1000001.jsonl"));
}

TEST_F(MetricsRecorderTest, RestartSkipsStrayNamesThatAreNotSeriesIndexes) {
  trace::FakeClockGuard clock(0);
  {
    std::unique_ptr<MetricsRecorder> first = MustCreate(DefaultOptions());
    ASSERT_TRUE(first->Close().ok());
  }
  // A sign- or overflow-tolerant parse reads each of these as a huge
  // index (2^64 - 1) and wraps the next index to 0.
  const std::vector<std::string> strays = {
      "metrics--1.jsonl", "metrics-+7.jsonl", "metrics- 7.jsonl",
      "metrics-18446744073709551616.jsonl"};
  for (const std::string& stray : strays) {
    std::ofstream(dir_ + "/" + stray) << "{}\n";
  }
  std::unique_ptr<MetricsRecorder> second = MustCreate(DefaultOptions());
  ASSERT_TRUE(second->SampleNow().ok());
  EXPECT_EQ(second->PublishedFiles(),
            std::vector<std::string>{dir_ + "/metrics-000002.jsonl"});
  for (const std::string& stray : strays) {
    EXPECT_TRUE(FileExists(dir_ + "/" + stray)) << stray;
  }
}

TEST_F(MetricsRecorderTest, RetentionCoversEarlierRuns) {
  trace::FakeClockGuard clock(0);
  MetricsRecorder::Options options = DefaultOptions();
  options.samples_per_file = 1;
  options.retain_files = 1;
  {
    std::unique_ptr<MetricsRecorder> first = MustCreate(options);
    ASSERT_TRUE(first->SampleNow().ok());
    ASSERT_TRUE(first->SampleNow().ok());
  }
  std::unique_ptr<MetricsRecorder> second = MustCreate(options);
  ASSERT_TRUE(second->SampleNow().ok());
  // The earlier run's file counts against retain_files too.
  EXPECT_EQ(ListDir(dir_),
            std::vector<std::string>{"metrics-000003.jsonl"});
  EXPECT_EQ(second->PublishedFiles(),
            std::vector<std::string>{dir_ + "/metrics-000003.jsonl"});
}

TEST_F(MetricsRecorderTest, PublishedFilesListsOnlyThisRun) {
  trace::FakeClockGuard clock(0);
  MetricsRecorder::Options options = DefaultOptions();
  options.samples_per_file = 1;
  options.retain_files = 3;
  {
    std::unique_ptr<MetricsRecorder> first = MustCreate(options);
    ASSERT_TRUE(first->SampleNow().ok());
    ASSERT_TRUE(first->SampleNow().ok());
  }
  std::unique_ptr<MetricsRecorder> second = MustCreate(options);
  ASSERT_TRUE(second->SampleNow().ok());
  ASSERT_TRUE(second->SampleNow().ok());
  // Four files written, three kept; this run owns the newest two.
  EXPECT_EQ(ListDir(dir_).size(), 3u);
  EXPECT_FALSE(FileExists(dir_ + "/metrics-000001.jsonl"));
  EXPECT_EQ(second->PublishedFiles(),
            (std::vector<std::string>{dir_ + "/metrics-000003.jsonl",
                                      dir_ + "/metrics-000004.jsonl"}));
}

TEST_F(MetricsRecorderTest, PublishFailuresAreCounted) {
  trace::FakeClockGuard clock(0);
  std::unique_ptr<MetricsRecorder> recorder = MustCreate(DefaultOptions());
  ASSERT_TRUE(
      ArmFailpoint("recorder.publish", FailpointAction::kError).ok());
  EXPECT_FALSE(recorder->SampleNow().ok());
  DisarmAllFailpoints();
  ASSERT_TRUE(recorder->SampleNow().ok());
  const std::string json = metrics::SnapshotJson();
  EXPECT_NE(json.find("\"recorder.publish_failures\":1"),
            std::string::npos);
  EXPECT_NE(json.find("\"recorder.samples\":1"), std::string::npos);
}

/// The metrics sections ("counters":{...} through "histograms":{...})
/// of a document that embeds metrics::SnapshotJson() members verbatim.
std::string MetricsSections(const std::string& document) {
  const size_t begin = document.find("\"counters\":{");
  const size_t histograms = document.find("\"histograms\":{");
  EXPECT_NE(begin, std::string::npos);
  EXPECT_NE(histograms, std::string::npos);
  // The histograms object runs to the last '}' before either the next
  // top-level key ("spans" in reports) or the end of the sample line.
  size_t end = document.find(",\"spans\"", histograms);
  if (end == std::string::npos) end = document.rfind('}') ;
  return document.substr(begin, end - begin);
}

// THE reconciliation gate: quiesce -> write the run report -> Close().
// The final sample must agree exactly — including the recorder's own
// counters, which are bumped only AFTER a sample's snapshot is taken.
TEST_F(MetricsRecorderTest, FinalSampleReconcilesExactlyWithRunReport) {
  trace::FakeClockGuard clock(0);
  std::unique_ptr<MetricsRecorder> recorder = MustCreate(DefaultOptions());
  test_recorder_counter.Add(3);
  ASSERT_TRUE(recorder->SampleNow().ok());  // Mid-run samples.
  test_recorder_counter.Add(4);
  ASSERT_TRUE(recorder->SampleNow().ok());

  // Quiesce: all instrumented work done. The report snapshots now...
  report::RunReportBuilder builder("recorder_test");
  const std::string report_json = builder.ToJson();
  // ...and the recorder's final sample must see the identical state.
  ASSERT_TRUE(recorder->Close().ok());

  const std::vector<std::string> lines =
      ReadLines(dir_ + "/metrics-000001.jsonl");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(MetricsSections(lines.back()), MetricsSections(report_json));
  // And the mid-run samples genuinely differ (the counter moved), so
  // the equality above is not vacuous.
  EXPECT_NE(MetricsSections(lines[0]), MetricsSections(lines.back()));
}

TEST_F(MetricsRecorderTest, CloseIsIdempotentAndStopsTicks) {
  trace::FakeClockGuard clock(0);
  std::unique_ptr<MetricsRecorder> recorder = MustCreate(DefaultOptions());
  ASSERT_TRUE(recorder->Close().ok());
  EXPECT_EQ(recorder->samples(), 1u);  // The final sample.
  ASSERT_TRUE(recorder->Close().ok());
  EXPECT_EQ(recorder->samples(), 1u);
  clock.Advance(1000);
  EXPECT_FALSE(recorder->Tick());
}

}  // namespace
}  // namespace net
}  // namespace randrecon
