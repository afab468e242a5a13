// The determinism contract of the introspection plane (contract 10):
// scraping and recording OBSERVE the daemons, they never perturb them.
// A scheduler cycle run under a live stats server, a sampling
// MetricsRecorder, concurrent ingest producers, and hammering HTTP
// clients publishes a report whose attack numbers are BITWISE identical
// to a quiet baseline run. Built into the thread-sanitize CI job with
// the rest of net_ — every scrape races a real cycle here.

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "data/rolling_store.h"
#include "linalg/matrix.h"
#include "net/metrics_recorder.h"
#include "net/stats_server.h"
#include "pipeline/attack_scheduler.h"
#include "pipeline/ingest.h"
#include "stats/rng.h"

namespace randrecon {
namespace net {
namespace {

using linalg::Matrix;

constexpr size_t kCols = 4;
constexpr size_t kShardRows = 40;
constexpr size_t kShards = 3;

std::vector<std::string> Names() { return {"a", "b", "c", "d"}; }

/// Deterministic disguised records — shard `index` of every test store.
Matrix ShardRecords(size_t index) {
  stats::Rng rng(777 + index);
  return rng.GaussianMatrix(kShardRows, kCols);
}

void PublishShards(const std::string& manifest_path) {
  data::RollingStoreOptions options;
  options.shard_rows = kShardRows;
  options.block_rows = 16;
  auto created = data::RollingShardedStoreWriter::Create(manifest_path,
                                                         Names(), options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  data::RollingShardedStoreWriter writer = std::move(created).value();
  for (size_t s = 0; s < kShards; ++s) {
    ASSERT_TRUE(writer.Append(ShardRecords(s), kShardRows).ok());
    ASSERT_TRUE(writer.Publish().ok());
  }
  ASSERT_TRUE(writer.Close().ok());
}

std::string SlurpFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::stringstream content;
  content << file.rdbuf();
  return content.str();
}

void RemoveDirFiles(const std::string& dir) {
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

pipeline::AttackSchedulerOptions SchedulerOptions(
    const std::string& report_dir) {
  pipeline::AttackSchedulerOptions options;
  options.sigma = 0.5;
  options.attack.chunk_rows = 64;
  options.attack.parallel.num_threads = 1;
  options.report_dir = report_dir;
  options.num_workers = 1;
  options.store_options.parallel.num_threads = 1;
  return options;
}

/// The attack-numbers slice of a scheduler report: everything from the
/// jobs array through the exclusions array, minus the one wall-clock
/// field (elapsed_seconds). Eigen-derived values are printed at full
/// precision, so equality here is bitwise equality of the
/// reconstruction numbers.
std::string AttackNumbers(const std::string& report) {
  const size_t begin = report.find("\"jobs\":[");
  const size_t end = report.find(",\"report_series\"");
  EXPECT_NE(begin, std::string::npos);
  EXPECT_NE(end, std::string::npos);
  if (begin == std::string::npos || end == std::string::npos) return "";
  std::string slice = report.substr(begin, end - begin);
  for (size_t at = slice.find(",\"elapsed_seconds\":");
       at != std::string::npos;
       at = slice.find(",\"elapsed_seconds\":", at)) {
    size_t stop = at + 1;
    while (stop < slice.size() && slice[stop] != ',' &&
           slice[stop] != '}') {
      ++stop;
    }
    slice.erase(at, stop - at);
  }
  return slice;
}

/// One blocking HTTP/1.1 GET; returns the raw response bytes ("" on any
/// socket error — the hammer loop tolerates races with server Stop).
std::string HttpGet(int port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + target +
                              " HTTP/1.1\r\n"
                              "Host: localhost\r\n"
                              "Connection: close\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent,
                             request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buffer[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

class ScrapeUnderLoadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DisarmAllFailpoints();
    metrics::ResetAllMetrics();
    for (const char* manifest : {kLoadedManifest, kIngestManifest}) {
      data::RemoveShardedStoreFiles(manifest);
    }
    for (const char* dir : {kQuietReports, kLoadedReports, kSeries}) {
      RemoveDirFiles(dir);
    }
  }
  void TearDown() override {
    DisarmAllFailpoints();
    for (const char* manifest : {kLoadedManifest, kIngestManifest}) {
      data::RemoveShardedStoreFiles(manifest);
    }
    for (const char* dir : {kQuietReports, kLoadedReports, kSeries}) {
      RemoveDirFiles(dir);
    }
  }

  static constexpr const char* kLoadedManifest = "scrape_load_loaded.rrcm";
  static constexpr const char* kIngestManifest = "scrape_load_ingest.rrcm";
  static constexpr const char* kQuietReports = "scrape_load_quiet_reports";
  static constexpr const char* kLoadedReports = "scrape_load_loaded_reports";
  static constexpr const char* kSeries = "scrape_load_series";
};

TEST_F(ScrapeUnderLoadTest, CycleIsBitwiseIdenticalUnderScrapeLoad) {
  // --- Baseline: the store attacked with nothing else running. The
  // loaded run below reuses the SAME manifest (different report dir),
  // so the job names match byte for byte too.
  PublishShards(kLoadedManifest);
  {
    auto created = pipeline::AttackScheduler::Create(
        kLoadedManifest, SchedulerOptions(kQuietReports));
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    const pipeline::SchedulerCycleResult cycle =
        created.value()->RunCycleNow();
    ASSERT_EQ(cycle.outcome, pipeline::CycleOutcome::kOk)
        << cycle.status.ToString();
  }
  const std::string baseline =
      AttackNumbers(SlurpFile(std::string(kQuietReports) +
                              "/report-000001.json"));
  ASSERT_NE(baseline, "");

  // --- Loaded run: identical store bytes, but now a live stats server
  // hammered by scraping clients, a sampling recorder, and ingest
  // producers flooding a separate store all race the cycle.
  pipeline::AttackSchedulerOptions loaded_options =
      SchedulerOptions(kLoadedReports);
  loaded_options.trace_cycles = true;  // Tracing observes, never steers.
  auto sched_created = pipeline::AttackScheduler::Create(
      kLoadedManifest, loaded_options);
  ASSERT_TRUE(sched_created.ok()) << sched_created.status().ToString();
  pipeline::AttackScheduler& scheduler = *sched_created.value();

  MetricsRecorder::Options recorder_options;
  recorder_options.series_dir = kSeries;
  recorder_options.interval_nanos = 1000 * 1000;  // 1ms of real time.
  auto recorder_created = MetricsRecorder::Create(recorder_options);
  ASSERT_TRUE(recorder_created.ok())
      << recorder_created.status().ToString();
  MetricsRecorder& recorder = *recorder_created.value();
  recorder.Start();

  pipeline::IngestOptions ingest_options;
  ingest_options.queue_batches = 4;  // Small: sheds exercise the
  ingest_options.admission_timeout_nanos = 0;  // rate-limited log site.
  ingest_options.store.shard_rows = kShardRows;
  ingest_options.store.block_rows = 16;
  auto ingest_created = pipeline::IngestService::Start(
      kIngestManifest, Names(), ingest_options);
  ASSERT_TRUE(ingest_created.ok()) << ingest_created.status().ToString();
  pipeline::IngestService& ingest = *ingest_created.value();

  StatsServer::Options server_options;
  auto server_created = StatsServer::Start(server_options);
  ASSERT_TRUE(server_created.ok()) << server_created.status().ToString();
  StatsServer& server = *server_created.value();
  server.AddStatusSection(
      "scheduler", [&scheduler] { return scheduler.StatusJson(); });
  const int port = server.port();

  std::atomic<bool> stop_load{false};
  std::atomic<uint64_t> good_scrapes{0};
  std::vector<std::thread> load;
  for (int client = 0; client < 2; ++client) {
    load.emplace_back([port, &stop_load, &good_scrapes] {
      const char* targets[] = {"/healthz", "/varz", "/metricsz",
                               "/statusz", "/tracez"};
      size_t i = 0;
      while (!stop_load.load(std::memory_order_relaxed)) {
        const std::string response = HttpGet(port, targets[i++ % 5]);
        if (response.rfind("HTTP/1.1 200", 0) == 0) {
          good_scrapes.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  load.emplace_back([&ingest, &stop_load] {
    const Matrix batch = ShardRecords(99);
    while (!stop_load.load(std::memory_order_relaxed)) {
      (void)ingest.Offer(batch, batch.rows());  // Shed or appended: both
    }                                           // are load, not failures.
  });

  // The hammer is demonstrably serving before the cycle starts, and it
  // keeps hammering throughout — the cycle genuinely races scrapes.
  while (good_scrapes.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  const pipeline::SchedulerCycleResult loaded_cycle =
      scheduler.RunCycleNow();
  ASSERT_EQ(loaded_cycle.outcome, pipeline::CycleOutcome::kOk)
      << loaded_cycle.status.ToString();

  stop_load.store(true, std::memory_order_relaxed);
  for (std::thread& thread : load) thread.join();
  ASSERT_TRUE(ingest.Close().ok());
  ASSERT_TRUE(recorder.Close().ok());
  server.Stop();

  // The attack numbers did not move by one bit.
  const std::string loaded =
      AttackNumbers(SlurpFile(std::string(kLoadedReports) +
                              "/report-000001.json"));
  EXPECT_EQ(loaded, baseline);

  // The scrapes were real: clients parsed well-formed 200s while the
  // cycle ran, and the recorder published at least its final sample.
  EXPECT_GT(good_scrapes.load(), 0u);
  EXPECT_GE(recorder.samples(), 1u);
  const std::string varz = HttpGet(port, "/varz");
  EXPECT_EQ(varz, "");  // Stopped server answers nothing.
}

// Scrape responses stay parseable while every daemon is live — the
// hammer above only counted status lines; this pins the bodies.
TEST_F(ScrapeUnderLoadTest, ResponsesParseWhileDaemonsRun) {
  PublishShards(kLoadedManifest);
  auto sched_created = pipeline::AttackScheduler::Create(
      kLoadedManifest, SchedulerOptions(kLoadedReports));
  ASSERT_TRUE(sched_created.ok());
  pipeline::AttackScheduler& scheduler = *sched_created.value();

  StatsServer::Options server_options;
  auto server_created = StatsServer::Start(server_options);
  ASSERT_TRUE(server_created.ok());
  StatsServer& server = *server_created.value();
  server.AddStatusSection(
      "scheduler", [&scheduler] { return scheduler.StatusJson(); });

  std::atomic<bool> stop_cycles{false};
  std::thread cycler([&scheduler, &stop_cycles] {
    while (!stop_cycles.load(std::memory_order_relaxed)) {
      (void)scheduler.RunCycleNow();
    }
  });

  const int port = server.port();
  for (int round = 0; round < 10; ++round) {
    EXPECT_NE(HttpGet(port, "/healthz").find("ok"), std::string::npos);
    const std::string varz = HttpGet(port, "/varz");
    EXPECT_NE(varz.find("\"counters\":{"), std::string::npos);
    EXPECT_NE(varz.find("\"histograms\":{"), std::string::npos);
    const std::string metricsz = HttpGet(port, "/metricsz");
    EXPECT_NE(metricsz.find("# TYPE randrecon_"), std::string::npos);
    const std::string statusz = HttpGet(port, "/statusz");
    EXPECT_NE(statusz.find("\"build_info\":{"), std::string::npos);
    EXPECT_NE(statusz.find("\"scheduler\":{"), std::string::npos);
    EXPECT_NE(HttpGet(port, "/tracez").find("\"captures\":["),
              std::string::npos);
  }

  stop_cycles.store(true, std::memory_order_relaxed);
  cycler.join();
  server.Stop();
}

}  // namespace
}  // namespace net
}  // namespace randrecon
