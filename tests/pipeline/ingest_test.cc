// The admission-controlled ingest core (src/pipeline/ingest.h): the
// accounting identity offered == appended + shed, deadline propagation
// through the queue, sticky store errors, shutdown drain, and overload
// behavior under a saturating producer. Deterministic sheds are driven
// by the injected clock (an expired per-batch deadline) and by
// failpoints (a store that refuses every block write); the saturation
// test asserts only scheduling-independent invariants.

#include "pipeline/ingest.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/trace.h"
#include "data/dataset.h"
#include "data/shard_store.h"
#include "stats/rng.h"

namespace randrecon {
namespace pipeline {
namespace {

using linalg::Matrix;

constexpr size_t kCols = 3;
constexpr size_t kBatchRows = 10;

std::vector<std::string> Names() { return {"x", "y", "z"}; }

/// Deterministic batch `index`: seeded per batch, so a readback can
/// verify bitwise which batches landed and in what order.
Matrix BatchMatrix(size_t index) {
  stats::Rng rng(1000 + static_cast<uint64_t>(index));
  return rng.GaussianMatrix(kBatchRows, kCols);
}

IngestOptions SmallStoreOptions() {
  IngestOptions options;
  options.store.shard_rows = 25;  // Rotates mid-stream.
  options.store.block_rows = 8;
  return options;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file.is_open()) << path;
  return std::string((std::istreambuf_iterator<char>(file)),
                     std::istreambuf_iterator<char>());
}

void ExpectIdentity(const IngestStats& stats) {
  EXPECT_EQ(stats.batches_offered, stats.batches_appended + stats.batches_shed);
  EXPECT_EQ(stats.rows_offered, stats.rows_appended + stats.rows_shed);
}

class IngestServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DisarmAllFailpoints();
    data::RemoveShardedStoreFiles(kPath);
  }
  void TearDown() override {
    DisarmAllFailpoints();
    data::RemoveShardedStoreFiles(kPath);
  }
  static constexpr const char* kPath = "ingest_test.rrcm";
};

TEST_F(IngestServiceTest, StartValidatesOptions) {
  IngestOptions bad = SmallStoreOptions();
  bad.queue_batches = 0;
  EXPECT_EQ(IngestService::Start(kPath, Names(), bad).status().code(),
            StatusCode::kInvalidArgument);
  IngestOptions bad_store = SmallStoreOptions();
  bad_store.store.shard_rows = 0;
  EXPECT_EQ(IngestService::Start(kPath, Names(), bad_store).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(IngestServiceTest, EveryAcceptedBatchLandsAndTheStoreValidates) {
  auto started = IngestService::Start(kPath, Names(), SmallStoreOptions());
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  std::unique_ptr<IngestService> service = std::move(started).value();
  constexpr size_t kBatches = 40;
  for (size_t b = 0; b < kBatches; ++b) {
    // The default admission timeout is generous and the writer drains,
    // so none of these may shed.
    ASSERT_TRUE(service->Offer(BatchMatrix(b), kBatchRows).ok());
  }
  ASSERT_TRUE(service->Close().ok());
  const IngestStats stats = service->stats();
  ExpectIdentity(stats);
  EXPECT_EQ(stats.batches_offered, kBatches);
  EXPECT_EQ(stats.batches_appended, kBatches);
  EXPECT_EQ(stats.batches_shed, 0u);
  EXPECT_EQ(stats.rows_appended, kBatches * kBatchRows);
  EXPECT_EQ(service->published_rows(), kBatches * kBatchRows);
  // The published snapshot holds exactly the offered rows, in offer
  // order (one producer → FIFO).
  auto snapshot =
      data::RollingStoreSnapshotReader::Open(service->manifest_path());
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ASSERT_EQ(snapshot.value().num_records(), kBatches * kBatchRows);
  Matrix all(kBatches * kBatchRows, kCols);
  {
    data::RollingStoreSnapshotReader reader = std::move(snapshot).value();
    ASSERT_TRUE(reader.ReadRows(0, kBatches * kBatchRows, &all).ok());
  }
  for (size_t b = 0; b < kBatches; ++b) {
    const Matrix expected = BatchMatrix(b);
    ASSERT_EQ(std::memcmp(all.row_data(b * kBatchRows), expected.data(),
                          kBatchRows * kCols * sizeof(double)),
              0)
        << "batch " << b << " is not bitwise-intact in the store";
  }
}

TEST_F(IngestServiceTest, ExpiredDeadlinesShedAtDequeueNeverWriteLate) {
  trace::FakeClockGuard clock(1'000'000);
  auto started = IngestService::Start(kPath, Names(), SmallStoreOptions());
  ASSERT_TRUE(started.ok());
  std::unique_ptr<IngestService> service = std::move(started).value();
  // A deadline equal to "now" admits (there is queue room RIGHT NOW)
  // but is already expired when the writer dequeues it — under the
  // fake clock, every such batch must shed, deterministically.
  constexpr size_t kBatches = 5;
  for (size_t b = 0; b < kBatches; ++b) {
    ASSERT_TRUE(
        service->Offer(BatchMatrix(b), kBatchRows, /*deadline_nanos=*/1'000'000)
            .ok());
  }
  // A batch with a live (far-future) deadline still lands.
  ASSERT_TRUE(
      service->Offer(BatchMatrix(99), kBatchRows, /*deadline_nanos=*/1'000'000'000)
          .ok());
  ASSERT_TRUE(service->Close().ok());
  const IngestStats stats = service->stats();
  ExpectIdentity(stats);
  EXPECT_EQ(stats.batches_offered, kBatches + 1);
  EXPECT_EQ(stats.batches_shed, kBatches);
  EXPECT_EQ(stats.batches_appended, 1u);
  EXPECT_EQ(service->published_rows(), kBatchRows);
}

TEST_F(IngestServiceTest, StoreErrorsStickShedTheRestAndSurfaceAtClose) {
  // Every block write fails: the first dequeued batch kills the store,
  // later batches shed (counted), new Offers fail fast with the sticky
  // error, and Close reports it.
  FailpointConfig config;
  config.action = FailpointAction::kError;
  config.code = StatusCode::kIoError;
  config.fire_count = kFailpointFireForever;
  ASSERT_TRUE(ArmFailpoint("store.block_write", config).ok());
  auto started = IngestService::Start(kPath, Names(), SmallStoreOptions());
  ASSERT_TRUE(started.ok());
  std::unique_ptr<IngestService> service = std::move(started).value();
  size_t accepted = 0;
  Status sticky = Status::OK();
  for (size_t b = 0; b < 50; ++b) {
    const Status offered = service->Offer(BatchMatrix(b), kBatchRows);
    if (offered.ok()) {
      ++accepted;
    } else {
      sticky = offered;  // The writer's error propagated to producers.
    }
  }
  const Status closed = service->Close();
  EXPECT_EQ(closed.code(), StatusCode::kIoError);
  if (!sticky.ok()) EXPECT_EQ(sticky.code(), StatusCode::kIoError);
  const IngestStats stats = service->stats();
  ExpectIdentity(stats);
  EXPECT_EQ(stats.batches_offered, accepted);
  EXPECT_EQ(stats.batches_appended, 0u);
  EXPECT_EQ(stats.batches_shed, accepted);
}

TEST_F(IngestServiceTest, PublishErrorCountsTheBatchAppendedNotShed) {
  // 10-row batches into 25-row shards: the third batch seals shard 0,
  // and the publish after it fails once. The whole batch is already in
  // the store, so it counts as appended; the error sticks, later
  // batches shed, and Close publishes exactly the appended rows — no
  // row counted as shed ever reaches the manifest.
  ASSERT_TRUE(ArmFailpoint("roll.publish", FailpointAction::kError).ok());
  auto started = IngestService::Start(kPath, Names(), SmallStoreOptions());
  ASSERT_TRUE(started.ok());
  std::unique_ptr<IngestService> service = std::move(started).value();
  for (size_t b = 0; b < 10; ++b) {
    (void)service->Offer(BatchMatrix(b), kBatchRows);
  }
  EXPECT_EQ(service->Close().code(), StatusCode::kIoError);
  const IngestStats stats = service->stats();
  ExpectIdentity(stats);
  EXPECT_EQ(stats.batches_appended, 3u);
  EXPECT_EQ(stats.rows_appended, 3 * kBatchRows);
  auto manifest = data::ReadShardManifest(kPath);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_EQ(manifest.value().num_records, stats.rows_appended)
      << "the published store disagrees with the appended-row count";
  EXPECT_EQ(service->published_rows(), stats.rows_appended);
}

TEST_F(IngestServiceTest, CloseNamesTheAppendedRowsAStoreFailureLost) {
  // 30-row batches into 100-row shards of one block each: block write 1
  // seals shard 0 (published after batch 4), block write 2 fails the
  // seal of shard 1 inside batch 7. That batch sheds, but rows 100..179
  // of batches 4–6 were appended into the discarded open shard and no
  // manifest will name them: Close must say so, exactly.
  FailpointConfig config;
  config.action = FailpointAction::kError;
  config.code = StatusCode::kIoError;
  config.trigger_hit = 2;
  ASSERT_TRUE(ArmFailpoint("store.block_write", config).ok());
  IngestOptions options;
  options.store.shard_rows = 100;
  auto started = IngestService::Start(kPath, Names(), options);
  ASSERT_TRUE(started.ok());
  std::unique_ptr<IngestService> service = std::move(started).value();
  stats::Rng rng(7);
  for (size_t b = 0; b < 10; ++b) {
    (void)service->Offer(rng.GaussianMatrix(30, kCols), 30);
  }
  const Status closed = service->Close();
  const IngestStats stats = service->stats();
  ExpectIdentity(stats);
  EXPECT_EQ(stats.rows_appended, 180u);
  EXPECT_EQ(service->published_rows(), 100u);
  EXPECT_EQ(closed.code(), StatusCode::kIoError);
  EXPECT_NE(closed.message().find("store.block_write"), std::string::npos)
      << closed.ToString();
  EXPECT_NE(closed.message().find("(80 of 180 appended rows lost: never "
                                  "published)"),
            std::string::npos)
      << closed.ToString();
}

TEST_F(IngestServiceTest, StoresAreByteEqualToABatchWriteOfTheSameRows) {
  // Uneven batches (empty, single-row, block- and shard-straddling)
  // through the column-major ingest path write the same manifest and
  // shard bytes as one row-major WriteShardedStore of their rows.
  const size_t kBatchSizes[] = {0, 1, 255, 4096, 4097, 70000, 3, 9000};
  size_t total = 0;
  for (const size_t rows : kBatchSizes) total += rows;
  for (const size_t m : {size_t{1}, size_t{3}}) {
    SCOPED_TRACE("m = " + std::to_string(m));
    std::vector<std::string> names;
    for (size_t j = 0; j < m; ++j) names.push_back("a" + std::to_string(j));
    stats::Rng rng(300 + m);
    const Matrix records = rng.GaussianMatrix(total, m);
    const std::string ingest_dir = "ingest_bytes_ingest/";
    const std::string batch_dir = "ingest_bytes_batch/";
    for (const std::string& dir : {ingest_dir, batch_dir}) {
      std::filesystem::remove_all(dir);
      std::filesystem::create_directory(dir);
    }
    IngestOptions options;
    options.store.shard_rows = 20000;
    options.admission_timeout_nanos = 60ull * 1000 * 1000 * 1000;
    auto started =
        IngestService::Start(ingest_dir + "store.rrcm", names, options);
    ASSERT_TRUE(started.ok()) << started.status().ToString();
    std::unique_ptr<IngestService> service = std::move(started).value();
    size_t row = 0;
    for (const size_t rows : kBatchSizes) {
      const Matrix batch = records.Block(row, row + rows, 0, m);
      ASSERT_TRUE(service->Offer(batch, rows).ok());
      row += rows;
    }
    ASSERT_TRUE(service->Close().ok());
    EXPECT_EQ(service->stats().rows_appended, total);
    ASSERT_TRUE(data::WriteShardedStore(data::Dataset(records),
                                        batch_dir + "store.rrcm",
                                        options.store)
                    .ok());
    auto manifest = data::ReadShardManifest(batch_dir + "store.rrcm");
    ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
    ASSERT_EQ(manifest.value().shards.size(), 5u);
    std::vector<std::string> files = {"store.rrcm"};
    for (const data::ShardManifestEntry& entry : manifest.value().shards) {
      files.push_back(entry.relative_path);
    }
    for (const std::string& file : files) {
      EXPECT_EQ(ReadFileBytes(ingest_dir + file), ReadFileBytes(batch_dir + file))
          << file << " differs";
    }
    for (const std::string& dir : {ingest_dir, batch_dir}) {
      std::filesystem::remove_all(dir);
    }
  }
}

TEST_F(IngestServiceTest, OfferAfterCloseFailsUncounted) {
  auto started = IngestService::Start(kPath, Names(), SmallStoreOptions());
  ASSERT_TRUE(started.ok());
  std::unique_ptr<IngestService> service = std::move(started).value();
  ASSERT_TRUE(service->Offer(BatchMatrix(0), kBatchRows).ok());
  ASSERT_TRUE(service->Close().ok());
  EXPECT_EQ(service->Offer(BatchMatrix(1), kBatchRows).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(service->Close().ok());  // Idempotent.
  const IngestStats stats = service->stats();
  EXPECT_EQ(stats.batches_offered, 1u);  // The rejected batch never counted.
  ExpectIdentity(stats);
}

TEST_F(IngestServiceTest, ColumnMismatchIsRejectedUncounted) {
  auto started = IngestService::Start(kPath, Names(), SmallStoreOptions());
  ASSERT_TRUE(started.ok());
  std::unique_ptr<IngestService> service = std::move(started).value();
  Matrix wrong(kBatchRows, kCols + 1);
  EXPECT_EQ(service->Offer(wrong, kBatchRows).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(service->Close().ok());
  EXPECT_EQ(service->stats().batches_offered, 0u);
}

TEST_F(IngestServiceTest, SaturationNeverBlocksPastTheDeadlineNorDropsSilently) {
  // A saturating producer against a tiny queue with near-zero admission
  // budget: which batches shed depends on scheduling, but EVERY outcome
  // is accounted and every rejection is the retryable kind.
  IngestOptions options = SmallStoreOptions();
  options.queue_batches = 1;
  options.admission_timeout_nanos = 1;  // Essentially try-only.
  auto started = IngestService::Start(kPath, Names(), options);
  ASSERT_TRUE(started.ok());
  std::unique_ptr<IngestService> service = std::move(started).value();
  constexpr size_t kBatches = 200;
  size_t ok_count = 0;
  for (size_t b = 0; b < kBatches; ++b) {
    const Status offered = service->Offer(BatchMatrix(b), kBatchRows);
    if (offered.ok()) {
      ++ok_count;
    } else {
      ASSERT_EQ(offered.code(), StatusCode::kUnavailable) << b;
      ASSERT_TRUE(offered.IsRetryable()) << b;
    }
  }
  ASSERT_TRUE(service->Close().ok());
  const IngestStats stats = service->stats();
  ExpectIdentity(stats);
  EXPECT_EQ(stats.batches_offered, kBatches);
  EXPECT_EQ(stats.batches_appended, ok_count);
  EXPECT_EQ(stats.rows_appended, service->published_rows());
  // The store holds exactly the accepted batches, still bitwise-valid.
  auto snapshot =
      data::RollingStoreSnapshotReader::Open(service->manifest_path());
  if (ok_count > 0) {
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    EXPECT_EQ(snapshot.value().num_records(), ok_count * kBatchRows);
  }
}

}  // namespace
}  // namespace pipeline
}  // namespace randrecon
