// Rolling sharded stores (src/data/rolling_store.h): sealing on the
// row trigger, Publish as its own call, retention, pinned snapshots,
// and the two proofs the reader-while-writer protocol rests on:
//
//   * The crash-torture matrix: a child process runs continuous ingest
//     (Append + Publish per batch) with retention and is crashed
//     (::_exit, no flushes) at the 1st, 2nd, ... Nth hit of EVERY
//     write-path failpoint. The
//     parent asserts that whatever manifest is on disk after the crash
//     ALREADY opens and reads bitwise-exactly (that is the protocol —
//     no recovery needed to serve readers), and that RecoverShardedStore
//     is a safe, idempotent cleanup on top.
//   * A TSan-clean concurrent run: one writer thread rotating and
//     republishing while reader threads open snapshots through the
//     filesystem only — the test builds with the rest of data_ under
//     the thread-sanitize CI job.

#include "data/rolling_store.h"

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/file_io.h"
#include "data/shard_store.h"
#include "data/store_recovery.h"
#include "stats/rng.h"

namespace randrecon {
namespace data {
namespace {

using linalg::Matrix;

constexpr size_t kRows = 370;     // 9 full shards + 1 partial at 40/shard.
constexpr size_t kCols = 4;
constexpr size_t kShardRows = 40;

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

/// Deterministic ground truth; every published snapshot must be a
/// bitwise shard-aligned window of these rows.
const Matrix& ReferenceRecords() {
  static const Matrix* records = [] {
    stats::Rng rng(20050607);
    return new Matrix(rng.GaussianMatrix(kRows, kCols));
  }();
  return *records;
}

std::vector<std::string> Names() { return {"alpha", "beta", "gamma", "delta"}; }

RollingStoreOptions SmallShards() {
  RollingStoreOptions options;
  options.shard_rows = kShardRows;
  options.block_rows = 16;
  return options;
}

ColumnStoreReadOptions SerialReadOptions() {
  ColumnStoreReadOptions options;
  options.parallel.num_threads = 1;
  return options;
}

StoreRecoveryOptions SerialRecoveryOptions() {
  StoreRecoveryOptions options;
  options.store_options = SerialReadOptions();
  return options;
}

/// Appends reference rows [begin, begin + rows) in one chunk.
Status AppendReference(RollingShardedStoreWriter* writer, size_t begin,
                       size_t rows) {
  Matrix chunk(rows, kCols);
  std::memcpy(chunk.data(), ReferenceRecords().row_data(begin),
              rows * kCols * sizeof(double));
  return writer->Append(chunk, rows);
}

/// One ingest step: append the rows, then publish what sealed.
Status AppendAndPublish(RollingShardedStoreWriter* writer, size_t begin,
                        size_t rows) {
  RR_RETURN_NOT_OK(AppendReference(writer, begin, rows));
  return writer->Publish();
}

/// Reads every record of the snapshot at `manifest_path` and asserts it
/// is bitwise-equal to SOME shard-aligned window of the reference rows
/// (retention slides the window; without retention the window starts at
/// row 0). Returns the window start via `window_begin` when non-null.
void ExpectBitwiseWindow(const std::string& manifest_path,
                         size_t* window_begin = nullptr) {
  auto opened = RollingStoreSnapshotReader::Open(manifest_path,
                                                 SerialReadOptions());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  RollingStoreSnapshotReader snapshot = std::move(opened).value();
  const size_t rows = snapshot.num_records();
  ASSERT_LE(rows, kRows);
  if (rows == 0) return;
  Matrix buffer(rows, kCols);
  ASSERT_TRUE(snapshot.ReadRows(0, rows, &buffer).ok());
  for (size_t begin = 0; begin + rows <= kRows; begin += kShardRows) {
    if (std::memcmp(buffer.data(), ReferenceRecords().row_data(begin),
                    rows * kCols * sizeof(double)) == 0) {
      if (window_begin != nullptr) *window_begin = begin;
      return;
    }
  }
  FAIL() << manifest_path << ": " << rows
         << " snapshot rows match no shard-aligned reference window";
}

class RollingStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DisarmAllFailpoints();
    RemoveShardedStoreFiles(kPath);
  }
  void TearDown() override {
    DisarmAllFailpoints();
    RemoveShardedStoreFiles(kPath);
  }
  static constexpr const char* kPath = "rolling_store_test.rrcm";
};

TEST_F(RollingStoreTest, CreateValidatesOptionsAndTouchesNoFiles) {
  RollingStoreOptions bad = SmallShards();
  bad.shard_rows = 0;
  EXPECT_EQ(RollingShardedStoreWriter::Create(kPath, Names(), bad)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RollingShardedStoreWriter::Create(kPath, {}, SmallShards())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  auto created =
      RollingShardedStoreWriter::Create(kPath, Names(), SmallShards());
  ASSERT_TRUE(created.ok());
  EXPECT_FALSE(FileExists(kPath));
  EXPECT_FALSE(FileExists(ShardFileName(ShardStemForManifest(kPath), 0)));
  // A writer that never saw a row closes without creating any file.
  RollingShardedStoreWriter writer = std::move(created).value();
  EXPECT_TRUE(writer.Close().ok());
  EXPECT_FALSE(FileExists(kPath));
}

TEST_F(RollingStoreTest, AppendSealsAndOnlyPublishNamesTheShards) {
  auto created =
      RollingShardedStoreWriter::Create(kPath, Names(), SmallShards());
  ASSERT_TRUE(created.ok());
  RollingShardedStoreWriter writer = std::move(created).value();
  // Two and a half shards: the two full ones seal at their final names,
  // but no manifest names them until a publish.
  ASSERT_TRUE(AppendReference(&writer, 0, 2 * kShardRows + kShardRows / 2)
                  .ok());
  const std::string stem = ShardStemForManifest(kPath);
  EXPECT_TRUE(FileExists(ShardFileName(stem, 0)));
  EXPECT_TRUE(FileExists(ShardFileName(stem, 1)));
  EXPECT_FALSE(FileExists(ShardFileName(stem, 2)));  // Still a temp.
  EXPECT_FALSE(FileExists(kPath));
  EXPECT_EQ(writer.publishes(), 0u);
  ASSERT_TRUE(writer.Publish().ok());
  EXPECT_EQ(writer.publishes(), 1u);
  EXPECT_EQ(writer.published_rows(), 2 * kShardRows);
  EXPECT_EQ(writer.published_shards(), 2u);
  EXPECT_EQ(writer.published_rows_total(), 2 * kShardRows);
  // Nothing sealed since: a second publish writes nothing.
  ASSERT_TRUE(writer.Publish().ok());
  EXPECT_EQ(writer.publishes(), 1u);
  // Close seals the partial shard and publishes it.
  ASSERT_TRUE(writer.Close().ok());
  EXPECT_EQ(writer.publishes(), 2u);
  EXPECT_EQ(writer.published_rows(), 2 * kShardRows + kShardRows / 2);
  size_t window = 1;
  ExpectBitwiseWindow(kPath, &window);
  EXPECT_EQ(window, 0u);
}

TEST_F(RollingStoreTest, RotationPublishesAndSnapshotsReadBitwise) {
  auto created =
      RollingShardedStoreWriter::Create(kPath, Names(), SmallShards());
  ASSERT_TRUE(created.ok());
  RollingShardedStoreWriter writer = std::move(created).value();
  // Nothing is visible until a shard seals...
  ASSERT_TRUE(AppendAndPublish(&writer, 0, kShardRows / 2).ok());
  EXPECT_FALSE(FileExists(kPath));
  EXPECT_EQ(writer.publishes(), 0u);
  // ...and one full shard later a snapshot opens mid-write.
  ASSERT_TRUE(AppendAndPublish(&writer, kShardRows / 2, kShardRows).ok());
  EXPECT_EQ(writer.publishes(), 1u);
  EXPECT_EQ(writer.published_rows(), kShardRows);
  size_t window = 1;
  ExpectBitwiseWindow(kPath, &window);
  EXPECT_EQ(window, 0u);
  // Stream the rest in uneven chunks straddling shard boundaries; Close
  // publishes the final partial shard.
  size_t begin = kShardRows + kShardRows / 2;
  const size_t chunk = 33;
  while (begin < kRows) {
    const size_t rows = std::min(chunk, kRows - begin);
    ASSERT_TRUE(AppendAndPublish(&writer, begin, rows).ok());
    begin += rows;
  }
  ASSERT_TRUE(writer.Close().ok());
  EXPECT_EQ(writer.rows_written(), kRows);
  EXPECT_EQ(writer.published_rows(), kRows);
  EXPECT_EQ(writer.published_shards(), 10u);
  ExpectBitwiseWindow(kPath, &window);
  EXPECT_EQ(window, 0u);
  // And the plain sharded reader opens the same manifest.
  auto plain = ShardedStoreReader::Open(kPath, SerialReadOptions());
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain.value().num_records(), kRows);
}

TEST_F(RollingStoreTest, RetentionBoundsTheWindowAndSparesPinnedSnapshots) {
  RollingStoreOptions options = SmallShards();
  options.retain_shards = 3;
  auto created = RollingShardedStoreWriter::Create(kPath, Names(), options);
  ASSERT_TRUE(created.ok());
  RollingShardedStoreWriter writer = std::move(created).value();
  // Publish the first two shards, then pin a snapshot over them.
  ASSERT_TRUE(AppendAndPublish(&writer, 0, 2 * kShardRows).ok());
  auto pinned_open =
      RollingStoreSnapshotReader::Open(kPath, SerialReadOptions());
  ASSERT_TRUE(pinned_open.ok()) << pinned_open.status().ToString();
  RollingStoreSnapshotReader pinned = std::move(pinned_open).value();
  ASSERT_EQ(pinned.num_records(), 2 * kShardRows);
  // Write everything else: retention retires shards 0..6 and unlinks
  // their files out from under the pinned snapshot.
  ASSERT_TRUE(
      AppendAndPublish(&writer, 2 * kShardRows, kRows - 2 * kShardRows).ok());
  ASSERT_TRUE(writer.Close().ok());
  const std::string stem = ShardStemForManifest(kPath);
  EXPECT_FALSE(FileExists(ShardFileName(stem, 0)));
  EXPECT_FALSE(FileExists(ShardFileName(stem, 6)));
  EXPECT_TRUE(FileExists(ShardFileName(stem, 9)));
  // The latest snapshot is the retained window: shards 7, 8 and the
  // partial 9, renumbered from 0.
  EXPECT_EQ(writer.published_shards(), 3u);
  EXPECT_EQ(writer.published_rows(), kRows - 7 * kShardRows);
  EXPECT_EQ(writer.rows_written(), kRows);  // Monotonic, not a window.
  EXPECT_EQ(writer.published_rows_total(), kRows);  // Monotonic too.
  size_t window = 0;
  ExpectBitwiseWindow(kPath, &window);
  EXPECT_EQ(window, 7 * kShardRows);
  // The pinned snapshot still reads ITS rows bitwise — the unlinked
  // shard files live on in its mmaps.
  Matrix buffer(2 * kShardRows, kCols);
  ASSERT_TRUE(pinned.ReadRows(0, 2 * kShardRows, &buffer).ok());
  EXPECT_EQ(std::memcmp(buffer.data(), ReferenceRecords().data(),
                        2 * kShardRows * kCols * sizeof(double)),
            0)
      << "retention disturbed a pinned snapshot";
}

TEST_F(RollingStoreTest, PublishFailureIsRetriedNotSticky) {
  auto created =
      RollingShardedStoreWriter::Create(kPath, Names(), SmallShards());
  ASSERT_TRUE(created.ok());
  RollingShardedStoreWriter writer = std::move(created).value();
  ASSERT_TRUE(ArmFailpoint("roll.publish", FailpointAction::kError).ok());
  // The append seals the shard, but the publish fails retryably; the
  // manifest never appears.
  ASSERT_TRUE(AppendReference(&writer, 0, kShardRows).ok());
  const Status published = writer.Publish();
  EXPECT_EQ(published.code(), StatusCode::kIoError);
  EXPECT_TRUE(published.IsRetryable());
  EXPECT_FALSE(FileExists(kPath));
  EXPECT_EQ(writer.publishes(), 0u);
  // The writer is NOT dead: the next publish names the sealed shard
  // along with the new one.
  DisarmAllFailpoints();
  ASSERT_TRUE(AppendAndPublish(&writer, kShardRows, kShardRows).ok());
  EXPECT_EQ(writer.publishes(), 1u);
  EXPECT_EQ(writer.published_rows(), 2 * kShardRows);
  EXPECT_EQ(writer.published_shards(), 2u);
  ASSERT_TRUE(writer.Close().ok());
  size_t window = 1;
  ExpectBitwiseWindow(kPath, &window);
  EXPECT_EQ(window, 0u);
}

// ---------------------------------------------------------------------------
// The rotation crash-torture matrix.
// ---------------------------------------------------------------------------

/// Every failpoint between an ingested row and the republished
/// manifest: the writer's own seams (write, seal, publish, retire) plus
/// the column-store and manifest seams that fire underneath them.
const char* const kRotationFailpoints[] = {
    "roll.write",     "roll.seal",      "roll.publish",
    "roll.retire",    "store.block_write", "store.seal",
    "store.fsync",    "store.rename",   "manifest.write",
    "manifest.fsync", "manifest.rename",
};

/// The child's whole life: continuous ingest with rotation + retention
/// until the armed failpoint crashes it (or the stream ends).
Status IngestUntilCrash(const std::string& manifest_path) {
  RollingStoreOptions options;
  options.shard_rows = kShardRows;
  options.block_rows = 16;
  options.retain_shards = 4;  // Exercises retire + renumbering.
  auto created =
      RollingShardedStoreWriter::Create(manifest_path, Names(), options);
  RR_RETURN_NOT_OK(created.status());
  RollingShardedStoreWriter writer = std::move(created).value();
  const size_t chunk = 29;  // Uneven: straddles shard boundaries.
  for (size_t begin = 0; begin < kRows; begin += chunk) {
    RR_RETURN_NOT_OK(
        AppendAndPublish(&writer, begin, std::min(chunk, kRows - begin)));
  }
  return writer.Close();
}

TEST_F(RollingStoreTest, CrashAtEveryRotationFailpointLeavesAReadableStore) {
  ReferenceRecords();  // Materialize before any fork.
  for (const char* failpoint : kRotationFailpoints) {
    int crashes = 0;
    for (uint64_t hit = 1; hit <= 300; ++hit) {
      RemoveShardedStoreFiles(kPath);
      const pid_t child = ::fork();
      ASSERT_GE(child, 0) << "fork failed";
      if (child == 0) {
        DisarmAllFailpoints();
        if (!ArmFailpoint(failpoint, FailpointAction::kCrash, hit).ok()) {
          ::_exit(44);
        }
        ::_exit(IngestUntilCrash(kPath).ok() ? 0 : 43);
      }
      int status = 0;
      ASSERT_EQ(::waitpid(child, &status, 0), child);
      ASSERT_TRUE(WIFEXITED(status))
          << failpoint << " hit " << hit << ": child died abnormally";
      const int exit_code = WEXITSTATUS(status);
      if (exit_code == 0) break;  // This failpoint's hits are exhausted.
      ASSERT_EQ(exit_code, kFailpointCrashExitCode)
          << failpoint << " hit " << hit
          << ": unexpected child exit (43 = write error, 44 = arm error)";
      ++crashes;

      // THE protocol assertion: whatever manifest the crash left behind
      // already opens and reads bitwise — a concurrent reader at the
      // instant of the crash needed no recovery pass.
      uint64_t published_before_recovery = 0;
      if (FileExists(kPath)) {
        size_t window = 0;
        ExpectBitwiseWindow(kPath, &window);
        auto published = ReadShardManifest(kPath);
        ASSERT_TRUE(published.ok()) << failpoint << " hit " << hit;
        published_before_recovery = published.value().num_records;
      }

      // Recovery on top is safe, preserves the published manifest, and
      // is idempotent.
      auto recovered = RecoverShardedStore(kPath, SerialRecoveryOptions());
      ASSERT_TRUE(recovered.ok())
          << failpoint << " hit " << hit << ": "
          << recovered.status().ToString();
      const StoreRecoveryReport& report = recovered.value();
      EXPECT_FALSE(FileExists(TempPathFor(kPath)));
      if (report.store_empty) {
        EXPECT_EQ(published_before_recovery, 0u)
            << failpoint << " hit " << hit
            << ": recovery emptied a store with a published manifest";
        EXPECT_FALSE(FileExists(kPath));
      } else {
        EXPECT_GE(report.recovered_records, published_before_recovery)
            << failpoint << " hit " << hit
            << ": recovery lost published rows";
        ExpectBitwiseWindow(kPath);
      }
      auto again = RecoverShardedStore(kPath, SerialRecoveryOptions());
      ASSERT_TRUE(again.ok()) << again.status().ToString();
      EXPECT_EQ(again.value().recovered_records, report.recovered_records)
          << failpoint << " hit " << hit;
    }
    EXPECT_GT(crashes, 0)
        << "failpoint '" << failpoint
        << "' never fired — the torture matrix is not covering it";
  }
}

TEST_F(RollingStoreTest, SnapshotPinnedBeforeACrashStillReadsAfterIt) {
  // The cross-process spelling of the pinned-snapshot guarantee: the
  // parent opens a snapshot while the child writer is alive, the child
  // crashes mid-republish, and the parent's snapshot still reads its
  // rows bitwise.
  ReferenceRecords();
  int to_parent[2];
  int to_child[2];
  ASSERT_EQ(::pipe(to_parent), 0);
  ASSERT_EQ(::pipe(to_child), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::close(to_parent[0]);
    ::close(to_child[1]);
    DisarmAllFailpoints();
    auto created =
        RollingShardedStoreWriter::Create(kPath, Names(), SmallShards());
    if (!created.ok()) ::_exit(43);
    RollingShardedStoreWriter writer = std::move(created).value();
    // Publish shard 0, hand the parent the baton, wait for its pin.
    if (!AppendAndPublish(&writer, 0, kShardRows).ok()) ::_exit(43);
    char byte = 'p';
    if (::write(to_parent[1], &byte, 1) != 1) ::_exit(45);
    if (::read(to_child[0], &byte, 1) != 1) ::_exit(45);
    // Crash inside the NEXT manifest republish.
    if (!ArmFailpoint("roll.publish", FailpointAction::kCrash, 1).ok()) {
      ::_exit(44);
    }
    (void)AppendAndPublish(&writer, kShardRows, kShardRows);
    ::_exit(46);  // Unreachable: the failpoint must have crashed us.
  }
  ::close(to_parent[1]);
  ::close(to_child[0]);
  char byte = 0;
  ASSERT_EQ(::read(to_parent[0], &byte, 1), 1);
  auto pinned_open =
      RollingStoreSnapshotReader::Open(kPath, SerialReadOptions());
  ASSERT_TRUE(pinned_open.ok()) << pinned_open.status().ToString();
  RollingStoreSnapshotReader pinned = std::move(pinned_open).value();
  ASSERT_EQ(pinned.num_records(), kShardRows);
  ASSERT_EQ(::write(to_child[1], &byte, 1), 1);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), kFailpointCrashExitCode);
  ::close(to_parent[0]);
  ::close(to_child[1]);
  // The crash changed nothing the pinned snapshot can see.
  Matrix buffer(kShardRows, kCols);
  ASSERT_TRUE(pinned.ReadRows(0, kShardRows, &buffer).ok());
  EXPECT_EQ(std::memcmp(buffer.data(), ReferenceRecords().data(),
                        kShardRows * kCols * sizeof(double)),
            0)
      << "a crash mid-republish disturbed a previously pinned snapshot";
}

// ---------------------------------------------------------------------------
// The parse→pin race (regression): Open parses the manifest, then pins
// shards. A writer that republishes + retires between the two halves
// must surface as retryable Unavailable, not as damage.
// ---------------------------------------------------------------------------

TEST_F(RollingStoreTest, SnapshotPinRacingARepublishIsRetryableUnavailable) {
  RollingStoreOptions options = SmallShards();
  options.retain_shards = 1;
  auto created = RollingShardedStoreWriter::Create(kPath, Names(), options);
  ASSERT_TRUE(created.ok());
  RollingShardedStoreWriter writer = std::move(created).value();
  ASSERT_TRUE(AppendAndPublish(&writer, 0, kShardRows).ok());
  // Parse the manifest naming shard 0, pin nothing yet (shard opens are
  // lazy) — the exposed half of the Open seam.
  auto parsed = ShardedStoreReader::Open(kPath, SerialReadOptions());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // The writer republishes: shard 1 lands, retention retires shard 0
  // and unlinks its file out from under the parsed-but-unpinned reader.
  ASSERT_TRUE(AppendAndPublish(&writer, kShardRows, kShardRows).ok());
  ASSERT_FALSE(FileExists(ShardFileName(ShardStemForManifest(kPath), 0)));
  auto pinned = RollingStoreSnapshotReader::Pin(std::move(parsed).value(),
                                                kPath);
  ASSERT_FALSE(pinned.ok());
  EXPECT_EQ(pinned.status().code(), StatusCode::kUnavailable)
      << pinned.status().ToString();
  EXPECT_TRUE(pinned.status().IsRetryable());
  EXPECT_NE(pinned.status().message().find("raced a manifest republish"),
            std::string::npos)
      << pinned.status().ToString();
  EXPECT_NE(pinned.status().message().find("shard 0"), std::string::npos)
      << "the error must name the retired shard: "
      << pinned.status().ToString();
  // Retrying the open simply observes the newer snapshot.
  auto fresh = RollingStoreSnapshotReader::Open(kPath, SerialReadOptions());
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(fresh.value().num_records(), kShardRows);
  ASSERT_TRUE(writer.Close().ok());
}

TEST_F(RollingStoreTest, UnchangedManifestDamagePropagatesVerbatim) {
  auto created =
      RollingShardedStoreWriter::Create(kPath, Names(), SmallShards());
  ASSERT_TRUE(created.ok());
  RollingShardedStoreWriter writer = std::move(created).value();
  ASSERT_TRUE(AppendReference(&writer, 0, 2 * kShardRows).ok());
  ASSERT_TRUE(writer.Close().ok());
  auto parsed = ShardedStoreReader::Open(kPath, SerialReadOptions());
  ASSERT_TRUE(parsed.ok());
  // Real damage: the manifest still names shard 0, and no republish
  // explains the missing file — the original error must propagate, NOT
  // be laundered into a retryable race.
  ASSERT_EQ(std::remove(
                ShardFileName(ShardStemForManifest(kPath), 0).c_str()),
            0);
  auto pinned = RollingStoreSnapshotReader::Pin(std::move(parsed).value(),
                                                kPath);
  ASSERT_FALSE(pinned.ok());
  EXPECT_NE(pinned.status().code(), StatusCode::kUnavailable)
      << pinned.status().ToString();
  EXPECT_EQ(pinned.status().message().find("raced a manifest republish"),
            std::string::npos)
      << pinned.status().ToString();
}

// ---------------------------------------------------------------------------
// Concurrent writer + snapshot readers (TSan-clean by construction: the
// filesystem is the only shared state).
// ---------------------------------------------------------------------------

TEST_F(RollingStoreTest, ConcurrentSnapshotReadersSeeOnlySealedPrefixes) {
  constexpr int kReaders = 3;
  std::atomic<bool> done{false};
  std::atomic<int> good_snapshots{0};
  std::vector<std::thread> readers;
  auto check_one_snapshot = [&]() {
    auto opened = RollingStoreSnapshotReader::Open(kPath, SerialReadOptions());
    if (!opened.ok()) return;  // Not published yet.
    RollingStoreSnapshotReader snapshot = std::move(opened).value();
    const size_t rows = snapshot.num_records();
    ASSERT_GT(rows, 0u);
    ASSERT_LE(rows, kRows);
    ASSERT_TRUE(rows % kShardRows == 0 || rows == kRows)
        << "snapshot exposes a torn (unsealed) shard";
    Matrix buffer(rows, kCols);
    ASSERT_TRUE(snapshot.ReadRows(0, rows, &buffer).ok());
    // No retention here, so every snapshot is the leading prefix.
    ASSERT_EQ(std::memcmp(buffer.data(), ReferenceRecords().data(),
                          rows * kCols * sizeof(double)),
              0)
        << "a concurrent snapshot is not a bitwise prefix";
    good_snapshots.fetch_add(1, std::memory_order_relaxed);
  };
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) check_one_snapshot();
      // One guaranteed post-close snapshot, so every reader observes the
      // final store even if the writer outran its polling.
      check_one_snapshot();
    });
  }
  auto created =
      RollingShardedStoreWriter::Create(kPath, Names(), SmallShards());
  ASSERT_TRUE(created.ok());
  RollingShardedStoreWriter writer = std::move(created).value();
  const size_t chunk = 23;
  for (size_t begin = 0; begin < kRows; begin += chunk) {
    ASSERT_TRUE(
        AppendAndPublish(&writer, begin, std::min(chunk, kRows - begin)).ok());
  }
  ASSERT_TRUE(writer.Close().ok());
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  // Every reader's guaranteed final open saw the published store.
  EXPECT_GE(good_snapshots.load(), kReaders);
  ExpectBitwiseWindow(kPath);
}

}  // namespace
}  // namespace data
}  // namespace randrecon
