// Crash-safe store recovery (src/data/store_recovery.h).
//
// The heart of this file is the crash-torture matrix: for EVERY
// registered write-path failpoint, a child process writes a sharded
// store and is crashed (::_exit, no flushes — a kill -9 mid-write) at
// the 1st, 2nd, ... Nth hit of that failpoint, and the parent asserts
// that RecoverShardedStore turns the wreckage into either a provably
// empty store or a fully-readable store whose records are a bitwise-
// exact prefix of the uncrashed run. The writer is single-threaded
// and every read runs on serial ParallelOptions, so the forked children
// never interact with a thread pool.

#include "data/store_recovery.h"

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/file_io.h"
#include "data/rolling_store.h"
#include "data/shard_store.h"
#include "stats/rng.h"

namespace randrecon {
namespace data {
namespace {

using linalg::Matrix;

constexpr size_t kRows = 630;      // 7 shards: 6 full + 1 partial.
constexpr size_t kCols = 5;
constexpr size_t kShardRows = 100;

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

/// The deterministic records every test writes — the ground truth the
/// recovered prefix is compared against, bit for bit.
const Matrix& ReferenceRecords() {
  static const Matrix* records = [] {
    stats::Rng rng(20050609);
    return new Matrix(rng.GaussianMatrix(kRows, kCols));
  }();
  return *records;
}

RollingStoreOptions WriteOptions() {
  RollingStoreOptions options;
  options.shard_rows = kShardRows;
  options.block_rows = 32;
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

/// Streams the reference records into `manifest_path` in uneven chunks
/// (straddling shard and block boundaries), as a batch write: no
/// Publish before Close, so the manifest is written last.
Status WriteStoreOnce(const std::string& manifest_path) {
  const Matrix& records = ReferenceRecords();
  auto created = RollingShardedStoreWriter::Create(
      manifest_path,
      {"alpha", "beta", "gamma", "delta", "epsilon"},
      WriteOptions());
  RR_RETURN_NOT_OK(created.status());
  RollingShardedStoreWriter writer = std::move(created).value();
  const size_t chunk = 37;
  Matrix buffer(chunk, kCols);
  for (size_t begin = 0; begin < kRows; begin += chunk) {
    const size_t rows = std::min(chunk, kRows - begin);
    std::memcpy(buffer.data(), records.row_data(begin),
                rows * kCols * sizeof(double));
    RR_RETURN_NOT_OK(writer.Append(buffer, rows));
  }
  return writer.Close();
}

/// Reads every record of the (recovered) store and asserts it is the
/// bitwise-exact leading prefix of the reference records.
void ExpectBitwisePrefix(const std::string& manifest_path,
                         uint64_t expected_records) {
  auto opened = ShardedStoreReader::Open(manifest_path, SerialReadOptions());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ShardedStoreReader reader = std::move(opened).value();
  ASSERT_EQ(reader.num_records(), expected_records);
  if (expected_records == 0) return;
  Matrix buffer(static_cast<size_t>(expected_records), kCols);
  ASSERT_TRUE(
      reader.ReadRows(0, static_cast<size_t>(expected_records), &buffer)
          .ok());
  EXPECT_EQ(std::memcmp(buffer.data(), ReferenceRecords().data(),
                        static_cast<size_t>(expected_records) * kCols *
                            sizeof(double)),
            0)
      << "recovered records are not a bitwise prefix of the uncrashed run";
}

/// No orphan temp may survive recovery, for the manifest or any shard
/// index in a generous range.
void ExpectNoTempsLeft(const std::string& manifest_path) {
  EXPECT_FALSE(FileExists(TempPathFor(manifest_path)));
  const std::string stem = ShardStemForManifest(manifest_path);
  const std::string directory = ManifestDirectory(manifest_path);
  for (size_t index = 0; index < 10; ++index) {
    const std::string temp =
        TempPathFor(directory + ShardFileName(stem, index));
    EXPECT_FALSE(FileExists(temp)) << temp;
  }
}

class StoreRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override { RemoveShardedStoreFiles(kPath); }
  void TearDown() override { RemoveShardedStoreFiles(kPath); }
  static constexpr const char* kPath = "store_recovery_test.rrcm";
};

TEST_F(StoreRecoveryTest, IntactStoreIsANoOp) {
  ASSERT_TRUE(WriteStoreOnce(kPath).ok());
  auto recovered = RecoverShardedStore(kPath, SerialRecoveryOptions());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const StoreRecoveryReport& report = recovered.value();
  EXPECT_EQ(report.recovered_shards, 7u);
  EXPECT_EQ(report.recovered_records, kRows);
  EXPECT_FALSE(report.manifest_rebuilt);
  EXPECT_FALSE(report.store_empty);
  EXPECT_TRUE(report.removed_files.empty());
  EXPECT_TRUE(report.quarantined_files.empty());
  ExpectBitwisePrefix(kPath, kRows);
}

TEST_F(StoreRecoveryTest, MissingManifestIsRebuiltOverTheShards) {
  ASSERT_TRUE(WriteStoreOnce(kPath).ok());
  ASSERT_EQ(std::remove(kPath), 0);
  auto recovered = RecoverShardedStore(kPath, SerialRecoveryOptions());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered.value().manifest_rebuilt);
  EXPECT_EQ(recovered.value().recovered_records, kRows);
  ExpectBitwisePrefix(kPath, kRows);
}

TEST_F(StoreRecoveryTest, OrphanTempsAreSweptWithoutTouchingTheStore) {
  ASSERT_TRUE(WriteStoreOnce(kPath).ok());
  // A crashed later writer's leavings: a manifest temp and a temp for a
  // shard index past the store.
  const std::string stray_shard_temp = TempPathFor(
      ShardFileName(ShardStemForManifest(kPath), 7));
  std::ofstream(TempPathFor(kPath)) << "half a manifest";
  std::ofstream(stray_shard_temp) << "half a shard";
  auto recovered = RecoverShardedStore(kPath, SerialRecoveryOptions());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value().removed_files.size(), 2u);
  EXPECT_FALSE(recovered.value().manifest_rebuilt);
  EXPECT_EQ(recovered.value().recovered_records, kRows);
  ExpectNoTempsLeft(kPath);
  ExpectBitwisePrefix(kPath, kRows);
}

TEST_F(StoreRecoveryTest, CorruptShardIsQuarantinedAndThePrefixKept) {
  ASSERT_TRUE(WriteStoreOnce(kPath).ok());
  // Truncate shard 5: shards 0-4 remain the maximal valid prefix, and
  // sealed shard 6 beyond the hole must be quarantined too (it cannot
  // be proven to belong to the recovered stream).
  const std::string stem = ShardStemForManifest(kPath);
  const std::string shard5 = ShardFileName(stem, 5);
  ASSERT_EQ(::truncate(shard5.c_str(), 128), 0);
  auto recovered = RecoverShardedStore(kPath, SerialRecoveryOptions());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const StoreRecoveryReport& report = recovered.value();
  EXPECT_TRUE(report.manifest_rebuilt);
  EXPECT_EQ(report.recovered_shards, 5u);
  EXPECT_EQ(report.recovered_records, 5 * kShardRows);
  ASSERT_EQ(report.quarantined_files.size(), 2u);
  EXPECT_EQ(report.quarantined_files[0], shard5 + kQuarantineFileSuffix);
  EXPECT_EQ(report.quarantined_files[1],
            ShardFileName(stem, 6) + kQuarantineFileSuffix);
  EXPECT_TRUE(FileExists(shard5 + kQuarantineFileSuffix));
  EXPECT_FALSE(FileExists(shard5));
  ExpectBitwisePrefix(kPath, 5 * kShardRows);

  // Idempotence: a second pass finds a valid store and changes nothing.
  auto again = RecoverShardedStore(kPath, SerialRecoveryOptions());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_FALSE(again.value().manifest_rebuilt);
  EXPECT_EQ(again.value().recovered_records, 5 * kShardRows);
  EXPECT_TRUE(again.value().removed_files.empty());
  EXPECT_TRUE(again.value().quarantined_files.empty());
}

TEST_F(StoreRecoveryTest, NothingSealedMeansProvablyEmpty) {
  // A stale manifest over vanished shards: nothing sealed survives, so
  // recovery must remove the manifest rather than leave a file claiming
  // records that cannot be read.
  ASSERT_TRUE(WriteStoreOnce(kPath).ok());
  const std::string stem = ShardStemForManifest(kPath);
  for (size_t index = 0; index < 7; ++index) {
    ASSERT_EQ(std::remove(ShardFileName(stem, index).c_str()), 0);
  }
  auto recovered = RecoverShardedStore(kPath, SerialRecoveryOptions());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered.value().store_empty);
  EXPECT_EQ(recovered.value().recovered_records, 0u);
  EXPECT_FALSE(FileExists(kPath));

  // Recovering a path that holds nothing at all is also empty + a no-op.
  auto empty = RecoverShardedStore(kPath, SerialRecoveryOptions());
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_TRUE(empty.value().store_empty);
  EXPECT_TRUE(empty.value().removed_files.empty());
}

// ---------------------------------------------------------------------------
// The crash-torture matrix.
// ---------------------------------------------------------------------------

/// Every write-path failpoint a batch write reaches between the first
/// byte and the manifest rename. roll.retire fires only under
/// retention, which a batch write never sets (the rolling matrix in
/// rolling_store_test.cc covers it). Read-path failpoints
/// (store.read_block, source.next_chunk) cannot corrupt a store and are
/// exercised by the retry tests instead.
const char* const kWritePathFailpoints[] = {
    "roll.write",     "roll.seal",      "roll.publish",
    "store.block_write", "store.seal",  "store.fsync",
    "store.rename",   "manifest.write", "manifest.fsync",
    "manifest.rename",
};

TEST_F(StoreRecoveryTest, CrashAtEveryFailpointHitRecoversABitwisePrefix) {
  // Generate the reference before any fork so children inherit it and
  // never allocate it themselves.
  ReferenceRecords();
  for (const char* failpoint : kWritePathFailpoints) {
    int crashes = 0;
    for (uint64_t hit = 1; hit <= 300; ++hit) {
      RemoveShardedStoreFiles(kPath);
      const pid_t child = ::fork();
      ASSERT_GE(child, 0) << "fork failed";
      if (child == 0) {
        // In the child: arm the crash and write. The writer is
        // single-threaded, so no thread-pool state is inherited torn.
        // _Exit skips destructors and gtest entirely — the only exits
        // are the failpoint's ::_exit(42) or the clean 0/43 here.
        DisarmAllFailpoints();
        if (!ArmFailpoint(failpoint, FailpointAction::kCrash, hit).ok()) {
          ::_exit(44);
        }
        const Status written = WriteStoreOnce(kPath);
        ::_exit(written.ok() ? 0 : 43);
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

      auto recovered = RecoverShardedStore(kPath, SerialRecoveryOptions());
      ASSERT_TRUE(recovered.ok())
          << failpoint << " hit " << hit << ": "
          << recovered.status().ToString();
      const StoreRecoveryReport& report = recovered.value();
      ExpectNoTempsLeft(kPath);
      if (report.store_empty) {
        EXPECT_FALSE(FileExists(kPath))
            << failpoint << " hit " << hit
            << ": empty recovery left a manifest behind";
      } else {
        ASSERT_LE(report.recovered_records, kRows);
        ExpectBitwisePrefix(kPath, report.recovered_records);
      }
      // Recovery is idempotent: a second pass validates the first.
      auto again = RecoverShardedStore(kPath, SerialRecoveryOptions());
      ASSERT_TRUE(again.ok()) << again.status().ToString();
      EXPECT_EQ(again.value().recovered_records, report.recovered_records)
          << failpoint << " hit " << hit;
      EXPECT_TRUE(again.value().removed_files.empty())
          << failpoint << " hit " << hit;
      EXPECT_TRUE(again.value().quarantined_files.empty())
          << failpoint << " hit " << hit;
    }
    EXPECT_GT(crashes, 0)
        << "failpoint '" << failpoint
        << "' never fired — the torture matrix is not covering it";
  }
}

}  // namespace
}  // namespace data
}  // namespace randrecon
