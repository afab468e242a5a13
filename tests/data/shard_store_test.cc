// Tests for the sharded multi-file column store (src/data/shard_store.h).
//
// The manifest layout under test is specified byte-by-byte in
// docs/FORMAT.md §7; the corruption tests below patch manifests and
// shard files at the offsets that document defines and expect a Status
// NAMING THE OFFENDING SHARD — never a crash and never a silently wrong
// stream. The injected failures cover the ISSUE 5 checklist: truncated
// shard, deleted shard, swapped shards, and a stale manifest after a
// shard was resealed.

#include "data/shard_store.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "common/file_io.h"
#include "data/csv.h"
#include "data/rolling_store.h"
#include "stats/rng.h"

namespace randrecon {
namespace data {
namespace {

using linalg::Matrix;

/// Scratch manifest path whose manifest + conventionally-named shards
/// are removed on destruction.
class ScratchShardedStore {
 public:
  explicit ScratchShardedStore(const std::string& name)
      : path_("shard_store_test_" + name) {}
  ~ScratchShardedStore() { RemoveShardedStoreFiles(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string ReadFileBytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file.is_open()) << path;
  std::string bytes((std::istreambuf_iterator<char>(file)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(file.is_open()) << path;
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Recomputes the trailing manifest hash after a test patches a field
/// (docs/FORMAT.md §7.3: RRH64 over everything before the last 8 bytes).
void ResealManifest(std::string* bytes) {
  ASSERT_GE(bytes->size(), 8u);
  const uint64_t hash =
      ColumnStoreHash(bytes->data(), bytes->size() - sizeof(uint64_t));
  std::memcpy(&(*bytes)[bytes->size() - sizeof(uint64_t)], &hash,
              sizeof(hash));
}

std::vector<std::string> Names(size_t m) {
  std::vector<std::string> names;
  for (size_t j = 0; j < m; ++j) names.push_back("a" + std::to_string(j));
  return names;
}

/// Streams `records` into a sharded store in uneven chunks (exercising
/// shard- and block-boundary straddles) as a batch write: Append only,
/// so the manifest is written by Close.
void WriteSharded(const std::string& manifest_path, const Matrix& records,
                  const RollingStoreOptions& options) {
  auto created = RollingShardedStoreWriter::Create(
      manifest_path, Names(records.cols()), options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  RollingShardedStoreWriter writer = std::move(created).value();
  size_t row = 0;
  size_t chunk_rows = 1;
  while (row < records.rows()) {
    const size_t take = std::min(chunk_rows, records.rows() - row);
    Matrix chunk = records.Block(row, row + take, 0, records.cols());
    ASSERT_TRUE(writer.Append(chunk, take).ok());
    row += take;
    chunk_rows = chunk_rows * 2 + 1;  // 1, 3, 7, ... uneven on purpose.
  }
  EXPECT_EQ(writer.rows_written(), records.rows());
  ASSERT_TRUE(writer.Close().ok());
}

Matrix ReadAllSharded(const std::string& manifest_path) {
  auto reader = ShardedStoreReader::Open(manifest_path);
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  ShardedStoreReader sharded = std::move(reader).value();
  Matrix records(sharded.num_records(), sharded.num_attributes());
  EXPECT_TRUE(sharded.ReadRows(0, sharded.num_records(), &records).ok());
  return records;
}

RollingStoreOptions SmallShards(size_t shard_rows, size_t block_rows = 64) {
  RollingStoreOptions options;
  options.shard_rows = shard_rows;
  options.block_rows = block_rows;
  return options;
}

TEST(ShardManifestTest, WriteReadRoundTrip) {
  ScratchShardedStore store("manifest_roundtrip.rrcm");
  ShardManifest manifest;
  manifest.num_records = 250;
  manifest.column_names = {"age", "income", "zip"};
  manifest.shards = {
      {"a.rrcs", 0, 100, 0x1111111111111111ull},
      {"sub/b.rrcs", 100, 150, 0x2222222222222222ull},
  };
  ASSERT_TRUE(WriteShardManifest(manifest, store.path()).ok());

  auto read = ReadShardManifest(store.path());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().version, kShardManifestVersion);
  EXPECT_EQ(read.value().num_records, 250u);
  EXPECT_EQ(read.value().column_names, manifest.column_names);
  ASSERT_EQ(read.value().shards.size(), 2u);
  EXPECT_EQ(read.value().shards[1].relative_path, "sub/b.rrcs");
  EXPECT_EQ(read.value().shards[1].row_begin, 100u);
  EXPECT_EQ(read.value().shards[1].row_count, 150u);
  EXPECT_EQ(read.value().shards[1].seal_digest, 0x2222222222222222ull);
}

TEST(ShardManifestTest, WriterRejectsBadSpansAndUnsafePaths) {
  ScratchShardedStore store("manifest_bad.rrcm");
  ShardManifest manifest;
  manifest.num_records = 10;
  manifest.column_names = {"a"};

  manifest.shards = {{"x.rrcs", 0, 4, 0}, {"y.rrcs", 5, 5, 0}};  // gap at 4.
  Status status = WriteShardManifest(manifest, store.path());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("shard 1"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("gap"), std::string::npos);

  manifest.shards = {{"x.rrcs", 0, 6, 0}, {"y.rrcs", 4, 6, 0}};  // overlap.
  status = WriteShardManifest(manifest, store.path());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("overlap"), std::string::npos);

  manifest.shards = {{"../escape.rrcs", 0, 10, 0}};
  status = WriteShardManifest(manifest, store.path());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("relative"), std::string::npos);

  manifest.shards = {{"/abs.rrcs", 0, 10, 0}};
  EXPECT_EQ(WriteShardManifest(manifest, store.path()).code(),
            StatusCode::kInvalidArgument);

  // Two entries aliasing one file would silently duplicate records.
  manifest.shards = {{"x.rrcs", 0, 5, 0}, {"x.rrcs", 5, 5, 0}};
  status = WriteShardManifest(manifest, store.path());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("duplicate shard path"), std::string::npos)
      << status.ToString();
}

TEST(ShardedStoreTest, RollsShardsAndStreamsBitwise) {
  ScratchShardedStore store("roundtrip.rrcm");
  stats::Rng rng(21);
  const Matrix records = rng.GaussianMatrix(1000, 5);
  WriteSharded(store.path(), records, SmallShards(/*shard_rows=*/300));

  auto opened = ShardedStoreReader::Open(store.path());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ShardedStoreReader reader = std::move(opened).value();
  EXPECT_EQ(reader.num_records(), 1000u);
  EXPECT_EQ(reader.num_attributes(), 5u);
  EXPECT_EQ(reader.num_shards(), 4u);  // 300 + 300 + 300 + 100.
  EXPECT_EQ(reader.manifest().shards[3].row_begin, 900u);
  EXPECT_EQ(reader.manifest().shards[3].row_count, 100u);
  EXPECT_EQ(reader.attribute_names(), Names(5));

  EXPECT_TRUE(ReadAllSharded(store.path()) == records);  // bitwise ==.

  // Cross-shard and mid-shard ranges agree with the source matrix.
  for (const auto range : {std::pair<size_t, size_t>{0, 1000},
                           {299, 302},   // straddles shards 0|1
                           {250, 910},   // spans four shards
                           {950, 1000},  // inside the final partial shard
                           {300, 600}}) {
    const size_t rows = range.second - range.first;
    Matrix buffer(rows, 5);
    ASSERT_TRUE(reader.ReadRows(range.first, rows, &buffer).ok());
    EXPECT_TRUE(buffer == records.Block(range.first, range.second, 0, 5))
        << "range [" << range.first << ", " << range.second << ")";
  }

  // Out-of-range reads fail as a Status, not a crash.
  Matrix buffer(2, 5);
  EXPECT_EQ(reader.ReadRows(999, 2, &buffer).code(),
            StatusCode::kInvalidArgument);

  // Many small shards: 730 rows at 50 per shard roll 15 shards whose
  // spans tile the stream, and still stream bitwise.
  ScratchShardedStore small("roundtrip_small.rrcm");
  const Matrix small_records = rng.GaussianMatrix(730, 4);
  WriteSharded(small.path(), small_records, SmallShards(/*shard_rows=*/50));
  auto manifest = ReadShardManifest(small.path());
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_EQ(manifest.value().shards.size(), 15u);  // ceil(730 / 50)
  for (size_t s = 0; s < 15; ++s) {
    EXPECT_EQ(manifest.value().shards[s].row_begin, 50 * s) << "shard " << s;
    EXPECT_EQ(manifest.value().shards[s].row_count, s < 14 ? 50u : 30u)
        << "shard " << s;
  }
  EXPECT_TRUE(ReadAllSharded(small.path()) == small_records);
}

TEST(ShardedStoreTest, ExactMultipleLeavesNoEmptyTrailingShard) {
  ScratchShardedStore store("exact.rrcm");
  stats::Rng rng(22);
  const Matrix records = rng.GaussianMatrix(600, 3);
  WriteSharded(store.path(), records, SmallShards(/*shard_rows=*/300));
  auto reader = ShardedStoreReader::Open(store.path());
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.value().num_shards(), 2u);
  EXPECT_TRUE(ReadAllSharded(store.path()) == records);
}

TEST(ShardedStoreTest, EmptyStoreRoundTrips) {
  // A zero-row batch write: the first Append opens shard 0 even with no
  // rows, so Close seals it into a readable empty store.
  ScratchShardedStore store("empty.rrcm");
  auto created = RollingShardedStoreWriter::Create(
      store.path(), Names(4), SmallShards(/*shard_rows=*/100));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  RollingShardedStoreWriter writer = std::move(created).value();
  ASSERT_TRUE(writer.Append(Matrix(0, 4), 0).ok());
  ASSERT_TRUE(writer.Close().ok());

  auto reader = ShardedStoreReader::Open(store.path());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader.value().num_records(), 0u);
  EXPECT_EQ(reader.value().num_shards(), 1u);
  auto dataset = ReadShardedStoreDataset(store.path());
  ASSERT_TRUE(dataset.ok());
  EXPECT_EQ(dataset.value().num_records(), 0u);
}

// ---------------------------------------------------------------------------
// Failure injection: every corruption names the offending shard.
// ---------------------------------------------------------------------------

class ShardFailureTest : public ::testing::Test {
 protected:
  static constexpr size_t kRecords = 900;
  static constexpr size_t kAttributes = 4;
  static constexpr size_t kShardRows = 300;

  void SetUp() override {
    stats::Rng rng(31);
    records_ = rng.GaussianMatrix(kRecords, kAttributes);
    WriteSharded(store_.path(), records_, SmallShards(kShardRows));
    directory_ = ManifestDirectory(store_.path());
    stem_ = ShardStemForManifest(store_.path());
  }

  std::string ShardPath(size_t index) const {
    return directory_ + ShardFileName(stem_, index);
  }

  /// Opens the manifest and reads the full stream; returns the status.
  Status ReadAllStatus() {
    auto reader = ShardedStoreReader::Open(store_.path());
    if (!reader.ok()) return reader.status();
    ShardedStoreReader sharded = std::move(reader).value();
    Matrix buffer(sharded.num_records(), sharded.num_attributes());
    return sharded.ReadRows(0, sharded.num_records(), &buffer);
  }

  /// The status must name shard `index` by number and by file name.
  void ExpectNamesShard(const Status& status, size_t index) {
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("shard " + std::to_string(index)),
              std::string::npos)
        << status.ToString();
    EXPECT_NE(status.message().find(ShardFileName(stem_, index)),
              std::string::npos)
        << status.ToString();
  }

  ScratchShardedStore store_{"failures.rrcm"};
  std::string directory_;
  std::string stem_;
  Matrix records_;
};

TEST_F(ShardFailureTest, DeletedShardIsNamed) {
  ASSERT_EQ(std::remove(ShardPath(2).c_str()), 0);
  const Status status = ReadAllStatus();
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
  ExpectNamesShard(status, 2);
}

TEST_F(ShardFailureTest, TruncatedShardIsNamed) {
  std::string bytes = ReadFileBytes(ShardPath(1));
  bytes.resize(bytes.size() - 8);
  WriteFileBytes(ShardPath(1), bytes);
  const Status status = ReadAllStatus();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  ExpectNamesShard(status, 1);
  EXPECT_NE(status.message().find("truncated"), std::string::npos)
      << status.ToString();
}

TEST_F(ShardFailureTest, SwappedShardsAreNamed) {
  // Shards 0 and 1 have identical schema, geometry and row counts — only
  // the seal digest (which binds block content) can tell them apart.
  const std::string bytes0 = ReadFileBytes(ShardPath(0));
  const std::string bytes1 = ReadFileBytes(ShardPath(1));
  WriteFileBytes(ShardPath(0), bytes1);
  WriteFileBytes(ShardPath(1), bytes0);
  const Status status = ReadAllStatus();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  ExpectNamesShard(status, 0);
  EXPECT_NE(status.message().find("seal digest"), std::string::npos)
      << status.ToString();
}

TEST_F(ShardFailureTest, StaleManifestAfterResealIsNamed) {
  // Rewrite shard 2 with different records (same schema, same row count)
  // and seal it properly — only the manifest's digest is now stale.
  stats::Rng rng(77);
  const Matrix replacement = rng.GaussianMatrix(kShardRows, kAttributes);
  ColumnStoreOptions options;
  options.block_rows = 64;
  auto writer =
      ColumnStoreWriter::Create(ShardPath(2), Names(kAttributes), options);
  ASSERT_TRUE(writer.ok());
  ColumnStoreWriter shard_writer = std::move(writer).value();
  ASSERT_TRUE(shard_writer.Append(replacement, kShardRows).ok());
  ASSERT_TRUE(shard_writer.Close().ok());

  const Status status = ReadAllStatus();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  ExpectNamesShard(status, 2);
  EXPECT_NE(status.message().find("resealed"), std::string::npos)
      << status.ToString();
}

TEST_F(ShardFailureTest, SchemaMismatchIsNamed) {
  // Replace shard 1 with a store of the same shape but different column
  // names: the manifest/header schema cross-check must fire.
  stats::Rng rng(78);
  const Matrix replacement = rng.GaussianMatrix(kShardRows, kAttributes);
  ColumnStoreOptions options;
  options.block_rows = 64;
  std::vector<std::string> other_names = {"w", "x", "y", "z"};
  auto writer = ColumnStoreWriter::Create(ShardPath(1), other_names, options);
  ASSERT_TRUE(writer.ok());
  ColumnStoreWriter shard_writer = std::move(writer).value();
  ASSERT_TRUE(shard_writer.Append(replacement, kShardRows).ok());
  ASSERT_TRUE(shard_writer.Close().ok());

  const Status status = ReadAllStatus();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  ExpectNamesShard(status, 1);
  EXPECT_NE(status.message().find("schema"), std::string::npos)
      << status.ToString();
}

TEST_F(ShardFailureTest, RowCountMismatchIsNamed) {
  stats::Rng rng(79);
  const Matrix replacement = rng.GaussianMatrix(kShardRows / 2, kAttributes);
  ColumnStoreOptions options;
  options.block_rows = 64;
  auto writer =
      ColumnStoreWriter::Create(ShardPath(0), Names(kAttributes), options);
  ASSERT_TRUE(writer.ok());
  ColumnStoreWriter shard_writer = std::move(writer).value();
  ASSERT_TRUE(shard_writer.Append(replacement, kShardRows / 2).ok());
  ASSERT_TRUE(shard_writer.Close().ok());

  const Status status = ReadAllStatus();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  ExpectNamesShard(status, 0);
  EXPECT_NE(status.message().find("manifest assigns"), std::string::npos)
      << status.ToString();
}

TEST_F(ShardFailureTest, LazyOpenTouchesOnlySpannedShards) {
  // Corrupting shard 2 must not affect reads confined to shards 0-1.
  ASSERT_EQ(std::remove(ShardPath(2).c_str()), 0);
  auto reader = ShardedStoreReader::Open(store_.path());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ShardedStoreReader sharded = std::move(reader).value();
  Matrix buffer(2 * kShardRows, kAttributes);
  EXPECT_TRUE(sharded.ReadRows(0, 2 * kShardRows, &buffer).ok());
  EXPECT_TRUE(buffer == records_.Block(0, 2 * kShardRows, 0, kAttributes));
  Matrix tail(1, kAttributes);
  const Status status = sharded.ReadRows(kRecords - 1, 1, &tail);
  ExpectNamesShard(status, 2);
}

TEST_F(ShardFailureTest, ManifestChecksumMismatchIsReported) {
  std::string bytes = ReadFileBytes(store_.path());
  bytes[20] ^= 0x01;  // Flip a num_records bit without resealing.
  WriteFileBytes(store_.path(), bytes);
  const Status status = ReadAllStatus();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("checksum mismatch"), std::string::npos)
      << status.ToString();
}

TEST_F(ShardFailureTest, ManifestSpanOverlapIsNamedAfterReseal) {
  std::string bytes = ReadFileBytes(store_.path());
  // Patch shard 1's row_begin (the u64 right after its path bytes) from
  // 300 to 200 and reseal: parse must reject the overlap, naming shard 1.
  const std::string path1 = ShardFileName(stem_, 1);
  const size_t path_pos = bytes.find(path1);
  ASSERT_NE(path_pos, std::string::npos);
  const size_t row_begin_offset = path_pos + path1.size();
  const uint64_t bad_begin = 200;
  std::memcpy(&bytes[row_begin_offset], &bad_begin, sizeof(bad_begin));
  ResealManifest(&bytes);
  WriteFileBytes(store_.path(), bytes);

  const Status status = ReadAllStatus();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  ExpectNamesShard(status, 1);
  EXPECT_NE(status.message().find("overlap"), std::string::npos)
      << status.ToString();
}

TEST_F(ShardFailureTest, HostileShardPathIsRejected) {
  std::string bytes = ReadFileBytes(store_.path());
  // Rewrite shard 0's path to climb out of the directory (same length,
  // so every later offset is untouched), then reseal.
  const std::string path0 = ShardFileName(stem_, 0);
  const size_t path_pos = bytes.find(path0);
  ASSERT_NE(path_pos, std::string::npos);
  bytes[path_pos] = '.';
  bytes[path_pos + 1] = '.';
  bytes[path_pos + 2] = '/';
  ResealManifest(&bytes);
  WriteFileBytes(store_.path(), bytes);

  const Status status = ReadAllStatus();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("relative"), std::string::npos)
      << status.ToString();
}

TEST_F(ShardFailureTest, HostileRecordCountFailsBeforeAllocating) {
  // A resealed manifest claiming ~10^12 records must fail as a Status
  // (the shard's real header refutes the count) BEFORE anything sizes
  // an n x m buffer from it — not crash on bad_alloc/OOM.
  std::string bytes = ReadFileBytes(store_.path());
  const uint64_t huge = 1ull << 40;
  std::memcpy(&bytes[16], &huge, sizeof(huge));  // num_records.
  const std::string path0 = ShardFileName(stem_, 0);
  const size_t path_pos = bytes.find(path0);
  ASSERT_NE(path_pos, std::string::npos);
  // Shard 0 row_count (row_begin + 8); spans must still tile [0, huge):
  // give shard 0 everything and shards 1-2 the old tail so only shard
  // 0's span changes.
  const uint64_t huge_count = huge - 2 * kShardRows;
  std::memcpy(&bytes[path_pos + path0.size() + 8], &huge_count,
              sizeof(huge_count));
  const std::string path1 = ShardFileName(stem_, 1);
  const size_t path1_pos = bytes.find(path1);
  ASSERT_NE(path1_pos, std::string::npos);
  uint64_t begin1 = huge_count;
  std::memcpy(&bytes[path1_pos + path1.size()], &begin1, sizeof(begin1));
  const std::string path2 = ShardFileName(stem_, 2);
  const size_t path2_pos = bytes.find(path2);
  ASSERT_NE(path2_pos, std::string::npos);
  uint64_t begin2 = huge_count + kShardRows;
  std::memcpy(&bytes[path2_pos + path2.size()], &begin2, sizeof(begin2));
  ResealManifest(&bytes);
  WriteFileBytes(store_.path(), bytes);

  auto dataset = ReadShardedStoreDataset(store_.path());
  ASSERT_FALSE(dataset.ok());
  EXPECT_EQ(dataset.status().code(), StatusCode::kInvalidArgument);
  ExpectNamesShard(dataset.status(), 0);
  EXPECT_NE(dataset.status().message().find("manifest assigns"),
            std::string::npos)
      << dataset.status().ToString();
}

TEST_F(ShardFailureTest, DuplicateShardPathIsRejectedOnRead) {
  std::string bytes = ReadFileBytes(store_.path());
  // Alias shard 1's path onto shard 0's (same length, so later offsets
  // are untouched), keep the spans contiguous, reseal: the parse must
  // reject the duplicate rather than serve shard 0's records twice.
  const std::string path0 = ShardFileName(stem_, 0);
  const std::string path1 = ShardFileName(stem_, 1);
  ASSERT_EQ(path0.size(), path1.size());
  const size_t path1_pos = bytes.find(path1);
  ASSERT_NE(path1_pos, std::string::npos);
  bytes.replace(path1_pos, path1.size(), path0);
  ResealManifest(&bytes);
  WriteFileBytes(store_.path(), bytes);

  const Status status = ReadAllStatus();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // The message names entry 1 with the (aliased) path it carries.
  EXPECT_NE(status.message().find("shard 1 ('" + path0 + "')"),
            std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("duplicate shard path"), std::string::npos)
      << status.ToString();
}

TEST(ShardedStoreTest, SealFailureIsStickyAndSuppressesTheManifest) {
  // Delete the open shard's temp file out from under the writer: the
  // seal fails (the rename finds no file), Close() must report it, NOT
  // write a manifest, and keep failing on retry — a failed write never
  // leaves a file claiming the store is complete.
  const std::string manifest_path = "shard_store_test_sealfail.rrcm";
  auto created = RollingShardedStoreWriter::Create(
      manifest_path, Names(3), SmallShards(/*shard_rows=*/50));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  {
    RollingShardedStoreWriter writer = std::move(created).value();
    stats::Rng rng(45);
    const Matrix records = rng.GaussianMatrix(100, 3);
    // 80 rows: shard 0 seals, shard 1 stays open with 30.
    ASSERT_TRUE(writer.Append(records, 80).ok());
    // The open shard streams into its temp file (the final path does
    // not exist until the seal's rename) — delete the temp.
    ASSERT_EQ(std::remove(
                  TempPathFor(
                      ShardFileName(ShardStemForManifest(manifest_path), 1))
                      .c_str()),
              0);
    const Status closed = writer.Close();
    EXPECT_FALSE(closed.ok());
    EXPECT_NE(closed.message().find("shard 1"), std::string::npos)
        << closed.ToString();
    EXPECT_EQ(writer.Close(), closed);  // Sticky on retry.
    // Appending into the closed writer keeps failing too.
    EXPECT_FALSE(writer.Append(records, 1).ok());
  }  // The destructor's best-effort Close must not resurrect a manifest.
  std::ifstream manifest(manifest_path, std::ios::binary);
  EXPECT_FALSE(manifest.is_open())
      << "a failed seal left a manifest claiming the store is complete";
  RemoveShardedStoreFiles(manifest_path);
}

TEST_F(ShardFailureTest, TrailingGarbageIsRejected) {
  std::string bytes = ReadFileBytes(store_.path());
  bytes.push_back('\0');
  WriteFileBytes(store_.path(), bytes);
  const Status status = ReadAllStatus();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(ShardFailureTest, UnsupportedVersionIsNamed) {
  std::string bytes = ReadFileBytes(store_.path());
  const uint32_t version = 99;
  std::memcpy(&bytes[8], &version, sizeof(version));
  ResealManifest(&bytes);
  WriteFileBytes(store_.path(), bytes);
  const Status status = ReadAllStatus();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("version 99"), std::string::npos)
      << status.ToString();
}

// ---------------------------------------------------------------------------
// Format detection, Dataset round trips, cleanup.
// ---------------------------------------------------------------------------

TEST(ShardedStoreTest, DetectedAndReadByTheAutoLoaders) {
  ScratchShardedStore store("autodetect.rrcm");
  stats::Rng rng(41);
  const Matrix records = rng.GaussianMatrix(120, 3);
  auto dataset = Dataset::Create(records, Names(3));
  ASSERT_TRUE(dataset.ok());
  ASSERT_TRUE(
      WriteShardedStore(dataset.value(), store.path(), SmallShards(50)).ok());

  auto format = DetectRecordFileFormat(store.path());
  ASSERT_TRUE(format.ok());
  EXPECT_EQ(format.value(), RecordFileFormat::kShardManifest);

  auto loaded = ReadRecords(store.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value().records() == records);
  EXPECT_EQ(loaded.value().attribute_names(), Names(3));
}

TEST(ShardedStoreTest, SealDigestIsAPureFunctionOfShardContent) {
  ScratchShardedStore store("digest.rrcm");
  stats::Rng rng(42);
  const Matrix records = rng.GaussianMatrix(200, 3);
  WriteSharded(store.path(), records, SmallShards(/*shard_rows=*/100));
  auto manifest = ReadShardManifest(store.path());
  ASSERT_TRUE(manifest.ok());
  for (size_t s = 0; s < 2; ++s) {
    auto shard = ColumnStoreReader::Open(
        ManifestDirectory(store.path()) +
        manifest.value().shards[s].relative_path);
    ASSERT_TRUE(shard.ok());
    EXPECT_EQ(ComputeShardSealDigest(shard.value()),
              manifest.value().shards[s].seal_digest)
        << "shard " << s;
  }
  // Different content => different digest.
  EXPECT_NE(manifest.value().shards[0].seal_digest,
            manifest.value().shards[1].seal_digest);
}

TEST(ShardedStoreTest, RewritingWithFewerShardsRemovesStaleOnes) {
  ScratchShardedStore store("reshard.rrcm");
  stats::Rng rng(44);
  const Matrix records = rng.GaussianMatrix(400, 3);
  WriteSharded(store.path(), records, SmallShards(/*shard_rows=*/100));  // 4.
  WriteSharded(store.path(), records, SmallShards(/*shard_rows=*/200));  // 2.

  const std::string stem = ShardStemForManifest(store.path());
  std::ifstream stale(ShardFileName(stem, 2), std::ios::binary);
  EXPECT_FALSE(stale.is_open())
      << "a stale shard from the 4-shard layout survived the 2-shard rewrite";
  auto manifest = ReadShardManifest(store.path());
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest.value().shards.size(), 2u);
  EXPECT_TRUE(ReadAllSharded(store.path()) == records);
}

TEST(ShardedStoreTest, RemoveShardedStoreFilesCleansEverything) {
  const std::string path = "shard_store_test_cleanup.rrcm";
  stats::Rng rng(43);
  const Matrix records = rng.GaussianMatrix(100, 2);
  WriteSharded(path, records, SmallShards(/*shard_rows=*/40));
  RemoveShardedStoreFiles(path);
  std::ifstream manifest(path);
  EXPECT_FALSE(manifest.is_open());
  std::ifstream shard(ShardFileName(ShardStemForManifest(path), 0));
  EXPECT_FALSE(shard.is_open());
}

TEST(ShardedStoreTest, WriterValidatesOptionsAndNames) {
  const std::string path = "shard_store_test_opt.rrcm";
  EXPECT_EQ(RollingShardedStoreWriter::Create(path, Names(2), SmallShards(0))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RollingShardedStoreWriter::Create(path, Names(2),
                                              SmallShards(10, /*block_rows=*/0))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(RollingShardedStoreWriter::Create(path, {}, SmallShards(10))
                   .ok());
  EXPECT_FALSE(RollingShardedStoreWriter::Create(path, {"a", ""},
                                                 SmallShards(10))
                   .ok());
  EXPECT_FALSE(RollingShardedStoreWriter::Create(path, {"a", "a"},
                                                 SmallShards(10))
                   .ok());
  RemoveShardedStoreFiles(path);
}

}  // namespace
}  // namespace data
}  // namespace randrecon
