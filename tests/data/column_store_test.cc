// Tests for the binary column store (src/data/column_store.h).
//
// The on-disk layout under test is specified byte-by-byte in
// docs/FORMAT.md; the corruption tests below patch files at the offsets
// that document defines (magic at 0, version at 8, num_records at 16,
// names at 40, per-block trailing checksums) and expect a Status naming
// the offending field, block, or byte offset — never a crash.

#include "data/column_store.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/file_io.h"
#include "common/metrics.h"
#include "data/csv.h"
#include "data/shard_store.h"
#include "linalg/matrix_util.h"
#include "stats/rng.h"

namespace randrecon {
namespace data {
namespace {

using linalg::Matrix;

/// Unique-per-test scratch path, removed on destruction.
class ScratchFile {
 public:
  explicit ScratchFile(const std::string& name)
      : path_("column_store_test_" + name) {}
  ~ScratchFile() { std::remove(path_.c_str()); }
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

/// Offset of the trailing header checksum = end of the names section
/// (docs/FORMAT.md §2): fixed fields are 40 bytes, then u32 length +
/// bytes per name.
size_t HeaderHashOffset(const std::vector<std::string>& names) {
  size_t offset = 40;
  for (const std::string& name : names) offset += 4 + name.size();
  return offset;
}

/// Re-seals the header after a test patches a header field, exactly as
/// the writer does (hash over every byte before the checksum field).
void ResealHeader(std::string* bytes, const std::vector<std::string>& names) {
  const size_t hash_offset = HeaderHashOffset(names);
  const uint64_t hash = ColumnStoreHash(bytes->data(), hash_offset);
  std::memcpy(&(*bytes)[hash_offset], &hash, sizeof(hash));
}

std::vector<std::string> Names(size_t m) {
  std::vector<std::string> names;
  for (size_t j = 0; j < m; ++j) names.push_back("a" + std::to_string(j));
  return names;
}

/// Writes `records` through the streaming writer in uneven chunk sizes,
/// exercising block-boundary straddles.
void WriteStore(const std::string& path, const Matrix& records,
                size_t block_rows) {
  ColumnStoreOptions options;
  options.block_rows = block_rows;
  auto writer = ColumnStoreWriter::Create(path, Names(records.cols()), options);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ColumnStoreWriter store_writer = std::move(writer).value();
  size_t row = 0;
  size_t chunk_rows = 1;
  while (row < records.rows()) {
    const size_t take = std::min(chunk_rows, records.rows() - row);
    Matrix chunk = records.Block(row, row + take, 0, records.cols());
    ASSERT_TRUE(store_writer.Append(chunk, take).ok());
    row += take;
    chunk_rows = chunk_rows * 2 + 1;  // 1, 3, 7, ... uneven on purpose.
  }
  EXPECT_EQ(store_writer.rows_written(), records.rows());
  ASSERT_TRUE(store_writer.Close().ok());
}

/// Every record of the store at `path`, read the way every store is: a
/// lone `.rrcs` opens as a one-shard ShardedStoreReader.
Matrix ReadAll(const std::string& path) {
  auto reader = ShardedStoreReader::Open(path);
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  ShardedStoreReader store_reader = std::move(reader).value();
  Matrix records(store_reader.num_records(), store_reader.num_attributes());
  EXPECT_TRUE(
      store_reader.ReadRows(0, store_reader.num_records(), &records).ok());
  return records;
}

/// Every record of `reader`, rebuilt from its zero-copy block columns
/// after the whole file verifies.
Matrix ReadThroughBlocks(const ColumnStoreReader& reader) {
  Matrix records(reader.num_records(), reader.num_attributes());
  const Status verified = reader.VerifyBlocks(ParallelOptions());
  EXPECT_TRUE(verified.ok()) << verified.ToString();
  for (size_t block = 0; block < reader.num_blocks(); ++block) {
    for (size_t j = 0; j < reader.num_attributes(); ++j) {
      const double* column = reader.BlockColumn(block, j);
      for (size_t r = 0; r < reader.rows_in_block(block); ++r) {
        records(block * reader.block_rows() + r, j) = column[r];
      }
    }
  }
  return records;
}

TEST(ColumnStoreTest, WriteReadRoundTripIsBitwise) {
  ScratchFile file("roundtrip.rrcs");
  stats::Rng rng(11);
  const Matrix records = rng.GaussianMatrix(1000, 5);
  WriteStore(file.path(), records, /*block_rows=*/64);

  auto reader = ColumnStoreReader::Open(file.path());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ColumnStoreReader store = std::move(reader).value();
  EXPECT_EQ(store.num_records(), 1000u);
  EXPECT_EQ(store.num_attributes(), 5u);
  EXPECT_EQ(store.block_rows(), 64u);
  EXPECT_EQ(store.num_blocks(), 16u);  // ceil(1000 / 64)
  EXPECT_EQ(store.attribute_names(), Names(5));
  EXPECT_EQ(store.rows_in_block(15), 1000u - 15u * 64u);

  EXPECT_TRUE(ReadAll(file.path()) == records);  // operator== is bitwise.
}

TEST(ColumnStoreTest, ExactBlockMultipleAndSingleRowBlocks) {
  stats::Rng rng(12);
  for (const size_t block_rows : {size_t{1}, size_t{64}}) {
    ScratchFile file("blocks_" + std::to_string(block_rows) + ".rrcs");
    const Matrix records = rng.GaussianMatrix(128, 3);
    WriteStore(file.path(), records, block_rows);
    EXPECT_TRUE(ReadAll(file.path()) == records);
  }
}

TEST(ColumnStoreTest, ColumnMajorAppendWritesTheBytesOfRowMajorAppend) {
  // The same records, once row-major through WriteStore and once from a
  // padded column-major copy (leading dimension > rows) in uneven
  // pieces that straddle block boundaries, a zero-row piece included:
  // the two files are byte-for-byte equal.
  stats::Rng rng(13);
  constexpr size_t kRecords = 50;
  constexpr size_t kLd = 61;
  const Matrix records = rng.GaussianMatrix(kRecords, 3);
  ScratchFile rows_file("rows_layout.rrcs");
  WriteStore(rows_file.path(), records, /*block_rows=*/7);
  std::vector<double> columns(3 * kLd, -1.0);
  for (size_t j = 0; j < 3; ++j) {
    for (size_t r = 0; r < kRecords; ++r) columns[j * kLd + r] = records(r, j);
  }
  ScratchFile columns_file("columns_layout.rrcs");
  ColumnStoreOptions options;
  options.block_rows = 7;
  auto writer = ColumnStoreWriter::Create(columns_file.path(), Names(3),
                                          options);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ColumnStoreWriter store_writer = std::move(writer).value();
  const size_t kPieces[] = {0, 1, 6, 7, 20, 16};
  size_t row = 0;
  for (const size_t take : kPieces) {
    ASSERT_TRUE(
        store_writer.AppendColumns(columns.data() + row, kLd, take).ok());
    row += take;
  }
  ASSERT_EQ(row, kRecords);
  EXPECT_EQ(store_writer.rows_written(), kRecords);
  ASSERT_TRUE(store_writer.Close().ok());
  EXPECT_EQ(ReadFileBytes(columns_file.path()),
            ReadFileBytes(rows_file.path()));
}

TEST(ColumnStoreTest, EmptyStoreRoundTrips) {
  ScratchFile file("empty.rrcs");
  auto writer = ColumnStoreWriter::Create(file.path(), Names(4));
  ASSERT_TRUE(writer.ok());
  ColumnStoreWriter store_writer = std::move(writer).value();
  ASSERT_TRUE(store_writer.Close().ok());

  auto reader = ColumnStoreReader::Open(file.path());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader.value().num_records(), 0u);
  EXPECT_EQ(reader.value().num_blocks(), 0u);
}

TEST(ColumnStoreTest, ReadRowsServesRandomSlices) {
  ScratchFile file("slices.rrcs");
  stats::Rng rng(13);
  const Matrix records = rng.GaussianMatrix(300, 4);
  WriteStore(file.path(), records, /*block_rows=*/32);
  auto reader = ShardedStoreReader::Open(file.path());
  ASSERT_TRUE(reader.ok());
  ShardedStoreReader store = std::move(reader).value();

  // A slice straddling three blocks, starting mid-block.
  Matrix slice(70, 4);
  ASSERT_TRUE(store.ReadRows(45, 70, &slice).ok());
  EXPECT_TRUE(slice == records.Block(45, 115, 0, 4));

  // Reading past the end is a clean error naming the range.
  const Status overrun = store.ReadRows(290, 20, &slice);
  EXPECT_FALSE(overrun.ok());
  EXPECT_NE(overrun.message().find("[290, 310)"), std::string::npos)
      << overrun.ToString();
}

TEST(ColumnStoreTest, BlockColumnIsTheMappedColumn) {
  ScratchFile file("column.rrcs");
  stats::Rng rng(14);
  const Matrix records = rng.GaussianMatrix(100, 3);
  WriteStore(file.path(), records, /*block_rows=*/40);
  auto reader = ColumnStoreReader::Open(file.path());
  ASSERT_TRUE(reader.ok());
  ColumnStoreReader store = std::move(reader).value();

  const double* column = store.BlockColumn(/*block=*/1, /*column=*/2);
  for (size_t r = 0; r < store.rows_in_block(1); ++r) {
    EXPECT_EQ(column[r], records(40 + r, 2));
  }
}

TEST(ColumnStoreTest, DatasetHelpersRoundTrip) {
  ScratchFile file("dataset.rrcs");
  stats::Rng rng(15);
  auto dataset = Dataset::Create(rng.GaussianMatrix(77, 3),
                                 {"age", "income", "score"});
  ASSERT_TRUE(dataset.ok());
  ASSERT_TRUE(WriteColumnStore(dataset.value(), file.path()).ok());
  auto read_back = ReadShardedStoreDataset(file.path());
  ASSERT_TRUE(read_back.ok()) << read_back.status().ToString();
  EXPECT_TRUE(read_back.value().records() == dataset.value().records());
  EXPECT_EQ(read_back.value().attribute_names(),
            dataset.value().attribute_names());
}

TEST(ColumnStoreTest, DetectsFormatBySniffingNotExtension) {
  ScratchFile store_file("detect.not_an_extension");
  ScratchFile csv_file("detect.csv");
  stats::Rng rng(16);
  const Dataset dataset{Dataset(rng.GaussianMatrix(10, 2))};
  ASSERT_TRUE(WriteColumnStore(dataset, store_file.path()).ok());
  ASSERT_TRUE(WriteCsv(dataset, csv_file.path()).ok());

  auto store_format = DetectRecordFileFormat(store_file.path());
  auto csv_format = DetectRecordFileFormat(csv_file.path());
  ASSERT_TRUE(store_format.ok());
  ASSERT_TRUE(csv_format.ok());
  EXPECT_EQ(store_format.value(), RecordFileFormat::kColumnStore);
  EXPECT_EQ(csv_format.value(), RecordFileFormat::kCsv);

  // ReadRecords loads either transparently; the store copy is bitwise,
  // the CSV copy went through precision-10 text.
  auto from_store = ReadRecords(store_file.path());
  ASSERT_TRUE(from_store.ok());
  EXPECT_TRUE(from_store.value().records() == dataset.records());
  EXPECT_TRUE(ReadRecords(csv_file.path()).ok());
}

// CSV -> store -> CSV property test (ISSUE 4): once values have passed
// through CSV text one time, the store must carry them bitwise — both
// back into memory and through a second, lossless CSV hop.
TEST(ColumnStoreTest, CsvStoreCsvRoundTripIsBitwise) {
  ScratchFile store_file("csv_roundtrip.rrcs");
  stats::Rng rng(17);
  Matrix raw = rng.GaussianMatrix(200, 4);
  // Salt in awkward values: exact zeros, huge/tiny magnitudes, negatives.
  raw(0, 0) = 0.0;
  raw(1, 1) = 1e300;
  raw(2, 2) = -4.9406564584124654e-324;  // Smallest denormal.
  raw(3, 3) = -1234567.89012345678;

  // Hop 1: through CSV text at default precision (lossy vs `raw`).
  const std::string csv_text = ToCsvString(Dataset(raw));
  auto parsed = FromCsvString(csv_text);
  ASSERT_TRUE(parsed.ok());

  // Hop 2: the parsed values through the store — must be bitwise.
  ASSERT_TRUE(WriteColumnStore(parsed.value(), store_file.path()).ok());
  auto from_store = ReadShardedStoreDataset(store_file.path());
  ASSERT_TRUE(from_store.ok());
  EXPECT_TRUE(from_store.value().records() == parsed.value().records());

  // Hop 3: store -> CSV at precision 17 -> parse; still bitwise.
  auto reparsed =
      FromCsvString(ToCsvString(from_store.value(), /*precision=*/17));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_TRUE(reparsed.value().records() == parsed.value().records());
}

// ---------------------------------------------------------------------------
// Corruption paths: every failure is a Status naming the damage.
// ---------------------------------------------------------------------------

/// One sealed store for the corruption tests: 130 records of 3 columns
/// in 64-row blocks -> 3 blocks, last one partial.
class ColumnStoreCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    stats::Rng rng(18);
    records_ = rng.GaussianMatrix(130, 3);
    WriteStore(file_.path(), records_, /*block_rows=*/64);
    bytes_ = ReadFileBytes(file_.path());
    ASSERT_GE(bytes_.size(), 64u);
  }

  Status OpenWith(const std::string& bytes) {
    WriteFileBytes(file_.path(), bytes);
    return ColumnStoreReader::Open(file_.path()).status();
  }

  ScratchFile file_{"corrupt.rrcs"};
  Matrix records_;
  std::string bytes_;
};

TEST_F(ColumnStoreCorruptionTest, BadMagicIsNamed) {
  std::string bytes = bytes_;
  bytes[0] = 'X';
  const Status status = OpenWith(bytes);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("magic"), std::string::npos)
      << status.ToString();
}

TEST_F(ColumnStoreCorruptionTest, CsvFileIsRejectedAsNotAStore) {
  const Status status = OpenWith("a,b\n1,2\n3,4\n" + std::string(64, ' '));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("magic"), std::string::npos);
}

TEST_F(ColumnStoreCorruptionTest, UnsupportedVersionIsNamed) {
  std::string bytes = bytes_;
  bytes[8] = 7;  // docs/FORMAT.md §2: u32 version at offset 8.
  const Status status = OpenWith(bytes);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("version 7"), std::string::npos)
      << status.ToString();
}

TEST_F(ColumnStoreCorruptionTest, TruncatedFileReportsByteCounts) {
  const Status status = OpenWith(bytes_.substr(0, bytes_.size() - 10));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("truncated"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find(std::to_string(bytes_.size())),
            std::string::npos)
      << "expected size missing: " << status.ToString();
}

TEST_F(ColumnStoreCorruptionTest, TinyFileIsRejected) {
  const Status status = OpenWith("RRCOLSTR");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("smaller than the minimum"),
            std::string::npos)
      << status.ToString();
}

TEST_F(ColumnStoreCorruptionTest, HeaderChecksumMismatchIsNamed) {
  std::string bytes = bytes_;
  // Flip a bit inside the first column name's BYTES (offset 44: names
  // start at 40 with a u32 length first) — the structure still parses,
  // so only the header checksum can object.
  bytes[44] ^= 0x20;
  const Status status = OpenWith(bytes);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("header checksum mismatch"),
            std::string::npos)
      << status.ToString();
}

TEST_F(ColumnStoreCorruptionTest, RowCountDisagreementIsDetected) {
  std::string bytes = bytes_;
  // Patch num_records (offset 16) from 130 to 30 (1 block instead of 3)
  // and re-seal the header so ONLY the size cross-check can object.
  const uint64_t lying_count = 30;
  std::memcpy(&bytes[16], &lying_count, sizeof(lying_count));
  ResealHeader(&bytes, Names(3));
  const Status status = OpenWith(bytes);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("record-count disagreement"),
            std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("30 records"), std::string::npos)
      << status.ToString();
}

TEST_F(ColumnStoreCorruptionTest, RecordCountNearUint64MaxIsRejected) {
  // The ceil-div wrap attack: with the naive (n + block_rows - 1) /
  // block_rows, num_records = 2^64-1 wraps num_blocks to 0, so a
  // header-only file resealed with the public hash passes the
  // expected-size cross-check and ReadRows runs past the mapping. Both
  // the fixture's 3-block file and a header-only file must be rejected.
  const uint64_t hostile_count = UINT64_MAX;
  std::string bytes = bytes_;
  std::memcpy(&bytes[16], &hostile_count, sizeof(hostile_count));
  ResealHeader(&bytes, Names(3));
  Status status = OpenWith(bytes);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();

  // Header-only variant: exactly the file the wrap would wave through.
  std::string header_only = bytes_;
  const size_t block_stride = 3 * 64 * 8 + 8;
  header_only.resize(header_only.size() - 3 * block_stride);
  std::memcpy(&header_only[16], &hostile_count, sizeof(hostile_count));
  ResealHeader(&header_only, Names(3));
  status = OpenWith(header_only);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
}

TEST_F(ColumnStoreCorruptionTest, AbsurdColumnCountIsRejectedNotAllocated) {
  std::string bytes = bytes_;
  // A hostile num_attributes (offset 24) must fail as a Status before
  // any allocation sized by it — not throw bad_alloc from reserve().
  const uint64_t absurd = uint64_t{1} << 60;
  std::memcpy(&bytes[24], &absurd, sizeof(absurd));
  const Status status = OpenWith(bytes);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("could possibly name"), std::string::npos)
      << status.ToString();
}

TEST_F(ColumnStoreCorruptionTest, BlockChecksumMismatchNamesBlockAndOffset) {
  std::string bytes = bytes_;
  // Damage one payload byte in block 1. Header: 40 fixed + 3*(4+2) names
  // + 8 checksum = 66, padded to 128; block stride = 3*64*8 + 8 = 1544.
  const size_t block_stride = 3 * 64 * 8 + 8;
  const size_t header_bytes = bytes.size() - 3 * block_stride;
  const size_t block1_offset = header_bytes + block_stride;
  bytes[block1_offset + 5] ^= 0xFF;
  WriteFileBytes(file_.path(), bytes);

  auto reader = ShardedStoreReader::Open(file_.path());
  ASSERT_TRUE(reader.ok()) << "damage is inside a block, Open must succeed: "
                           << reader.status().ToString();
  ShardedStoreReader store = std::move(reader).value();

  // The first read verifies every block of the file, so even a read of
  // the intact block 0 names block 1 and its offset.
  Matrix buffer(64, 3);
  const Status status = store.ReadRows(0, 64, &buffer);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("block 1 checksum mismatch"),
            std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find(std::to_string(block1_offset)),
            std::string::npos)
      << status.ToString();
}

TEST_F(ColumnStoreCorruptionTest, WholeFileVerifyNamesTheBlock) {
  std::string bytes = bytes_;
  const size_t block_stride = 3 * 64 * 8 + 8;
  const size_t header_bytes = bytes.size() - 3 * block_stride;
  bytes[header_bytes + 2 * block_stride + 9] ^= 0xFF;  // Damage block 2.
  WriteFileBytes(file_.path(), bytes);

  // Open still succeeds (the damage sits in an untouched block)...
  ASSERT_TRUE(ColumnStoreReader::Open(file_.path()).ok());

  // ...but proving the whole file (what recovery does) and reading every
  // row both fail, naming the block — at any thread count.
  for (const int threads : {1, 4}) {
    ColumnStoreReadOptions options;
    options.parallel.num_threads = threads;
    auto opened = ColumnStoreReader::Open(file_.path());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    ColumnStoreReader store = std::move(opened).value();
    Status status = store.VerifyBlocks(options.parallel);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("block 2 checksum mismatch"),
              std::string::npos)
        << status.ToString();

    auto reader = ShardedStoreReader::Open(file_.path(), options);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    ShardedStoreReader sharded = std::move(reader).value();
    Matrix buffer(130, 3);
    status = sharded.ReadRows(0, 130, &buffer);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("block 2 checksum mismatch"),
              std::string::npos)
        << status.ToString();
  }
}

TEST(ColumnStoreTest, ParallelReadRowsMatchesSerialBitwise) {
  // A multi-block ReadRows verifies and gathers block-parallel; the
  // filled buffer must be bitwise identical for every thread count, for
  // aligned and misaligned ranges.
  ScratchFile file("parallel_read.rrcs");
  stats::Rng rng(19);
  const Matrix records = rng.GaussianMatrix(1000, 4);
  WriteStore(file.path(), records, /*block_rows=*/64);

  for (const int threads : {1, 2, 8}) {
    ColumnStoreReadOptions options;
    options.parallel.num_threads = threads;
    auto reader = ShardedStoreReader::Open(file.path(), options);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    ShardedStoreReader store = std::move(reader).value();
    for (const auto& range : {std::pair<size_t, size_t>{0, 1000},
                             {3, 997},     // misaligned on both ends
                             {64, 128},    // exactly one block
                             {100, 101}}) {
      const size_t rows = range.second - range.first;
      Matrix buffer(rows, 4);
      ASSERT_TRUE(store.ReadRows(range.first, rows, &buffer).ok());
      EXPECT_TRUE(buffer == records.Block(range.first, range.second, 0, 4))
          << "threads=" << threads << " range [" << range.first << ", "
          << range.second << ")";
    }
  }
}

TEST(ColumnStoreWriterTest, RejectsBadConfigurations) {
  ScratchFile file("bad_config.rrcs");
  EXPECT_EQ(ColumnStoreWriter::Create(file.path(), {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      ColumnStoreWriter::Create(file.path(), {"a", "a"}).status().code(),
      StatusCode::kInvalidArgument);
  ColumnStoreOptions zero_block;
  zero_block.block_rows = 0;
  EXPECT_EQ(ColumnStoreWriter::Create(file.path(), {"a"}, zero_block)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ColumnStoreWriterTest, RejectsWidthMismatchAndAppendAfterClose) {
  ScratchFile file("bad_append.rrcs");
  auto writer = ColumnStoreWriter::Create(file.path(), Names(3));
  ASSERT_TRUE(writer.ok());
  ColumnStoreWriter store_writer = std::move(writer).value();
  Matrix wrong_width(4, 2);
  EXPECT_EQ(store_writer.Append(wrong_width, 4).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(store_writer.Close().ok());
  Matrix chunk(4, 3);
  EXPECT_EQ(store_writer.Append(chunk, 4).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ColumnStoreWriterTest, UnsealedStoreIsRejectedByReaders) {
  // A writer that crashes before Close() leaves the header with the
  // bitwise-NOT of the real hash (docs/FORMAT.md §2.2) — only Close()
  // seals it. Reconstruct that on-disk state from a sealed empty store
  // and confirm readers refuse to treat it as a valid (empty) store.
  ScratchFile file("unsealed.rrcs");
  auto writer = ColumnStoreWriter::Create(file.path(), Names(2));
  ASSERT_TRUE(writer.ok());
  ColumnStoreWriter store_writer = std::move(writer).value();
  ASSERT_TRUE(store_writer.Close().ok());

  std::string bytes = ReadFileBytes(file.path());
  const size_t hash_offset = HeaderHashOffset(Names(2));
  uint64_t sealed_hash;
  std::memcpy(&sealed_hash, &bytes[hash_offset], sizeof(sealed_hash));
  const uint64_t unsealed_hash = ~sealed_hash;
  std::memcpy(&bytes[hash_offset], &unsealed_hash, sizeof(unsealed_hash));
  WriteFileBytes(file.path(), bytes);

  const Status status = ColumnStoreReader::Open(file.path()).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("header checksum mismatch"),
            std::string::npos)
      << status.ToString();
}

TEST(ColumnStoreWriterTest, MoveAssignmentSealsTheAbandonedStore) {
  // Assigning onto an active writer must Close() the store it was
  // building (as the destructor would), not drop the half-written file
  // unsealed; the adopted writer keeps serving its own store.
  ScratchFile first("move_assign_a.rrcs");
  ScratchFile second("move_assign_b.rrcs");
  stats::Rng rng(20);
  const Matrix chunk = rng.GaussianMatrix(3, 2);

  auto a = ColumnStoreWriter::Create(first.path(), Names(2));
  ASSERT_TRUE(a.ok());
  ColumnStoreWriter writer = std::move(a).value();
  ASSERT_TRUE(writer.Append(chunk, 3).ok());

  auto b = ColumnStoreWriter::Create(second.path(), Names(2));
  ASSERT_TRUE(b.ok());
  writer = std::move(b).value();

  auto first_back = ReadShardedStoreDataset(first.path());
  ASSERT_TRUE(first_back.ok()) << first_back.status().ToString();
  EXPECT_TRUE(first_back.value().records() == chunk);

  ASSERT_TRUE(writer.Append(chunk, 3).ok());
  ASSERT_TRUE(writer.Close().ok());
  auto second_back = ReadShardedStoreDataset(second.path());
  ASSERT_TRUE(second_back.ok()) << second_back.status().ToString();
  EXPECT_TRUE(second_back.value().records() == chunk);
}

TEST(ColumnStoreReaderTest, MoveAssignmentReleasesTheOldMapping) {
  ScratchFile first_file("move_a.rrcs");
  ScratchFile second_file("move_b.rrcs");
  stats::Rng rng(19);
  const Matrix first = rng.GaussianMatrix(50, 2);
  const Matrix second = rng.GaussianMatrix(60, 2);
  WriteStore(first_file.path(), first, /*block_rows=*/16);
  WriteStore(second_file.path(), second, /*block_rows=*/16);

  auto opened = ColumnStoreReader::Open(first_file.path());
  ASSERT_TRUE(opened.ok());
  ColumnStoreReader reader = std::move(opened).value();
  EXPECT_TRUE(ReadThroughBlocks(reader) == first);

  // Re-point the same reader at the second store (the sharded-scan
  // pattern); the first mapping must be released, not leaked or doubly
  // freed, and reads must serve the new file.
  auto reopened = ColumnStoreReader::Open(second_file.path());
  ASSERT_TRUE(reopened.ok());
  reader = std::move(reopened).value();
  EXPECT_EQ(reader.num_records(), 60u);
  EXPECT_TRUE(ReadThroughBlocks(reader) == second);
}

// The writer goes through a POSIX fd, so a failed write names its errno.
// The temp path is a symlink to /dev/full, whose every write fails with
// ENOSPC: Create must fail at the header, name the cause, and leave
// neither the final name nor the temp behind.
TEST(ColumnStoreTest, WriteErrorsNameTheirCause) {
  struct stat device;
  if (::stat("/dev/full", &device) != 0) GTEST_SKIP() << "no /dev/full";
  ScratchFile file("full_disk.rrcs");
  const std::string temp = TempPathFor(file.path());
  std::remove(temp.c_str());
  ASSERT_EQ(::symlink("/dev/full", temp.c_str()), 0);
  const auto writer = ColumnStoreWriter::Create(file.path(), Names(2));
  struct stat left;
  const bool temp_left = ::lstat(temp.c_str(), &left) == 0;
  std::remove(temp.c_str());
  ASSERT_FALSE(writer.ok());
  EXPECT_EQ(writer.status().code(), StatusCode::kIoError);
  EXPECT_NE(writer.status().message().find("No space left on device"),
            std::string::npos)
      << writer.status().ToString();
  EXPECT_FALSE(temp_left);
  EXPECT_NE(::stat(file.path().c_str(), &left), 0);
}

uint64_t CounterValue(const char* name) {
  for (const metrics::CounterSnapshot& c : metrics::Snapshot().counters) {
    if (c.name == name) return c.value;
  }
  ADD_FAILURE() << "no counter named " << name;
  return 0;
}

uint64_t HistogramCount(const char* name) {
  for (const metrics::HistogramSnapshot& h : metrics::Snapshot().histograms) {
    if (h.name == name) return h.count;
  }
  ADD_FAILURE() << "no histogram named " << name;
  return 0;
}

// store.seal_nanos times each seal's stall (last flush through the
// published rename): one sample per seal, like the store.seals counter,
// and none for a seal that fails.
TEST(ColumnStoreTest, EverySealRecordsItsStall) {
  ScratchFile first("seal_a.rrcs");
  ScratchFile second("seal_b.rrcs");
  stats::Rng rng(21);
  const uint64_t seals = CounterValue("store.seals");
  const uint64_t stalls = HistogramCount("store.seal_nanos");
  WriteStore(first.path(), rng.GaussianMatrix(40, 3), /*block_rows=*/16);
  EXPECT_EQ(CounterValue("store.seals"), seals + 1);
  EXPECT_EQ(HistogramCount("store.seal_nanos"), stalls + 1);
  WriteStore(second.path(), rng.GaussianMatrix(32, 3), /*block_rows=*/16);
  EXPECT_EQ(CounterValue("store.seals"), seals + 2);
  EXPECT_EQ(HistogramCount("store.seal_nanos"), stalls + 2);

  // A seal whose rename fails publishes nothing and records no stall.
  ASSERT_TRUE(ArmFailpoint("store.rename", FailpointAction::kError).ok());
  auto created = ColumnStoreWriter::Create(first.path() + ".x", Names(3));
  ASSERT_TRUE(created.ok());
  ColumnStoreWriter writer = std::move(created).value();
  EXPECT_EQ(writer.Close().code(), StatusCode::kIoError);
  DisarmAllFailpoints();
  EXPECT_EQ(CounterValue("store.seals"), seals + 2);
  EXPECT_EQ(HistogramCount("store.seal_nanos"), stalls + 2);
}

TEST(ColumnStoreHashTest, MatchesPinnedVectors) {
  // Golden values pin the RRH64 definition of docs/FORMAT.md §4: any
  // change to the hash is a format break and must bump the version.
  EXPECT_EQ(ColumnStoreHash("", 0), 0x627d7c31b2dc9d71ull);
  const char msg[] = "randrecon column store";
  EXPECT_EQ(ColumnStoreHash(msg, sizeof(msg) - 1), 0xe163d36f8793360bull);
  const uint64_t word = 0x0123456789abcdefull;
  EXPECT_EQ(ColumnStoreHash(&word, sizeof(word)), 0x279fd5b6003dec95ull);
}

}  // namespace
}  // namespace data
}  // namespace randrecon
