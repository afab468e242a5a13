#include "data/column_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/file_io.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "data/byte_codec.h"
#include "data/csv.h"
#include "data/shard_store.h"
#include "linalg/kernels.h"

namespace randrecon {
namespace data {

const char kColumnStoreMagic[8] = {'R', 'R', 'C', 'O', 'L', 'S', 'T', 'R'};

namespace {

// Fixed header offsets (docs/FORMAT.md §2).
constexpr size_t kVersionOffset = 8;
constexpr size_t kHeaderBytesOffset = 12;
constexpr size_t kNumRecordsOffset = 16;
constexpr size_t kNumAttributesOffset = 24;
constexpr size_t kBlockRowsOffset = 32;
constexpr size_t kNamesOffset = 40;
constexpr size_t kHeaderAlignment = 64;

// RRH64 constants (docs/FORMAT.md §4).
constexpr uint64_t kHashP1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kHashP2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kHashP3 = 0x165667B19E3779F9ull;

inline uint64_t Rotl64(uint64_t v, int s) { return (v << s) | (v >> (64 - s)); }

void PatchU32(std::string* buffer, size_t offset, uint32_t value) {
  std::memcpy(&(*buffer)[offset], &value, sizeof(value));
}

void PatchU64(std::string* buffer, size_t offset, uint64_t value) {
  std::memcpy(&(*buffer)[offset], &value, sizeof(value));
}

std::string StorePrefix(const std::string& path) {
  return "column store '" + path + "': ";
}

// The IO seams of the single-file store (common/failpoint.h). Shards of
// a sharded store are ordinary column stores, so these fire for shard
// files too; the sharded layer adds its own shard.* / manifest.* points.
Failpoint fp_block_write("store.block_write");  ///< Before a block write.
Failpoint fp_seal("store.seal");        ///< Before the header patch write.
Failpoint fp_fsync("store.fsync");      ///< Before fsync of the temp file.
Failpoint fp_rename("store.rename");    ///< Before the temp -> final rename.
Failpoint fp_read_block("store.read_block");  ///< Before a block verify.

// Hot-path telemetry (common/metrics.h) — same registration idiom as
// the failpoints above: one relaxed atomic add per event, nothing the
// data path branches on.
metrics::Counter m_blocks_written("store.blocks_written");
metrics::Counter m_bytes_written("store.bytes_written");
metrics::Counter m_seals("store.seals");
/// A seal's stall: its last block flush through the published rename.
metrics::Histogram h_seal_nanos("store.seal_nanos");
metrics::Counter m_opens("store.opens");
metrics::Counter m_blocks_verified("store.blocks_verified");

}  // namespace

uint64_t ColumnStoreHash(const void* data, size_t size) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint64_t acc[4] = {kHashP1 * 1, kHashP1 * 2, kHashP1 * 3, kHashP1 * 4};
  auto mix_stripe = [&acc](const uint8_t* stripe) {
    for (int lane = 0; lane < 4; ++lane) {
      uint64_t word;
      std::memcpy(&word, stripe + 8 * lane, sizeof(word));
      acc[lane] = Rotl64(acc[lane] ^ (word * kHashP2), 27) * kHashP1;
    }
  };
  size_t offset = 0;
  for (; offset + 32 <= size; offset += 32) mix_stripe(bytes + offset);
  if (offset < size) {
    uint8_t tail[32] = {0};  // Short input is zero-padded to one stripe.
    std::memcpy(tail, bytes + offset, size - offset);
    mix_stripe(tail);
  }
  uint64_t h = Rotl64(acc[0], 1) + Rotl64(acc[1], 7) + Rotl64(acc[2], 12) +
               Rotl64(acc[3], 18);
  h ^= static_cast<uint64_t>(size);
  h ^= h >> 29;
  h *= kHashP3;
  h ^= h >> 32;
  return h;
}

// ---------------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------------

Result<ColumnStoreWriter> ColumnStoreWriter::Create(
    const std::string& path, std::vector<std::string> column_names,
    ColumnStoreOptions options) {
  if (column_names.empty()) {
    return Status::InvalidArgument(StorePrefix(path) +
                                   "at least one column is required");
  }
  if (options.block_rows == 0) {
    return Status::InvalidArgument(StorePrefix(path) +
                                   "block_rows must be >= 1");
  }
  for (size_t i = 0; i < column_names.size(); ++i) {
    for (size_t j = i + 1; j < column_names.size(); ++j) {
      if (column_names[i] == column_names[j]) {
        return Status::InvalidArgument(StorePrefix(path) +
                                       "duplicate column name '" +
                                       column_names[i] + "'");
      }
    }
  }

  std::string prefix;
  prefix.append(kColumnStoreMagic, sizeof(kColumnStoreMagic));
  AppendU32(&prefix, kColumnStoreVersion);
  AppendU32(&prefix, 0);  // header_bytes, patched below.
  AppendU64(&prefix, 0);  // num_records, patched by Close().
  AppendU64(&prefix, column_names.size());
  AppendU64(&prefix, options.block_rows);
  for (const std::string& name : column_names) {
    if (name.size() > UINT32_MAX) {
      return Status::InvalidArgument(StorePrefix(path) + "column name too long");
    }
    AppendU32(&prefix, static_cast<uint32_t>(name.size()));
    prefix.append(name);
  }
  const size_t unpadded = prefix.size() + sizeof(uint64_t);
  const size_t header_bytes =
      (unpadded + kHeaderAlignment - 1) / kHeaderAlignment * kHeaderAlignment;
  if (header_bytes > UINT32_MAX) {
    return Status::InvalidArgument(StorePrefix(path) +
                                   "column names exceed the 4 GiB header limit");
  }
  PatchU32(&prefix, kHeaderBytesOffset, static_cast<uint32_t>(header_bytes));

  // All bytes stream into the temp file; Close() renames it over `path`
  // (docs/FORMAT.md §8), so the final name never holds a partial store.
  const std::string temp_path = TempPathFor(path);
  const int fd =
      ::open(temp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) {
    return Status::IoError(StorePrefix(path) + "cannot open temp file '" +
                           temp_path + "' for writing: " +
                           std::strerror(errno));
  }
  // Deliberately write a MISMATCHED header hash (bitwise NOT of the real
  // one): a file from a writer that crashed before Close() must fail the
  // reader's header-checksum validation instead of passing as a sealed
  // empty store. Close() patches in the real hash (docs/FORMAT.md §2.2).
  std::string header = prefix;
  AppendU64(&header, ~ColumnStoreHash(prefix.data(), prefix.size()));
  header.resize(header_bytes, '\0');
  const int error = WriteFully(fd, header.data(), header.size(), 0);
  if (error != 0) {
    ::close(fd);
    std::remove(temp_path.c_str());
    return Status::IoError(StorePrefix(path) +
                           "header write failed: " + std::strerror(error));
  }
  return ColumnStoreWriter(fd, path, std::move(column_names),
                           options.block_rows, header_bytes, std::move(prefix));
}

ColumnStoreWriter::ColumnStoreWriter(int fd, std::string path,
                                     std::vector<std::string> names,
                                     size_t block_rows, size_t header_bytes,
                                     std::string header_prefix)
    : fd_(fd),
      path_(std::move(path)),
      temp_path_(TempPathFor(path_)),
      names_(std::move(names)),
      block_rows_(block_rows),
      header_bytes_(header_bytes),
      header_prefix_(std::move(header_prefix)),
      file_bytes_(header_bytes),
      block_(names_.size() * block_rows + 1, 0.0) {}

ColumnStoreWriter::ColumnStoreWriter(ColumnStoreWriter&& other) noexcept
    : fd_(other.fd_),
      path_(std::move(other.path_)),
      temp_path_(std::move(other.temp_path_)),
      names_(std::move(other.names_)),
      block_rows_(other.block_rows_),
      header_bytes_(other.header_bytes_),
      header_prefix_(std::move(other.header_prefix_)),
      file_bytes_(other.file_bytes_),
      writeback_bytes_(other.writeback_bytes_),
      block_(std::move(other.block_)),
      rows_in_block_(other.rows_in_block_),
      rows_written_(other.rows_written_),
      deferred_error_(std::move(other.deferred_error_)),
      closed_(other.closed_) {
  other.fd_ = -1;
  other.closed_ = true;  // The hollowed-out source must not try to seal.
}

ColumnStoreWriter& ColumnStoreWriter::operator=(
    ColumnStoreWriter&& other) noexcept {
  if (this == &other) return *this;
  // Seal the store this writer was building before abandoning it: a
  // member-wise move would drop the old fd without flushing the partial
  // block or patching the header, silently losing the file.
  if (!closed_) Close();  // Best-effort; errors surface via explicit Close().
  fd_ = other.fd_;
  path_ = std::move(other.path_);
  temp_path_ = std::move(other.temp_path_);
  names_ = std::move(other.names_);
  block_rows_ = other.block_rows_;
  header_bytes_ = other.header_bytes_;
  header_prefix_ = std::move(other.header_prefix_);
  file_bytes_ = other.file_bytes_;
  writeback_bytes_ = other.writeback_bytes_;
  block_ = std::move(other.block_);
  rows_in_block_ = other.rows_in_block_;
  rows_written_ = other.rows_written_;
  deferred_error_ = std::move(other.deferred_error_);
  closed_ = other.closed_;
  other.fd_ = -1;
  other.closed_ = true;
  return *this;
}

ColumnStoreWriter::~ColumnStoreWriter() {
  if (!closed_) Close();  // Best-effort; errors surface via explicit Close().
}

Status ColumnStoreWriter::Append(const linalg::Matrix& chunk, size_t num_rows) {
  if (chunk.cols() != names_.size()) {
    return Status::InvalidArgument(
        StorePrefix(path_) + "chunk has " + std::to_string(chunk.cols()) +
        " columns, store has " + std::to_string(names_.size()));
  }
  RR_CHECK(num_rows <= chunk.rows())
      << "ColumnStoreWriter::Append: num_rows exceeds chunk";
  return Append(chunk.data(), num_rows);
}

Status ColumnStoreWriter::Append(const double* rows, size_t num_rows) {
  if (closed_) {
    return Status::FailedPrecondition(StorePrefix(path_) +
                                      "Append after Close");
  }
  if (!deferred_error_.ok()) return deferred_error_;
  const size_t m = names_.size();
  size_t consumed = 0;
  while (consumed < num_rows) {
    const size_t take =
        std::min(block_rows_ - rows_in_block_, num_rows - consumed);
    // Row-major rows scatter into block-local columns (FORMAT.md §3).
    linalg::kernels::RowsToColumns(rows + consumed * m, m, take, m,
                                   block_.data() + rows_in_block_,
                                   block_rows_);
    rows_in_block_ += take;
    consumed += take;
    if (rows_in_block_ == block_rows_) RR_RETURN_NOT_OK(FlushBlock());
  }
  rows_written_ += num_rows;
  return Status::OK();
}

Status ColumnStoreWriter::FlushBlock() {
  if (rows_in_block_ == 0) return Status::OK();
  if (rows_in_block_ < block_rows_) {
    // Final partial block: each column's tail rows still hold the
    // previous block's data and must go out as zeros (FORMAT.md §3).
    // Full blocks are overwritten whole, so only this flush pays.
    for (size_t j = 0; j < names_.size(); ++j) {
      double* column = block_.data() + j * block_rows_;
      std::fill(column + rows_in_block_, column + block_rows_, 0.0);
    }
  }
  const size_t payload_values = names_.size() * block_rows_;
  const uint64_t block_hash =
      ColumnStoreHash(block_.data(), payload_values * sizeof(double));
  std::memcpy(block_.data() + payload_values, &block_hash, sizeof(block_hash));
  const size_t block_bytes = block_.size() * sizeof(double);
  Status status = [&]() -> Status {
    RR_FAILPOINT(fp_block_write);
    const int error = WriteFully(fd_, block_.data(), block_bytes, file_bytes_);
    if (error != 0) {
      return Status::IoError(StorePrefix(path_) + "block write failed after " +
                             std::to_string(rows_written_) +
                             " records: " + std::strerror(error));
    }
    return Status::OK();
  }();
  if (!status.ok()) {
    deferred_error_ = status;  // A lost block must never seal.
    return status;
  }
  file_bytes_ += block_bytes;
  // The disk writes back every page this block completed while the next
  // block fills, so the seal's fsync finds the file mostly on disk. The
  // page the next block still writes into waits for it, so no page is
  // written back while still being filled, and a store smaller than a
  // page never asks.
  static const uint64_t page_bytes =
      static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  const uint64_t complete = file_bytes_ / page_bytes * page_bytes;
  if (complete > writeback_bytes_) {
    StartWriteback(fd_, writeback_bytes_, complete - writeback_bytes_);
    writeback_bytes_ = complete;
  }
  m_blocks_written.Add(1);
  m_bytes_written.Add(block_bytes);
  rows_in_block_ = 0;
  return Status::OK();
}

Status ColumnStoreWriter::Close() {
  if (closed_) return Status::OK();
  closed_ = true;
  const Status sealed = Seal();
  if (!sealed.ok()) {
    // The store never reached its final name; don't leave the temp file
    // masquerading as work in progress (best-effort — a crash-grade
    // failure leaves it for RecoverShardedStore's orphan sweep).
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
    std::remove(temp_path_.c_str());
  }
  return sealed;
}

Status ColumnStoreWriter::Seal() {
  if (!deferred_error_.ok()) return deferred_error_;
  if (fd_ < 0) {
    return Status::IoError(StorePrefix(path_) + "file is not open");
  }
  const uint64_t seal_start_nanos = trace::NowNanos();
  RR_RETURN_NOT_OK(FlushBlock());
  RR_FAILPOINT(fp_seal);
  // Patch the record count and re-seal the header (docs/FORMAT.md §2).
  PatchU64(&header_prefix_, kNumRecordsOffset, rows_written_);
  std::string header = header_prefix_;
  AppendU64(&header,
            ColumnStoreHash(header_prefix_.data(), header_prefix_.size()));
  int error = WriteFully(fd_, header.data(), header.size(), 0);
  if (::close(fd_) != 0 && error == 0) error = errno;
  fd_ = -1;
  if (error != 0) {
    return Status::IoError(StorePrefix(path_) +
                           "closing write failed: " + std::strerror(error));
  }
  // Durable finalization (docs/FORMAT.md §8): the sealed bytes reach the
  // platters before the rename publishes them, and the rename reaches
  // the directory before anyone trusts the final name.
  PublishSeams seams;
  seams.before_fsync = &fp_fsync;
  seams.before_rename = &fp_rename;
  RR_RETURN_NOT_OK(PublishTempFile(temp_path_, path_, seams));
  h_seal_nanos.Record(trace::NowNanos() - seal_start_nanos);
  m_seals.Add(1);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------------

Result<ColumnStoreReader> ColumnStoreReader::Open(const std::string& path) {
  const std::string prefix = StorePrefix(path);
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError(prefix + "cannot open: " + std::strerror(errno));
  }
  struct stat file_stat;
  if (::fstat(fd, &file_stat) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(fd);
    return Status::IoError(prefix + "cannot stat: " + detail);
  }
  const size_t file_size = static_cast<size_t>(file_stat.st_size);
  if (file_size < kHeaderAlignment) {
    ::close(fd);
    return Status::InvalidArgument(
        prefix + "file is " + std::to_string(file_size) +
        " bytes, smaller than the minimum " +
        std::to_string(kHeaderAlignment) + "-byte header");
  }
  void* raw_mapping = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
  if (raw_mapping == MAP_FAILED) {
    const std::string detail = std::strerror(errno);
    ::close(fd);
    return Status::IoError(prefix + "mmap failed: " + detail);
  }

  ColumnStoreReader reader;
  reader.path_ = path;
  reader.fd_ = fd;
  reader.mapping_ = static_cast<const uint8_t*>(raw_mapping);
  reader.file_size_ = file_size;
  const uint8_t* bytes = reader.mapping_;

  // From here every failure path destroys `reader`, which unmaps/closes.
  if (std::memcmp(bytes, kColumnStoreMagic, sizeof(kColumnStoreMagic)) != 0) {
    return Status::InvalidArgument(
        prefix + "bad magic at offset 0 — not a column-store file");
  }
  const uint32_t version = LoadU32(bytes + kVersionOffset);
  if (version == 0 || version > kColumnStoreVersion) {
    return Status::InvalidArgument(
        prefix + "unsupported format version " + std::to_string(version) +
        " (this build reads versions 1.." +
        std::to_string(kColumnStoreVersion) + ")");
  }
  reader.header_bytes_ = LoadU32(bytes + kHeaderBytesOffset);
  reader.num_records_ = LoadU64(bytes + kNumRecordsOffset);
  const uint64_t num_attributes = LoadU64(bytes + kNumAttributesOffset);
  reader.block_rows_ = LoadU64(bytes + kBlockRowsOffset);
  if (num_attributes == 0 || reader.block_rows_ == 0) {
    return Status::InvalidArgument(
        prefix + "header declares num_attributes " +
        std::to_string(num_attributes) + ", block_rows " +
        std::to_string(reader.block_rows_) + " (both must be >= 1)");
  }
  if (reader.header_bytes_ < kNamesOffset + sizeof(uint64_t) ||
      reader.header_bytes_ > file_size) {
    return Status::InvalidArgument(
        prefix + "header_bytes " + std::to_string(reader.header_bytes_) +
        " outside the valid range [" +
        std::to_string(kNamesOffset + sizeof(uint64_t)) + ", " +
        std::to_string(file_size) + "]");
  }

  // Column names: u32 length + bytes each, all inside the header region
  // and leaving room for the trailing header checksum. Bound the count
  // BEFORE reserving: num_attributes is still unverified here (the
  // header hash sits after the names), and a corrupt count must fail as
  // a Status, not as a length_error/bad_alloc from reserve().
  if (num_attributes > (reader.header_bytes_ - kNamesOffset) / sizeof(uint32_t)) {
    return Status::InvalidArgument(
        prefix + "header declares " + std::to_string(num_attributes) +
        " columns, more than its " + std::to_string(reader.header_bytes_) +
        "-byte header could possibly name");
  }
  size_t offset = kNamesOffset;
  reader.names_.reserve(num_attributes);
  for (uint64_t j = 0; j < num_attributes; ++j) {
    if (offset + sizeof(uint32_t) + sizeof(uint64_t) > reader.header_bytes_) {
      return Status::InvalidArgument(
          prefix + "column name " + std::to_string(j) +
          " overruns the header at offset " + std::to_string(offset));
    }
    const uint32_t length = LoadU32(bytes + offset);
    offset += sizeof(uint32_t);
    if (offset + length + sizeof(uint64_t) > reader.header_bytes_) {
      return Status::InvalidArgument(
          prefix + "column name " + std::to_string(j) + " (length " +
          std::to_string(length) + ") overruns the header at offset " +
          std::to_string(offset));
    }
    reader.names_.emplace_back(reinterpret_cast<const char*>(bytes + offset),
                               length);
    offset += length;
  }
  const uint64_t stored_header_hash = LoadU64(bytes + offset);
  const uint64_t computed_header_hash = ColumnStoreHash(bytes, offset);
  if (stored_header_hash != computed_header_hash) {
    return Status::InvalidArgument(
        prefix + "header checksum mismatch over bytes [0, " +
        std::to_string(offset) + ") — stored " + HexU64(stored_header_hash) +
        ", computed " + HexU64(computed_header_hash));
  }
  reader.header_hash_ = stored_header_hash;

  // Geometry, overflow-checked: a hostile header must fail cleanly.
  uint64_t payload_values = 0;
  uint64_t payload_bytes = 0;
  if (__builtin_mul_overflow(num_attributes, reader.block_rows_,
                             &payload_values) ||
      __builtin_mul_overflow(payload_values, sizeof(double), &payload_bytes)) {
    return Status::InvalidArgument(
        prefix + "block geometry overflows (" +
        std::to_string(num_attributes) + " columns x " +
        std::to_string(reader.block_rows_) + " rows)");
  }
  reader.block_stride_ = payload_bytes + sizeof(uint64_t);
  // Ceil-div spelled without `num_records + block_rows - 1`, which wraps
  // for a hostile num_records near UINT64_MAX: a wrapped num_blocks_ of 0
  // would let a resealed header-only file pass the size cross-check below
  // and send reads past the mapping. This form cannot overflow, so the
  // lie is caught as a size disagreement like any other.
  reader.num_blocks_ = reader.num_records_ / reader.block_rows_ +
                       (reader.num_records_ % reader.block_rows_ != 0 ? 1 : 0);
  uint64_t blocks_bytes = 0;
  uint64_t expected_size = 0;
  if (__builtin_mul_overflow(reader.num_blocks_, reader.block_stride_,
                             &blocks_bytes) ||
      __builtin_add_overflow(blocks_bytes, reader.header_bytes_,
                             &expected_size) ||
      expected_size != file_size) {
    return Status::InvalidArgument(
        prefix + "header declares " + std::to_string(reader.num_records_) +
        " records in " + std::to_string(reader.num_blocks_) + " blocks of " +
        std::to_string(reader.block_rows_) + " rows = " +
        std::to_string(expected_size) + " bytes, but the file is " +
        std::to_string(file_size) +
        " bytes — truncated file or record-count disagreement");
  }
  m_opens.Add(1);
  return reader;
}

ColumnStoreReader::ColumnStoreReader(ColumnStoreReader&& other) noexcept {
  *this = std::move(other);
}

ColumnStoreReader& ColumnStoreReader::operator=(
    ColumnStoreReader&& other) noexcept {
  if (this == &other) return *this;
  ReleaseMapping();
  path_ = std::move(other.path_);
  fd_ = other.fd_;
  mapping_ = other.mapping_;
  file_size_ = other.file_size_;
  header_bytes_ = other.header_bytes_;
  num_records_ = other.num_records_;
  block_rows_ = other.block_rows_;
  num_blocks_ = other.num_blocks_;
  block_stride_ = other.block_stride_;
  header_hash_ = other.header_hash_;
  names_ = std::move(other.names_);
  other.fd_ = -1;
  other.mapping_ = nullptr;
  return *this;
}

ColumnStoreReader::~ColumnStoreReader() { ReleaseMapping(); }

void ColumnStoreReader::ReleaseMapping() {
  if (mapping_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(mapping_), file_size_);
    mapping_ = nullptr;
  }
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

size_t ColumnStoreReader::rows_in_block(size_t block) const {
  RR_CHECK(block < num_blocks_) << "rows_in_block: block out of range";
  const size_t begin = block * block_rows_;
  return std::min(block_rows_, num_records_ - begin);
}

Status ColumnStoreReader::VerifyBlocks(const ParallelOptions& parallel) const {
  // One task per block, claimed by whichever thread is free: each writes
  // only its own status slot, so the surviving diagnostic (lowest failing
  // block) is thread-count independent.
  const size_t payload_bytes = block_stride_ - sizeof(uint64_t);
  std::vector<Status> statuses(num_blocks_);
  ParallelForEach(
      0, num_blocks_,
      [&](size_t block) {
        statuses[block] = [&]() -> Status {
          RR_FAILPOINT(fp_read_block);
          const uint8_t* payload = block_payload(block);
          const uint64_t stored = LoadU64(payload + payload_bytes);
          const uint64_t computed = ColumnStoreHash(payload, payload_bytes);
          if (stored != computed) {
            return Status::InvalidArgument(
                StorePrefix(path_) + "block " + std::to_string(block) +
                " checksum mismatch at offset " +
                std::to_string(header_bytes_ + block * block_stride_) +
                " — stored " + HexU64(stored) + ", computed " +
                HexU64(computed) + " (see docs/FORMAT.md)");
          }
          m_blocks_verified.Add(1);
          return Status::OK();
        }();
      },
      parallel);
  for (Status& status : statuses) {
    if (!status.ok()) return std::move(status);
  }
  return Status::OK();
}

uint64_t ColumnStoreReader::stored_block_hash(size_t block) const {
  RR_CHECK(block < num_blocks_) << "stored_block_hash: block out of range";
  return LoadU64(block_payload(block) + block_stride_ - sizeof(uint64_t));
}

const double* ColumnStoreReader::BlockColumn(size_t block,
                                             size_t column) const {
  RR_CHECK(block < num_blocks_ && column < names_.size())
      << "BlockColumn: index out of range";
  return reinterpret_cast<const double*>(block_payload(block)) +
         column * block_rows_;
}

// ---------------------------------------------------------------------------
// Dataset convenience + format detection.
// ---------------------------------------------------------------------------

Status WriteColumnStore(const Dataset& dataset, const std::string& path,
                        ColumnStoreOptions options) {
  RR_ASSIGN_OR_RETURN(
      ColumnStoreWriter writer,
      ColumnStoreWriter::Create(path, dataset.attribute_names(), options));
  RR_RETURN_NOT_OK(writer.Append(dataset.records(), dataset.num_records()));
  return writer.Close();
}

Result<RecordFileFormat> DetectRecordFileFormat(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file.is_open()) {
    return Status::IoError("cannot open '" + path + "'");
  }
  char magic[sizeof(kColumnStoreMagic)];
  file.read(magic, sizeof(magic));
  if (file.gcount() == sizeof(magic)) {
    if (std::memcmp(magic, kColumnStoreMagic, sizeof(magic)) == 0) {
      return RecordFileFormat::kColumnStore;
    }
    if (std::memcmp(magic, kShardManifestMagic, sizeof(magic)) == 0) {
      return RecordFileFormat::kShardManifest;
    }
  }
  return RecordFileFormat::kCsv;  // CSV has no magic; it is the fallback.
}

Result<Dataset> ReadRecords(const std::string& path) {
  RR_ASSIGN_OR_RETURN(const RecordFileFormat format,
                      DetectRecordFileFormat(path));
  switch (format) {
    case RecordFileFormat::kColumnStore:
    case RecordFileFormat::kShardManifest:
      return ReadShardedStoreDataset(path);
    case RecordFileFormat::kCsv:
      break;
  }
  return ReadCsv(path);
}

}  // namespace data
}  // namespace randrecon
