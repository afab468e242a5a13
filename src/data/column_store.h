// Binary columnar record store: the native storage backend for
// out-of-core attacks.
//
// CSV ingest parses every field through strtod at ~10^2 ns/value, which
// dominates wall clock once the covariance pass and record generation run
// at memory bandwidth (PR 1-3). The column store replaces parsing with a
// versioned little-endian binary format (magic, checksummed header,
// fixed-size row blocks of f64 columns with per-block checksums) read
// through a zero-copy memory mapping: ingest becomes a strided gather out
// of the page cache instead of a parse.
//
// The on-disk layout is specified byte-by-byte in docs/FORMAT.md — the
// format is implementable from that document alone, and the reader/writer
// tests cite it. Fixed-size blocks make every record's byte offset a
// closed-form function of its index, so readers are O(1)-seekable and
// trivially chunk-size invariant; within a block each column is
// contiguous, so columnar consumers (moments, quantizers) can run
// straight over mapped memory via BlockColumn().
//
//   * ColumnStoreWriter  — streams row-major chunks in, buffers one
//     block, writes the header placeholder eagerly and patches the
//     record count + header checksum on Close(). Wrapped by
//     pipeline::ColumnStoreChunkSink so any pipeline can emit a store.
//   * ColumnStoreReader  — memory-maps the file (POSIX mmap, read-only),
//     validates the header eagerly and serves each block's columns
//     zero-copy (BlockColumn); VerifyBlocks checks every block checksum
//     of the file, block-parallel. An immutable view after Open: it
//     decides nothing about when blocks are verified and gathers no rows.
//     Every read of a store, a lone file included, goes through
//     data::ShardedStoreReader (data/shard_store.h), which opens a lone
//     `.rrcs` as a one-shard store, verifies each shard's blocks once,
//     on the first read that touches the shard, and is the one row
//     gather.
//
// Every corruption path (truncation, bad magic/version, checksum
// mismatch, header/row-count disagreement) fails with a Status naming
// the offending block or byte offset — never a crash; see
// tests/data/column_store_test.cc.

#ifndef RANDRECON_DATA_COLUMN_STORE_H_
#define RANDRECON_DATA_COLUMN_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/result.h"
#include "data/dataset.h"
#include "linalg/matrix.h"

namespace randrecon {
namespace data {

/// The 8 magic bytes at offset 0 of every column-store file ("RRCOLSTR").
extern const char kColumnStoreMagic[8];

/// The format version this library writes and the newest it reads.
constexpr uint32_t kColumnStoreVersion = 1;

/// Default rows per block. 4096 rows x 8 bytes keeps one column slab at
/// 32 KiB (L1-resident for the gather) and matches the pipeline's default
/// chunk and the moment accumulator's staging block.
constexpr size_t kDefaultColumnStoreBlockRows = 4096;

/// RRH64: the checksum function of the v1 format (docs/FORMAT.md §4) —
/// a 4-lane 64-bit mixing hash over little-endian words, chosen over
/// table-driven CRC32 so checksum verification runs near memory
/// bandwidth without per-arch intrinsics. Public so tests and external
/// tools can re-seal files after editing header fields.
uint64_t ColumnStoreHash(const void* data, size_t size);

/// Writer options.
struct ColumnStoreOptions {
  /// Rows per fixed-size block (must be >= 1). Every block occupies
  /// num_attributes * block_rows * 8 + 8 bytes on disk; the final block
  /// is zero-padded.
  size_t block_rows = kDefaultColumnStoreBlockRows;
};

/// Streams row-major record chunks into a column-store file.
///
/// All bytes stream into the temp file TempPathFor(path) ("<path>.tmp")
/// through a POSIX fd, one write per block; after each block the writer
/// starts the writeback of the pages that block completed
/// (StartWriteback, common/file_io.h), so the disk works while the next
/// block fills. Close() flushes the final
/// partial block, patches the record count + the real header checksum,
/// and publishes the temp over `path` with PublishTempFile (fsync,
/// rename, fsync the parent directory) — the rename protocol of
/// docs/FORMAT.md §8; that fsync stays the one durability point. `path` therefore either
/// does not exist or holds a complete sealed store at every instant; a
/// crash leaves at worst an orphan ".tmp" whose header carries an
/// intentionally mismatched checksum, so even a reader pointed straight
/// at the temp rejects it. A write or seal failure is sticky: every
/// later Append/Close re-reports it, and the failed Close removes the
/// temp file (best-effort) instead of leaving it behind.
class ColumnStoreWriter {
 public:
  /// Opens `path`'s temp file for writing and emits the unsealed header.
  /// Fails with InvalidArgument on empty/duplicate names or
  /// block_rows == 0, and IoError naming the errno if the temp file can't
  /// be created or written (the temp is removed then).
  static Result<ColumnStoreWriter> Create(const std::string& path,
                                          std::vector<std::string> column_names,
                                          ColumnStoreOptions options = {});

  ColumnStoreWriter(ColumnStoreWriter&& other) noexcept;
  /// Best-effort Close() of the store this writer was building (mirroring
  /// the destructor — a half-written file must be sealed, not silently
  /// abandoned unsealed) before adopting `other`'s state. Call Close()
  /// explicitly first to observe that store's write errors.
  ColumnStoreWriter& operator=(ColumnStoreWriter&& other) noexcept;
  ColumnStoreWriter(const ColumnStoreWriter&) = delete;
  ColumnStoreWriter& operator=(const ColumnStoreWriter&) = delete;
  ~ColumnStoreWriter();

  /// Appends the leading `num_rows` rows of row-major `chunk` (whose
  /// column count must equal the name count) to the stream.
  Status Append(const linalg::Matrix& chunk, size_t num_rows);

  /// Appends `num_rows` row-major records at `rows` (num_attributes()
  /// values each) — the pointer form sharded writers slice chunks with.
  Status Append(const double* rows, size_t num_rows);

  /// Flushes the final partial block, patches the header record count and
  /// checksum, fsyncs, and atomically renames the temp file to the final
  /// path. Idempotent; IoError naming the errno on write/fsync/rename
  /// failure (the temp file is removed best-effort then — a failed store
  /// never reaches its final name).
  Status Close();

  /// Records appended so far.
  size_t rows_written() const { return rows_written_; }

  size_t num_attributes() const { return names_.size(); }

 private:
  ColumnStoreWriter(int fd, std::string path,
                    std::vector<std::string> names, size_t block_rows,
                    size_t header_bytes, std::string header_prefix);

  /// Writes the buffered block (zero-padded to full size) + checksum in
  /// one write and starts the writeback of the pages it completed.
  /// Failures are sticky (recorded in deferred_error_).
  Status FlushBlock();

  /// Close()'s body: flush, patch, fsync, rename. Factored out so Close
  /// can clean up the temp file on any failure path.
  Status Seal();

  int fd_ = -1;            ///< The temp file; -1 once closed.
  std::string path_;       ///< The final path the sealed store renames to.
  std::string temp_path_;  ///< TempPathFor(path_): where bytes stream.
  std::vector<std::string> names_;
  size_t block_rows_;
  size_t header_bytes_;
  /// Header bytes before the checksum field, with the record count still
  /// zeroed — Close() patches the count in this image and re-hashes it.
  std::string header_prefix_;
  /// Bytes written to the temp so far: where the next block goes.
  uint64_t file_bytes_;
  /// Leading bytes whose writeback has been started (whole pages).
  uint64_t writeback_bytes_ = 0;
  /// One block in columnar layout, column j at [j * block_rows, ...),
  /// then one slot for its checksum, so a block leaves in one write.
  std::vector<double> block_;
  size_t rows_in_block_ = 0;
  size_t rows_written_ = 0;
  /// First write failure, sticky: a store that lost a block must not
  /// seal as a silently truncated stream.
  Status deferred_error_;
  bool closed_ = false;
};

/// Memory-mapped column-store reader: zero-copy in the sense that file
/// bytes are consumed straight from the page cache — no read() buffering,
/// no parsing; BlockColumn() points into the mapping.
///
/// Open() validates magic, version, header checksum and the exact file
/// size implied by the header (which catches both truncation and a
/// header/row-count disagreement). Block checksums are checked only by
/// VerifyBlocks, whole file at once; when that happens is the caller's
/// decision (data::ShardedStoreReader::VerifiedShard for reads, recovery
/// for its stray-shard rebuild). Move-only and immutable after Open, so
/// its const methods are safe to call from any number of threads.
class ColumnStoreReader {
 public:
  /// Maps `path` and validates its header. IoError if the file can't be
  /// opened or mapped, InvalidArgument naming the offending field/offset
  /// on any structural corruption.
  static Result<ColumnStoreReader> Open(const std::string& path);

  ColumnStoreReader(ColumnStoreReader&& other) noexcept;
  ColumnStoreReader& operator=(ColumnStoreReader&& other) noexcept;
  ColumnStoreReader(const ColumnStoreReader&) = delete;
  ColumnStoreReader& operator=(const ColumnStoreReader&) = delete;
  ~ColumnStoreReader();

  size_t num_records() const { return num_records_; }
  size_t num_attributes() const { return names_.size(); }
  size_t block_rows() const { return block_rows_; }
  size_t num_blocks() const { return num_blocks_; }
  const std::vector<std::string>& attribute_names() const { return names_; }

  /// Zero-copy pointer to column `column` of block `block` — block-local
  /// row r of that column is ptr[r], valid for rows_in_block(block) rows.
  /// Checks nothing: callers verify the file first (VerifyBlocks).
  const double* BlockColumn(size_t block, size_t column) const;

  /// Verifies every block checksum of the file (docs/FORMAT.md §3),
  /// block-parallel. On failure returns the LOWEST failing block's error,
  /// naming the block and its byte offset, so the diagnostic is the same
  /// for any thread count.
  Status VerifyBlocks(const ParallelOptions& parallel) const;

  /// Valid records in `block` (block_rows() except for a final partial).
  size_t rows_in_block(size_t block) const;

  /// The sealed header checksum (docs/FORMAT.md §2.2) — together with the
  /// per-block checksums this is the store's content identity, which the
  /// sharded-store manifest binds into its per-shard seal digest.
  uint64_t header_hash() const { return header_hash_; }

  /// The STORED checksum of `block` (docs/FORMAT.md §3), read without
  /// verifying it — manifest seal digests hash these, so a corrupt block
  /// changes the digest whether or not anyone has touched its data.
  uint64_t stored_block_hash(size_t block) const;

 private:
  ColumnStoreReader() = default;

  /// Unmaps and closes, leaving the reader empty (moves, destructor).
  void ReleaseMapping();

  const uint8_t* block_payload(size_t block) const {
    return mapping_ + header_bytes_ + block * block_stride_;
  }

  std::string path_;
  int fd_ = -1;
  const uint8_t* mapping_ = nullptr;
  size_t file_size_ = 0;
  size_t header_bytes_ = 0;
  size_t num_records_ = 0;
  size_t block_rows_ = 0;
  size_t num_blocks_ = 0;
  size_t block_stride_ = 0;  ///< Payload + trailing checksum, in bytes.
  uint64_t header_hash_ = 0;
  std::vector<std::string> names_;
};

/// Writes a whole Dataset as a column store (bitwise-exact f64 values,
/// unlike CSV at finite precision).
Status WriteColumnStore(const Dataset& dataset, const std::string& path,
                        ColumnStoreOptions options = {});

/// Record-file formats the auto-detecting loaders understand.
enum class RecordFileFormat {
  kCsv,
  kColumnStore,
  /// A sharded-store manifest (data/shard_store.h) naming N `.rrcs`
  /// shards that together form one logical stream.
  kShardManifest,
};

/// Sniffs the leading magic bytes of `path`: kColumnStore iff they equal
/// kColumnStoreMagic, kShardManifest iff they equal kShardManifestMagic
/// (data/shard_store.h), else kCsv (CSV has no magic). IoError if the
/// file can't be opened.
Result<RecordFileFormat> DetectRecordFileFormat(const std::string& path);

/// Loads `path` as a Dataset whatever its format (sniffed, not by
/// extension) — the in-memory counterpart of pipeline::OpenRecordSource.
/// Both store formats load through ReadShardedStoreDataset
/// (data/shard_store.h).
Result<Dataset> ReadRecords(const std::string& path);

}  // namespace data
}  // namespace randrecon

#endif  // RANDRECON_DATA_COLUMN_STORE_H_
