// The sharded-store writer and the rolling-store snapshot reader: one
// writer for batch conversions and continuous ingest alike, with no
// locks shared across processes.
//
// RollingShardedStoreWriter does three jobs, each its own call, and a
// caller picks the ones it needs:
//
//   * Append streams rows into one open shard at a time. An open shard
//     is ALWAYS a ".tmp" file with an intentionally mismatched header
//     checksum (data/column_store.h), so no reader — and no recovery
//     pass — can mistake it for data. The Append that brings the open
//     shard to `shard_rows` rows (splitting a chunk across shards when
//     needed) seals it: flush + header patch + fsync + atomic rename,
//     then a reopen that digests the sealed header and block hashes.
//     Rows arrive row-major (Append: batch conversions, sinks) or
//     column-major (AppendColumns: ingest, whose producers already
//     transposed each batch); both share one split-and-seal loop, and
//     the column-store writer fills its block either way.
//     The seal runs inline on the writer's thread but seldom waits
//     long: the column-store writer starts each block's writeback as
//     it writes it (StartWriteback, common/file_io.h), so the fsync
//     finds the shard mostly on disk and stays the one durability
//     point.
//   * Publish writes a NEW manifest over every sealed, retained shard
//     through the same write-temp → fsync → atomic-rename path every
//     ".rrcm" already uses (docs/FORMAT.md §7–8), then applies
//     retention. Continuous ingest publishes after every batch, so
//     concurrent readers see each shard once it seals; a batch
//     conversion never does, so its manifest appears only at Close and
//     a crashed conversion leaves no manifest at all.
//   * Close seals the open shard, publishes, and removes stale shards a
//     previous, longer write left at higher indices under the same stem.
//
// Because shards seal BEFORE the manifest that names them, and the
// manifest flips atomically, ANY manifest a concurrent process observes
// describes only fully-sealed, digest-bound shards. That is the whole
// reader-while-writer protocol: the filesystem is the only shared state.
//
// Retention: `retain_shards` / `retain_rows` bound the published
// window. Retired entries leave the manifest first (republish), and
// only then are their files deleted — a crash in between leaves an
// unreferenced sealed file, never a manifest naming a missing one.
// Retention renumbers row spans from 0 (manifest v1 spans must tile
// [0, num_records)), so a record's logical row index is a per-snapshot
// coordinate, not a stable global id; rows_written() keeps the
// monotonic total.
//
// RollingStoreSnapshotReader opens the latest published manifest and
// PINS every shard it names (opens + validates + mmaps them all up
// front). A pinned snapshot stays bitwise-readable for its whole
// lifetime even after retention unlinks a shard file: sealed shards are
// never rewritten in place, and POSIX keeps an unlinked mapping alive
// until the last reader drops it.
//
// Crash recovery is data/store_recovery.h: any crash leaves either the
// last published manifest (kept untouched — every shard it names sealed
// before it was written) or, if no manifest was ever published, orphan
// temps and sealed shards that recovery sweeps or rebuilds a manifest
// over. Two fork-based torture matrices kill the writer at every
// failpoint × hit it reaches: tests/data/rolling_store_test.cc for
// ingest with retention, tests/data/store_recovery_test.cc for a batch
// write.

#ifndef RANDRECON_DATA_ROLLING_STORE_H_
#define RANDRECON_DATA_ROLLING_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/column_store.h"
#include "data/dataset.h"
#include "data/shard_store.h"
#include "linalg/matrix.h"

namespace randrecon {
namespace data {

/// Rotation + retention knobs.
struct RollingStoreOptions {
  /// Seal the open shard once it holds this many rows (>= 1).
  size_t shard_rows = 1u << 16;
  /// Keep at most this many newest published shards (0 = unlimited).
  size_t retain_shards = 0;
  /// Keep the newest published shards covering at least this many rows:
  /// the oldest shard is retired only while the shards after it still
  /// hold >= retain_rows rows (0 = unlimited).
  uint64_t retain_rows = 0;
  /// Rows per block inside each shard (data::ColumnStoreOptions).
  size_t block_rows = kDefaultColumnStoreBlockRows;
};

/// Streams rows into shards of `shard_rows` rows named
/// ShardFileName(stem, k) next to the manifest, and publishes the
/// manifest over the sealed ones when asked (Publish, Rotate, Close).
/// Single-threaded like every writer in the data layer — the concurrent
/// edge lives in pipeline/ingest.h, which feeds one writer from a
/// bounded queue.
///
/// Failures: an Append or seal failure is sticky — the store lost rows,
/// so every later call (Close included, even from the destructor)
/// re-reports it, nothing more is published, and the open shard is
/// discarded. A publish failure is NOT sticky: the manifest on disk
/// stays the previous good one, every sealed shard stays queued, and
/// the next Publish, Rotate or Close retries.
class RollingShardedStoreWriter {
 public:
  /// InvalidArgument on shard_rows == 0, block_rows == 0, no columns, or
  /// empty or duplicate column names. Touches NO files: the first shard
  /// is created by the first Append (an unwritable directory surfaces
  /// there), and the first manifest by the first publish.
  static Result<RollingShardedStoreWriter> Create(
      const std::string& manifest_path, std::vector<std::string> column_names,
      RollingStoreOptions options = {});

  RollingShardedStoreWriter(RollingShardedStoreWriter&& other) noexcept;
  RollingShardedStoreWriter& operator=(RollingShardedStoreWriter&&) = delete;
  RollingShardedStoreWriter(const RollingShardedStoreWriter&) = delete;
  RollingShardedStoreWriter& operator=(const RollingShardedStoreWriter&) =
      delete;
  ~RollingShardedStoreWriter();

  /// Appends the leading `num_rows` rows of row-major `chunk`, sealing
  /// each shard that reaches `shard_rows`. Never publishes. The first
  /// Append opens shard 0 even when `num_rows` is 0, so a batch writer
  /// can surface path problems before any data and a zero-row write
  /// still closes into a readable empty store.
  Status Append(const linalg::Matrix& chunk, size_t num_rows);

  /// Appends `num_rows` records held column-major: attribute j of record
  /// r at columns[j * ld_columns + r] (ld_columns >= num_rows). Splits,
  /// seals, failpoints and failures are Append's; only the copy into
  /// each block differs (ColumnStoreWriter::AppendColumns).
  Status AppendColumns(const double* columns, size_t ld_columns,
                       size_t num_rows);

  /// Republishes the manifest over every sealed shard, then applies
  /// retention (retired files are deleted only after the publish that
  /// stopped naming them). O(1) when nothing was sealed since the last
  /// successful publish.
  Status Publish();

  /// Seals the open shard (when it holds rows), then Publish().
  Status Rotate();

  /// Seals the open shard, publishes, and removes stale shards left at
  /// higher indices by an earlier write to the same stem. Idempotent. A
  /// writer whose Append was never called closes without writing any
  /// file.
  Status Close();

  /// Rows appended over the writer's whole life (monotonic — retention
  /// does not subtract).
  uint64_t rows_written() const { return rows_written_; }

  /// Rows / shards in the last successfully published manifest.
  uint64_t published_rows() const { return published_rows_; }
  size_t published_shards() const { return published_shards_; }

  /// Rows any successful publish has named, over the writer's whole
  /// life (monotonic — retention does not subtract): rows_written()
  /// minus this is what a failed writer never published.
  uint64_t published_rows_total() const { return published_rows_total_; }

  /// Successful manifest publishes so far.
  uint64_t publishes() const { return publishes_; }

  const std::string& manifest_path() const { return manifest_path_; }

  /// Immutable after Create — safe from any thread.
  size_t num_attributes() const { return names_.size(); }

  /// Every shard file this writer has started plus the manifest — what
  /// a caller removes to clean up a failed conversion.
  std::vector<std::string> output_paths() const;

 private:
  RollingShardedStoreWriter(std::string manifest_path, std::string directory,
                            std::string stem, std::vector<std::string> names,
                            RollingStoreOptions options);

  /// "rolling store '<manifest>': shard K ('<path>'): " for the open
  /// shard (index next_shard_index_ - 1).
  std::string OpenShardPrefix() const;

  /// Creates the next shard file as the open target.
  Status StartShard();

  /// Both appends' body: writes `num_rows` records held at leading
  /// dimension `ld`, row-major or `column_major`, starting and sealing
  /// shards as they fill. Any failure is sticky.
  Status AppendRecords(const double* data, size_t ld, size_t num_rows,
                       bool column_major);

  /// Seals + digests the open shard into entries_. Failure is sticky.
  Status SealCurrentShard();

  /// Splits entries_ into (retired prefix, retained suffix) per the
  /// retention policy. Pure planning — nothing touches disk here.
  size_t RetireCount() const;

  std::string manifest_path_;
  std::string directory_;  ///< Includes the trailing '/', or "".
  std::string stem_;
  std::vector<std::string> names_;
  RollingStoreOptions options_;
  /// Sealed, digested shards awaiting or surviving publish. Entry
  /// row_begin values are recomputed at each publish.
  std::vector<ShardManifestEntry> entries_;
  /// Row counts per entries_ slot (row_begin renumbering source).
  std::vector<uint64_t> entry_rows_;
  /// The open shard (null between a seal and the next Append).
  std::unique_ptr<ColumnStoreWriter> current_;
  size_t current_rows_ = 0;
  /// Monotonic file-name index: retention never reuses a shard name.
  size_t next_shard_index_ = 0;
  /// Files retired from the manifest whose deletion has not succeeded
  /// yet — retried after every publish, so a failed unlink is
  /// transient, not leaked.
  std::vector<std::string> pending_retire_;
  uint64_t rows_written_ = 0;
  uint64_t published_rows_ = 0;
  size_t published_shards_ = 0;
  uint64_t published_rows_total_ = 0;
  uint64_t publishes_ = 0;
  /// First write or seal failure, sticky (publish failures are NOT
  /// recorded here).
  Status deferred_error_;
  bool closed_ = false;
};

/// Writes a whole Dataset as a sharded store (manifest + shards): one
/// Append, then Close — so the manifest is written last, and an empty
/// Dataset yields a readable one-shard, zero-row store.
Status WriteShardedStore(const Dataset& dataset,
                         const std::string& manifest_path,
                         const RollingStoreOptions& options);

/// A pinned, immutable view of the latest published manifest: every
/// named shard is opened and validated against its manifest digest up
/// front, so the snapshot keeps serving bitwise-exact rows for its
/// whole lifetime regardless of concurrent rotations and retention
/// (sealed shards are never modified, only unlinked — and the pin's
/// mmap outlives the unlink). Move-only, single-threaded; concurrent
/// consumers each Open their own snapshot.
class RollingStoreSnapshotReader {
 public:
  /// Fails like ShardedStoreReader::Open, or with the first shard that
  /// does not validate — a snapshot is all-or-nothing. One failure is
  /// special-cased: when a shard named by the parsed manifest fails to
  /// pin because a concurrent writer republished (and retention removed
  /// the shard) between the manifest parse and the pin, the error is a
  /// retryable Status::Unavailable naming the shard — reopening simply
  /// observes the newer snapshot. The distinction is made by re-reading
  /// the manifest and comparing manifest_hash: an UNCHANGED manifest
  /// naming an unopenable shard is real damage and propagates verbatim.
  static Result<RollingStoreSnapshotReader> Open(
      const std::string& manifest_path,
      ColumnStoreReadOptions store_options = {});

  /// The pin half of Open over an already-parsed reader, exposed so the
  /// parse→pin race window can be exercised deterministically (the
  /// regression test mutates the store between the two halves).
  /// `manifest_path` is re-read on a pin failure to classify it (see
  /// Open).
  static Result<RollingStoreSnapshotReader> Pin(
      ShardedStoreReader reader, const std::string& manifest_path);

  RollingStoreSnapshotReader(RollingStoreSnapshotReader&&) = default;
  RollingStoreSnapshotReader& operator=(RollingStoreSnapshotReader&&) =
      default;
  RollingStoreSnapshotReader(const RollingStoreSnapshotReader&) = delete;
  RollingStoreSnapshotReader& operator=(const RollingStoreSnapshotReader&) =
      delete;

  size_t num_records() const { return reader_.num_records(); }
  size_t num_attributes() const { return reader_.num_attributes(); }
  size_t num_shards() const { return reader_.num_shards(); }
  const std::vector<std::string>& attribute_names() const {
    return reader_.attribute_names();
  }
  const ShardManifest& manifest() const { return reader_.manifest(); }

  /// Fills the leading rows of `buffer` with snapshot records
  /// [row_begin, row_begin + num_rows) — row indices are snapshot-local
  /// (see the retention renumbering note above).
  Status ReadRows(size_t row_begin, size_t num_rows, linalg::Matrix* buffer) {
    return reader_.ReadRows(row_begin, num_rows, buffer);
  }

  /// Hands the pinned reader to its consumer (the attack scheduler wraps
  /// it in a pipeline::ShardedRecordSource). Every shard is already open
  /// and validated, so the reader's shard(s) cannot fail on an open.
  ShardedStoreReader ReleaseReader() && { return std::move(reader_); }

 private:
  explicit RollingStoreSnapshotReader(ShardedStoreReader reader)
      : reader_(std::move(reader)) {}

  ShardedStoreReader reader_;
};

}  // namespace data
}  // namespace randrecon

#endif  // RANDRECON_DATA_ROLLING_STORE_H_
