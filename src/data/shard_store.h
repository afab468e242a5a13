// Sharded multi-file column stores: one logical record stream spanning
// N `.rrcs` shards, described by a small versioned, checksummed manifest.
//
// A single column-store file (data/column_store.h) caps a logical stream
// at one file on one disk and gives batch schedulers nothing to
// decompose. The sharded store lifts both limits without touching the
// shard format: shards are ordinary sealed column stores, and the
// manifest (conventional extension ".rrcm", byte-level spec in
// docs/FORMAT.md §7) binds them into one stream by recording, per shard,
// its relative path, row span, and a seal digest derived from the
// shard's own header + block checksums. The column schema is recorded
// once and cross-checked against every shard's header.
//
//   * RollingShardedStoreWriter (data/rolling_store.h) — the one
//     writer: rolls to a new shard every `shard_rows` records, seals
//     each, and publishes the manifest only when asked. A batch write
//     publishes once, at Close: a crashed write leaves shards without a
//     manifest, never a manifest describing data that was not fully
//     written.
//   * ShardedStoreReader — presents the shards as one O(1)-seekable
//     logical stream, and is the only reader of column stores: a lone
//     `.rrcs` opens as a one-shard store. Shards are opened lazily on
//     first touch, and shard() is the one place a shard file is checked
//     against its manifest entry (schema, row count, seal digest), so
//     every corruption path (missing/truncated shard, swapped shards, a
//     shard resealed after the manifest was written, row-span
//     overlap/gap, schema mismatch) fails with a Status naming the
//     offending shard — never a crash or a silently wrong stream.
//     VerifiedShard is the one place block checksums are checked on the
//     read path: a shard's blocks are all verified once per reader,
//     block-parallel, on the first read that touches the shard (a
//     ReadRows, or a columnar sweep entering it). ReadRows is the one
//     row gather: it verifies each spanned shard that way, then copies
//     every (shard, block) piece in one parallel loop.
//
// The wrapped pipeline adapters (ShardedRecordSource, ShardedChunkSink)
// and the job-per-shard batch decomposition live in src/pipeline/ —
// like the single-file store, `data` does not know the pipeline exists.

#ifndef RANDRECON_DATA_SHARD_STORE_H_
#define RANDRECON_DATA_SHARD_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/result.h"
#include "data/column_store.h"
#include "data/dataset.h"
#include "linalg/matrix.h"

namespace randrecon {
namespace data {

/// The 8 magic bytes at offset 0 of every shard manifest ("RRSHMANF").
extern const char kShardManifestMagic[8];

/// The conventional manifest file extension ("<name>.rrcm"). Readers
/// sniff the magic, never the extension; writers and the sink factory
/// dispatch on it.
extern const char kShardManifestExtension[];

/// The manifest format version this library writes and the newest it
/// reads.
constexpr uint32_t kShardManifestVersion = 1;

/// Reader knobs.
struct ColumnStoreReadOptions {
  /// Worker budget for block-parallel verification and gathers. Results
  /// are bitwise identical for any setting (disjoint per-block work, no
  /// cross-block floating-point accumulation).
  ParallelOptions parallel;
};

/// One shard's manifest entry (docs/FORMAT.md §7.2).
struct ShardManifestEntry {
  /// Shard file path relative to the manifest's directory. Validated on
  /// read: non-empty, not absolute, no ".." components (a hostile
  /// manifest must not address files outside its directory tree).
  std::string relative_path;
  /// The shard holds logical records [row_begin, row_begin + row_count).
  /// Spans must tile [0, num_records) contiguously in shard order.
  uint64_t row_begin = 0;
  uint64_t row_count = 0;
  /// RRH64 over the shard's sealed header hash followed by its per-block
  /// checksums (ComputeShardSealDigest) — the shard's content identity.
  /// Binding it into the manifest catches swapped shard files (same
  /// schema and row count, different data) and a shard resealed after
  /// the manifest was written.
  uint64_t seal_digest = 0;
};

/// A parsed, validated manifest.
struct ShardManifest {
  uint32_t version = kShardManifestVersion;
  uint64_t num_records = 0;
  std::vector<std::string> column_names;
  std::vector<ShardManifestEntry> shards;
  /// The manifest file's own trailing RRH64 checksum (docs/FORMAT.md
  /// §7.3) — a content digest of the ENTIRE published snapshot
  /// (schema, row spans, every shard's seal digest), so two manifests
  /// are byte-identical iff their hashes match. Populated by
  /// ReadShardManifest; ignored by WriteShardManifest (which computes
  /// the hash from the serialized image). The attack scheduler uses it
  /// as the snapshot identity in versioned report series (spelled by
  /// HexU64, data/byte_codec.h).
  uint64_t manifest_hash = 0;
};

/// The per-shard seal digest of the manifest format: RRH64 over the
/// little-endian u64 sequence [header_hash, block_hash 0, 1, ...] of a
/// sealed shard. Reads only the header and the 8-byte block trailers —
/// O(blocks), not O(bytes) — yet changes whenever the shard's schema,
/// geometry, record count or any block's content changes.
uint64_t ComputeShardSealDigest(const ColumnStoreReader& reader);

/// "<stem>.shard-00042.rrcs" — the shard naming scheme the writer uses.
std::string ShardFileName(const std::string& stem, size_t shard_index);

/// The shard-name stem for a manifest path: its filename minus the
/// ".rrcm" extension (the whole filename when the extension is absent).
std::string ShardStemForManifest(const std::string& manifest_path);

/// Directory prefix of `path` including the trailing '/' ("" when the
/// path has no directory part) — what shard relative paths join onto.
std::string ManifestDirectory(const std::string& manifest_path);

/// Parses and validates the manifest at `manifest_path`: magic, version,
/// manifest checksum, exact file size, path safety, and contiguous row
/// spans (an overlap or gap is an InvalidArgument naming the shard).
/// Does NOT open any shard — per-shard validation happens lazily in
/// ShardedStoreReader::shard.
Result<ShardManifest> ReadShardManifest(const std::string& manifest_path);

/// Serializes `manifest` (docs/FORMAT.md §7) to `manifest_path` through
/// the write-temp → fsync → atomic-rename protocol (docs/FORMAT.md §8):
/// the manifest path never holds a partial manifest, whatever happens
/// mid-write. InvalidArgument on structural problems (no shards, bad
/// spans, unsafe paths), IoError on write/fsync/rename failure (the temp
/// file is removed best-effort then).
Status WriteShardManifest(const ShardManifest& manifest,
                          const std::string& manifest_path);

/// Reads a manifest + shards as one logical O(1)-seekable record stream.
///
/// Shards are opened lazily: the manifest is parsed and span-validated
/// up front, each shard file is mapped and checked (schema, row count,
/// seal digest) on first touch, and its blocks are verified once, on the
/// first read of any of its rows. Move-only and single-threaded (it
/// remembers which shards are open and verified); concurrent consumers
/// should each Open() the manifest.
class ShardedStoreReader {
 public:
  /// Opens `path`: a manifest (fails like ReadShardManifest; no shard is
  /// touched), or a lone column-store file, which is a one-shard store —
  /// its one entry is the file itself, rows [0, n), with the file's own
  /// names and seal digest. The lone file is mapped and its header
  /// validated here (failing like ColumnStoreReader::Open). A manifest
  /// costs no file I/O beyond ReadShardManifest's (each byte read once);
  /// a lone store, only its leading magic before the map.
  /// `store_options` applies to every shard.
  static Result<ShardedStoreReader> Open(
      const std::string& path, ColumnStoreReadOptions store_options = {});

  /// A one-shard view of entry `shard` of `manifest` (parsed from
  /// `manifest_path`), its rows renumbered from 0: the store a per-shard
  /// job attacks. Touches no file; the shard is opened and checked
  /// against its entry, seal digest included, on first use. Errors name
  /// the shard by its index in `manifest`.
  static ShardedStoreReader ShardView(const ShardManifest& manifest,
                                      const std::string& manifest_path,
                                      size_t shard,
                                      ColumnStoreReadOptions store_options = {});

  ShardedStoreReader(ShardedStoreReader&&) = default;
  ShardedStoreReader& operator=(ShardedStoreReader&&) = default;
  ShardedStoreReader(const ShardedStoreReader&) = delete;
  ShardedStoreReader& operator=(const ShardedStoreReader&) = delete;

  size_t num_records() const {
    return static_cast<size_t>(manifest_.num_records);
  }
  size_t num_attributes() const { return manifest_.column_names.size(); }
  size_t num_shards() const { return manifest_.shards.size(); }
  const std::vector<std::string>& attribute_names() const {
    return manifest_.column_names;
  }
  const ShardManifest& manifest() const { return manifest_; }

  /// Path of shard `shard` (manifest directory + relative path).
  std::string shard_path(size_t shard) const;

  /// Fills the leading rows of `buffer` with logical records
  /// [row_begin, row_begin + num_rows). Each spanned shard comes from
  /// VerifiedShard, in record order, so a read touching any row of a
  /// shard fails if any block of that shard is corrupt, and the lowest
  /// failing (shard, block) is the error whatever the thread count. The
  /// blocks are then gathered in one parallel loop, each into its own
  /// slice of `buffer`, so the filled bytes do not depend on the thread
  /// count either. Errors name the offending shard.
  Status ReadRows(size_t row_begin, size_t num_rows, linalg::Matrix* buffer);

  /// The lazily-opened reader for shard `shard`, checked against its
  /// manifest entry: the file opens, its schema and row count match, and
  /// its seal digest equals the entry's. O(blocks): block checksums are
  /// NOT verified here (a pin runs this for every shard on every cycle,
  /// and the degraded probe for every shard of a store). The pointer
  /// stays valid for the life of this ShardedStoreReader.
  Result<const ColumnStoreReader*> shard(size_t shard);

  /// shard(shard), with every block checksum of the shard verified
  /// (ColumnStoreReader::VerifyBlocks, block-parallel): the one accessor
  /// every read goes through. The blocks are verified once per reader,
  /// on the first call; errors name the shard, the lowest failing block
  /// and its byte offset.
  Result<const ColumnStoreReader*> VerifiedShard(size_t shard);

 private:
  ShardedStoreReader(ShardManifest manifest, const std::string& path,
                     ColumnStoreReadOptions store_options);

  /// "sharded store '<manifest>': shard K ('<path>'): " — every
  /// shard-level failure is prefixed so the offending shard is named. A
  /// lone column store's own messages already name its file: "".
  std::string ShardPrefix(size_t shard) const;

  /// Maps shard `shard`'s file and validates its header; the one open
  /// of a store file behind every read.
  Result<ColumnStoreReader> MapShard(size_t shard) const;

  ShardManifest manifest_;
  std::string manifest_path_;
  std::string directory_;
  ColumnStoreReadOptions store_options_;
  /// Index of manifest_.shards[0] in the manifest messages name shards
  /// by (non-zero only for a ShardView).
  size_t first_shard_ = 0;
  /// Lazily opened shard readers (null until first touch). unique_ptr
  /// keeps ColumnStoreReader pointers stable across vector growth.
  std::vector<std::unique_ptr<const ColumnStoreReader>> shards_;
  /// verified_[s]: shard s's blocks passed VerifiedShard's check.
  std::vector<bool> verified_;
};

/// Reads a whole store — a manifest and its shards, or a lone column
/// store — into memory as a Dataset.
Result<Dataset> ReadShardedStoreDataset(const std::string& path);

/// Cleanup of a sharded-store output (after a failed write or
/// verification): removes the manifest if present, every shard the
/// manifest names (when it parses), and every conventionally-named
/// "<stem>.shard-NNNNN.rrcs" file — including orphan ".tmp" and
/// ".quarantined" variants left by a crashed writer or a recovery pass —
/// counting up from 0 until the first index with no file under any of
/// the three names. OK when everything that existed was removed; IoError
/// listing every path that existed but could not be removed (callers
/// that only want the old best-effort behavior may ignore the return).
/// For tools like convert_csv that must not leave a plausible-looking
/// partial store behind.
Status RemoveShardedStoreFiles(const std::string& manifest_path);

}  // namespace data
}  // namespace randrecon

#endif  // RANDRECON_DATA_SHARD_STORE_H_
