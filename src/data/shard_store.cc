#include "data/shard_store.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <utility>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/file_io.h"
#include "common/metrics.h"
#include "data/byte_codec.h"
#include "linalg/kernels.h"

namespace randrecon {
namespace data {

const char kShardManifestMagic[8] = {'R', 'R', 'S', 'H', 'M', 'A', 'N', 'F'};
const char kShardManifestExtension[] = ".rrcm";

namespace {

// Fixed manifest offsets (docs/FORMAT.md §7.1) — deliberately parallel
// to the column-store header: magic, version, then three u64 geometry
// fields, then variable-length sections.
constexpr size_t kVersionOffset = 8;
constexpr size_t kReservedOffset = 12;
constexpr size_t kNumRecordsOffset = 16;
constexpr size_t kNumAttributesOffset = 24;
constexpr size_t kNumShardsOffset = 32;
constexpr size_t kEntriesStartOffset = 40;
/// u32 path length + (empty path) + row_begin + row_count + seal_digest.
constexpr size_t kMinShardEntryBytes = 4 + 3 * sizeof(uint64_t);
/// Manifests are O(shards) small; a header claiming more than this is
/// hostile or corrupt and must fail as a Status, not a bad_alloc.
constexpr size_t kMaxManifestBytes = 64u << 20;

std::string ManifestPrefix(const std::string& path) {
  return "shard manifest '" + path + "': ";
}

// The manifest's IO seams (common/failpoint.h). The writer's own seams
// (roll.*) live in rolling_store.cc.
Failpoint fp_manifest_write("manifest.write");    ///< Before the temp write.
Failpoint fp_manifest_fsync("manifest.fsync");    ///< Before the temp fsync.
Failpoint fp_manifest_rename("manifest.rename");  ///< Before the rename.

// Sharded-layer telemetry (common/metrics.h). Counts sit next to the
// failpoints they observe; the per-shard store.* counters in
// column_store.cc tick underneath these for every shard file.
metrics::Counter m_shards_opened("shard.shards_opened");
/// shard() calls that found the shard already open.
metrics::Counter m_shard_open_hits("shard.open_hits");
metrics::Counter m_manifests_written("shard.manifests_written");
metrics::Counter m_manifests_read("shard.manifests_read");
metrics::Counter m_rows_read("store.rows_read");

/// A shard path from a manifest may only address files under the
/// manifest's directory: relative, with no "." / ".." / empty
/// components (a hostile manifest must not reach ../../etc/passwd).
bool IsSafeRelativePath(const std::string& path) {
  if (path.empty() || path.front() == '/') return false;
  size_t begin = 0;
  while (begin <= path.size()) {
    const size_t end = std::min(path.find('/', begin), path.size());
    const std::string component = path.substr(begin, end - begin);
    if (component.empty() || component == "." || component == "..") {
      return false;
    }
    begin = end + 1;
  }
  return true;
}

/// Structural validation shared by the reader and the writer: spans must
/// tile [0, num_records) contiguously in shard order, every path must be
/// safe, and failures name the offending shard.
Status ValidateManifestStructure(const ShardManifest& manifest,
                                 const std::string& prefix) {
  if (manifest.shards.empty()) {
    return Status::InvalidArgument(prefix + "manifest names no shards");
  }
  if (manifest.column_names.empty()) {
    return Status::InvalidArgument(prefix + "manifest names no columns");
  }
  uint64_t expected_begin = 0;
  std::set<std::string> seen_paths;
  for (size_t s = 0; s < manifest.shards.size(); ++s) {
    const ShardManifestEntry& entry = manifest.shards[s];
    const std::string shard_name =
        "shard " + std::to_string(s) + " ('" + entry.relative_path + "')";
    if (!IsSafeRelativePath(entry.relative_path)) {
      return Status::InvalidArgument(
          prefix + shard_name +
          ": path must be relative with no '..' components");
    }
    if (!seen_paths.insert(entry.relative_path).second) {
      // Two entries aliasing one file would pass every per-shard check
      // (same schema, counts and digest) and silently serve duplicated
      // records — exactly the "silently wrong stream" this layer exists
      // to rule out.
      return Status::InvalidArgument(
          prefix + shard_name + ": duplicate shard path — an earlier entry "
          "already names this file");
    }
    uint64_t entry_end = 0;
    if (__builtin_add_overflow(entry.row_begin, entry.row_count,
                               &entry_end)) {
      return Status::InvalidArgument(prefix + shard_name + ": row span [" +
                                     std::to_string(entry.row_begin) + ", +" +
                                     std::to_string(entry.row_count) +
                                     ") overflows");
    }
    if (entry.row_begin != expected_begin) {
      const bool overlap = entry.row_begin < expected_begin;
      return Status::InvalidArgument(
          prefix + shard_name + ": row span [" +
          std::to_string(entry.row_begin) + ", " + std::to_string(entry_end) +
          ") " + (overlap ? "overlaps the previous shard, which ends at record "
                          : "leaves a gap after the previous shard, which ends "
                            "at record ") +
          std::to_string(expected_begin));
    }
    expected_begin = entry_end;
  }
  if (expected_begin != manifest.num_records) {
    return Status::InvalidArgument(
        prefix + "shard row spans cover " + std::to_string(expected_begin) +
        " records but the manifest declares " +
        std::to_string(manifest.num_records));
  }
  return Status::OK();
}

/// The manifest's serialized image WITHOUT the trailing hash.
std::string SerializeManifestPrefix(const ShardManifest& manifest) {
  std::string out;
  out.append(kShardManifestMagic, sizeof(kShardManifestMagic));
  AppendU32(&out, manifest.version);
  AppendU32(&out, 0);  // Reserved; zero in v1, bound by the hash.
  AppendU64(&out, manifest.num_records);
  AppendU64(&out, manifest.column_names.size());
  AppendU64(&out, manifest.shards.size());
  for (const std::string& name : manifest.column_names) {
    AppendU32(&out, static_cast<uint32_t>(name.size()));
    out.append(name);
  }
  for (const ShardManifestEntry& entry : manifest.shards) {
    AppendU32(&out, static_cast<uint32_t>(entry.relative_path.size()));
    out.append(entry.relative_path);
    AppendU64(&out, entry.row_begin);
    AppendU64(&out, entry.row_count);
    AppendU64(&out, entry.seal_digest);
  }
  return out;
}

}  // namespace

uint64_t ComputeShardSealDigest(const ColumnStoreReader& reader) {
  // Little-endian u64s hashed as raw bytes: stable across hosts per the
  // little-endian requirement of the store format itself.
  std::vector<uint64_t> words;
  words.reserve(1 + reader.num_blocks());
  words.push_back(reader.header_hash());
  for (size_t block = 0; block < reader.num_blocks(); ++block) {
    words.push_back(reader.stored_block_hash(block));
  }
  return ColumnStoreHash(words.data(), words.size() * sizeof(uint64_t));
}

std::string ShardFileName(const std::string& stem, size_t shard_index) {
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), ".shard-%05zu", shard_index);
  return stem + suffix + ".rrcs";
}

std::string ShardStemForManifest(const std::string& manifest_path) {
  const size_t slash = manifest_path.find_last_of('/');
  std::string name =
      slash == std::string::npos ? manifest_path : manifest_path.substr(slash + 1);
  const std::string extension(kShardManifestExtension);
  if (name.size() > extension.size() &&
      name.compare(name.size() - extension.size(), extension.size(),
                   extension) == 0) {
    name.resize(name.size() - extension.size());
  }
  return name;
}

std::string ManifestDirectory(const std::string& manifest_path) {
  const size_t slash = manifest_path.find_last_of('/');
  return slash == std::string::npos ? std::string()
                                    : manifest_path.substr(0, slash + 1);
}

namespace {

/// The whole manifest file at `path`, each byte read once. When
/// `column_store` is given and the file starts with the column-store
/// magic, sets it and returns no bytes: a lone store is mapped by its own
/// reader, never read here.
Result<std::string> ReadManifestImage(const std::string& path,
                                      bool* column_store) {
  const std::string prefix = ManifestPrefix(path);
  std::ifstream file(path, std::ios::binary);
  if (!file.is_open()) {
    return Status::IoError(prefix + "cannot open");
  }
  file.seekg(0, std::ios::end);
  const std::streamoff signed_size = file.tellg();
  if (signed_size < 0) {
    return Status::IoError(prefix + "cannot determine file size");
  }
  const size_t size = static_cast<size_t>(signed_size);
  std::string buffer(std::min(size, sizeof(kColumnStoreMagic)), '\0');
  file.seekg(0);
  file.read(&buffer[0], static_cast<std::streamsize>(buffer.size()));
  if (column_store != nullptr &&
      buffer == std::string(kColumnStoreMagic, sizeof(kColumnStoreMagic))) {
    *column_store = true;
    return std::string();
  }
  if (size > kMaxManifestBytes) {
    return Status::InvalidArgument(
        prefix + "file is " + std::to_string(size) +
        " bytes, larger than the " + std::to_string(kMaxManifestBytes) +
        "-byte manifest limit — not a manifest");
  }
  if (size < kEntriesStartOffset + sizeof(uint64_t)) {
    return Status::InvalidArgument(
        prefix + "file is " + std::to_string(size) +
        " bytes, smaller than the minimum manifest");
  }
  const size_t head = buffer.size();
  buffer.resize(size);
  file.read(&buffer[head], static_cast<std::streamsize>(size - head));
  if (!file || static_cast<size_t>(file.gcount()) != size - head) {
    return Status::IoError(prefix + "short read");
  }
  return buffer;
}

/// Parses and validates the manifest image read from `path`.
Result<ShardManifest> ParseManifestImage(const std::string& path,
                                         const std::string& image) {
  const std::string prefix = ManifestPrefix(path);
  const size_t size = image.size();
  const uint8_t* bytes = reinterpret_cast<const uint8_t*>(image.data());

  if (std::memcmp(bytes, kShardManifestMagic, sizeof(kShardManifestMagic)) !=
      0) {
    return Status::InvalidArgument(
        prefix + "bad magic at offset 0 — not a shard manifest");
  }
  ShardManifest manifest;
  manifest.version = LoadU32(bytes + kVersionOffset);
  if (manifest.version == 0 || manifest.version > kShardManifestVersion) {
    return Status::InvalidArgument(
        prefix + "unsupported manifest version " +
        std::to_string(manifest.version) + " (this build reads versions 1.." +
        std::to_string(kShardManifestVersion) + ")");
  }
  (void)kReservedOffset;  // Reserved field: ignored in v1, hash-bound.
  manifest.num_records = LoadU64(bytes + kNumRecordsOffset);
  const uint64_t num_attributes = LoadU64(bytes + kNumAttributesOffset);
  const uint64_t num_shards = LoadU64(bytes + kNumShardsOffset);
  if (num_attributes == 0 || num_shards == 0) {
    return Status::InvalidArgument(
        prefix + "manifest declares num_attributes " +
        std::to_string(num_attributes) + ", num_shards " +
        std::to_string(num_shards) + " (both must be >= 1)");
  }
  // Bound counts against the file BEFORE reserving: both are unverified
  // until the trailing hash is checked, and a hostile count must fail as
  // a Status, not a bad_alloc.
  if (num_attributes > (size - kEntriesStartOffset) / sizeof(uint32_t)) {
    return Status::InvalidArgument(
        prefix + "manifest declares " + std::to_string(num_attributes) +
        " columns, more than its " + std::to_string(size) +
        " bytes could possibly name");
  }
  if (num_shards > size / kMinShardEntryBytes) {
    return Status::InvalidArgument(
        prefix + "manifest declares " + std::to_string(num_shards) +
        " shards, more than its " + std::to_string(size) +
        " bytes could possibly describe");
  }

  size_t offset = kEntriesStartOffset;
  auto need = [&](size_t bytes_needed, const std::string& what) -> Status {
    // The trailing 8-byte manifest hash must still fit after `what`.
    if (offset + bytes_needed + sizeof(uint64_t) > size) {
      return Status::InvalidArgument(prefix + what +
                                     " overruns the manifest at offset " +
                                     std::to_string(offset));
    }
    return Status::OK();
  };
  manifest.column_names.reserve(num_attributes);
  for (uint64_t j = 0; j < num_attributes; ++j) {
    const std::string what = "column name " + std::to_string(j);
    RR_RETURN_NOT_OK(need(sizeof(uint32_t), what));
    const uint32_t length = LoadU32(bytes + offset);
    offset += sizeof(uint32_t);
    RR_RETURN_NOT_OK(need(length, what));
    manifest.column_names.emplace_back(
        reinterpret_cast<const char*>(bytes + offset), length);
    offset += length;
  }
  manifest.shards.reserve(num_shards);
  for (uint64_t s = 0; s < num_shards; ++s) {
    const std::string what = "shard entry " + std::to_string(s);
    RR_RETURN_NOT_OK(need(sizeof(uint32_t), what));
    const uint32_t path_length = LoadU32(bytes + offset);
    offset += sizeof(uint32_t);
    RR_RETURN_NOT_OK(need(path_length + 3 * sizeof(uint64_t), what));
    ShardManifestEntry entry;
    entry.relative_path.assign(reinterpret_cast<const char*>(bytes + offset),
                               path_length);
    offset += path_length;
    entry.row_begin = LoadU64(bytes + offset);
    entry.row_count = LoadU64(bytes + offset + 8);
    entry.seal_digest = LoadU64(bytes + offset + 16);
    offset += 3 * sizeof(uint64_t);
    manifest.shards.push_back(std::move(entry));
  }

  const uint64_t stored_hash = LoadU64(bytes + offset);
  const uint64_t computed_hash = ColumnStoreHash(bytes, offset);
  if (stored_hash != computed_hash) {
    return Status::InvalidArgument(
        prefix + "manifest checksum mismatch over bytes [0, " +
        std::to_string(offset) + ") — stored " + HexU64(stored_hash) +
        ", computed " + HexU64(computed_hash));
  }
  if (offset + sizeof(uint64_t) != size) {
    return Status::InvalidArgument(
        prefix + "manifest is " + std::to_string(size) + " bytes but its " +
        std::to_string(num_shards) + " entries end at " +
        std::to_string(offset + sizeof(uint64_t)) +
        " — trailing bytes or truncated entry table");
  }
  manifest.manifest_hash = stored_hash;
  RR_RETURN_NOT_OK(ValidateManifestStructure(manifest, prefix));
  m_manifests_read.Add(1);
  return manifest;
}

}  // namespace

Result<ShardManifest> ReadShardManifest(const std::string& manifest_path) {
  RR_ASSIGN_OR_RETURN(const std::string image,
                      ReadManifestImage(manifest_path, nullptr));
  return ParseManifestImage(manifest_path, image);
}

Status WriteShardManifest(const ShardManifest& manifest,
                          const std::string& manifest_path) {
  const std::string prefix = ManifestPrefix(manifest_path);
  RR_RETURN_NOT_OK(ValidateManifestStructure(manifest, prefix));
  for (const std::string& name : manifest.column_names) {
    if (name.size() > UINT32_MAX) {
      return Status::InvalidArgument(prefix + "column name too long");
    }
  }
  for (const ShardManifestEntry& entry : manifest.shards) {
    if (entry.relative_path.size() > UINT32_MAX) {
      return Status::InvalidArgument(prefix + "shard path too long");
    }
  }
  std::string image = SerializeManifestPrefix(manifest);
  AppendU64(&image, ColumnStoreHash(image.data(), image.size()));
  // Write-temp → fsync → atomic-rename (docs/FORMAT.md §8): the manifest
  // path flips from absent/old to the complete new manifest in one
  // rename — readers never observe a torn manifest.
  RR_FAILPOINT(fp_manifest_write);
  PublishSeams seams;
  seams.before_fsync = &fp_manifest_fsync;
  seams.before_rename = &fp_manifest_rename;
  RR_RETURN_NOT_OK(WriteFileAtomic(manifest_path, image, seams));
  m_manifests_written.Add(1);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------------

ShardedStoreReader::ShardedStoreReader(ShardManifest manifest,
                                       const std::string& path,
                                       ColumnStoreReadOptions store_options)
    : manifest_(std::move(manifest)),
      manifest_path_(path),
      directory_(ManifestDirectory(path)),
      store_options_(store_options),
      shards_(manifest_.shards.size()),
      verified_(manifest_.shards.size(), false) {}

Result<ShardedStoreReader> ShardedStoreReader::Open(
    const std::string& path, ColumnStoreReadOptions store_options) {
  bool column_store = false;
  RR_ASSIGN_OR_RETURN(const std::string image,
                      ReadManifestImage(path, &column_store));
  if (!column_store) {
    RR_ASSIGN_OR_RETURN(ShardManifest manifest,
                        ParseManifestImage(path, image));
    return ShardedStoreReader(std::move(manifest), path, store_options);
  }
  // A lone column store is a one-shard store whose one entry is the file
  // itself, described by the file's own header.
  ShardManifest manifest;
  manifest.shards.resize(1);
  manifest.shards[0].relative_path = path.substr(ManifestDirectory(path).size());
  ShardedStoreReader reader(std::move(manifest), path, store_options);
  RR_ASSIGN_OR_RETURN(ColumnStoreReader store, reader.MapShard(0));
  ShardManifestEntry& entry = reader.manifest_.shards[0];
  entry.row_count = store.num_records();
  entry.seal_digest = ComputeShardSealDigest(store);
  reader.manifest_.num_records = store.num_records();
  reader.manifest_.column_names = store.attribute_names();
  reader.shards_[0] =
      std::make_unique<const ColumnStoreReader>(std::move(store));
  return reader;
}

ShardedStoreReader ShardedStoreReader::ShardView(
    const ShardManifest& manifest, const std::string& manifest_path,
    size_t shard, ColumnStoreReadOptions store_options) {
  RR_CHECK(shard < manifest.shards.size())
      << "ShardedStoreReader::ShardView: shard out of range";
  ShardManifest view;
  view.version = manifest.version;
  view.column_names = manifest.column_names;
  view.shards.push_back(manifest.shards[shard]);
  view.shards[0].row_begin = 0;
  view.num_records = view.shards[0].row_count;
  ShardedStoreReader reader(std::move(view), manifest_path, store_options);
  reader.first_shard_ = shard;
  return reader;
}

std::string ShardedStoreReader::shard_path(size_t shard) const {
  RR_CHECK(shard < manifest_.shards.size())
      << "ShardedStoreReader: shard out of range";
  return directory_ + manifest_.shards[shard].relative_path;
}

std::string ShardedStoreReader::ShardPrefix(size_t shard) const {
  if (shard_path(shard) == manifest_path_) return "";  // A lone store.
  return "sharded store '" + manifest_path_ + "': shard " +
         std::to_string(first_shard_ + shard) + " ('" +
         manifest_.shards[shard].relative_path + "'): ";
}

Result<ColumnStoreReader> ShardedStoreReader::MapShard(size_t shard) const {
  Result<ColumnStoreReader> opened = ColumnStoreReader::Open(shard_path(shard));
  if (!opened.ok()) {
    // Missing file (IoError) and structural corruption (InvalidArgument,
    // e.g. truncation) keep their codes; the shard is named either way.
    return Status(opened.status().code(),
                  ShardPrefix(shard) + opened.status().message());
  }
  return opened;
}

Result<const ColumnStoreReader*> ShardedStoreReader::shard(size_t shard) {
  RR_CHECK(shard < shards_.size()) << "ShardedStoreReader: shard out of range";
  if (shards_[shard] != nullptr) {
    m_shard_open_hits.Add(1);
    return shards_[shard].get();
  }
  const ShardManifestEntry& entry = manifest_.shards[shard];
  RR_ASSIGN_OR_RETURN(ColumnStoreReader reader, MapShard(shard));
  if (reader.attribute_names() != manifest_.column_names) {
    return Status::InvalidArgument(
        ShardPrefix(shard) +
        "column schema mismatch between the manifest and the shard header (" +
        std::to_string(manifest_.column_names.size()) + " vs " +
        std::to_string(reader.num_attributes()) +
        " columns, or differing names)");
  }
  if (reader.num_records() != entry.row_count) {
    return Status::InvalidArgument(
        ShardPrefix(shard) + "holds " + std::to_string(reader.num_records()) +
        " records but the manifest assigns it rows [" +
        std::to_string(entry.row_begin) + ", " +
        std::to_string(entry.row_begin + entry.row_count) +
        ") — stale manifest or wrong shard file");
  }
  const uint64_t digest = ComputeShardSealDigest(reader);
  if (digest != entry.seal_digest) {
    return Status::InvalidArgument(
        ShardPrefix(shard) + "seal digest mismatch — manifest has " +
        HexU64(entry.seal_digest) + ", shard content digests to " +
        HexU64(digest) +
        " (shard files swapped, or the shard was resealed after the manifest "
        "was written)");
  }
  shards_[shard] =
      std::make_unique<const ColumnStoreReader>(std::move(reader));
  m_shards_opened.Add(1);
  return shards_[shard].get();
}

Result<const ColumnStoreReader*> ShardedStoreReader::VerifiedShard(
    size_t shard) {
  RR_ASSIGN_OR_RETURN(const ColumnStoreReader* reader, this->shard(shard));
  if (verified_[shard]) return reader;
  const Status verified = reader->VerifyBlocks(store_options_.parallel);
  if (!verified.ok()) {
    return Status(verified.code(), ShardPrefix(shard) + verified.message());
  }
  verified_[shard] = true;
  return reader;
}

Status ShardedStoreReader::ReadRows(size_t row_begin, size_t num_rows,
                                    linalg::Matrix* buffer) {
  const size_t m = manifest_.column_names.size();
  RR_CHECK_EQ(buffer->cols(), m) << "ShardedStoreReader: buffer width mismatch";
  RR_CHECK(num_rows <= buffer->rows())
      << "ShardedStoreReader: num_rows exceeds buffer";
  if (row_begin + num_rows > manifest_.num_records ||
      row_begin + num_rows < row_begin) {
    return Status::InvalidArgument(
        "sharded store '" + manifest_path_ + "': row range [" +
        std::to_string(row_begin) + ", " + std::to_string(row_begin + num_rows) +
        ") exceeds the " + std::to_string(manifest_.num_records) +
        "-record store");
  }
  if (num_rows == 0) return Status::OK();
  // Locate the first spanned shard: the last entry starting at or before
  // row_begin (spans are contiguous and sorted by construction).
  size_t shard_index =
      static_cast<size_t>(
          std::upper_bound(manifest_.shards.begin(), manifest_.shards.end(),
                           static_cast<uint64_t>(row_begin),
                           [](uint64_t row, const ShardManifestEntry& entry) {
                             return row < entry.row_begin;
                           }) -
          manifest_.shards.begin()) -
      1;
  // Serial, in record order: take each spanned shard verified (opened,
  // checked and, on its first read, every block verified block-parallel)
  // and cut the range into (shard, block) pieces. So the lowest failing
  // shard, and within it the lowest failing block, is the error for any
  // thread count.
  struct Piece {
    size_t local;    ///< First row inside the block.
    size_t take;     ///< Rows copied from the block.
    size_t out_row;  ///< Where they land in `buffer`.
  };
  std::vector<Piece> pieces;
  std::vector<const double*> columns;  ///< Piece i's m columns at [i * m).
  size_t out_row = 0;
  while (out_row < num_rows) {
    const ShardManifestEntry& entry = manifest_.shards[shard_index];
    const size_t local = row_begin + out_row - entry.row_begin;
    const size_t take = std::min(static_cast<size_t>(entry.row_count) - local,
                                 num_rows - out_row);
    if (take == 0) {  // An empty shard contributes nothing; skip it.
      ++shard_index;
      continue;
    }
    RR_ASSIGN_OR_RETURN(const ColumnStoreReader* reader,
                        VerifiedShard(shard_index));
    const size_t block_rows = reader->block_rows();
    const size_t block_begin = local / block_rows;
    const size_t block_end = (local + take - 1) / block_rows + 1;
    for (size_t block = block_begin; block < block_end; ++block) {
      const size_t first = std::max(local, block * block_rows);
      const size_t last = std::min(local + take, (block + 1) * block_rows);
      pieces.push_back({first - block * block_rows, last - first,
                        out_row + first - local});
      for (size_t j = 0; j < m; ++j) {
        columns.push_back(reader->BlockColumn(block, j));
      }
    }
    out_row += take;
    if (local + take == entry.row_count) ++shard_index;
  }
  // One parallel loop over the pieces: each copies its block's rows into
  // a disjoint slice of `buffer`, and a copy preserves values, so the
  // filled bytes do not depend on the thread count or on the split.
  ParallelForEach(
      0, pieces.size(),
      [&](size_t i) {
        const Piece& piece = pieces[i];
        linalg::kernels::ColumnsToRows(columns.data() + i * m, piece.local,
                                       piece.take, m, /*offset=*/nullptr,
                                       buffer->row_data(piece.out_row), m);
      },
      store_options_.parallel);
  m_rows_read.Add(num_rows);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Dataset convenience + cleanup.
// ---------------------------------------------------------------------------

Result<Dataset> ReadShardedStoreDataset(const std::string& path) {
  RR_ASSIGN_OR_RETURN(ShardedStoreReader reader,
                      ShardedStoreReader::Open(path));
  // Validate every shard BEFORE sizing the n x m buffer: the manifest's
  // record count is attacker-controlled until each shard's header (and
  // its header-vs-file-size cross-check) confirms it, and materializing
  // the table from a hostile count must fail as a Status, not OOM. The
  // opens are not wasted — every shard is about to be read anyway.
  for (size_t s = 0; s < reader.num_shards(); ++s) {
    RR_RETURN_NOT_OK(reader.shard(s).status());
  }
  linalg::Matrix records(reader.num_records(), reader.num_attributes());
  RR_RETURN_NOT_OK(reader.ReadRows(0, reader.num_records(), &records));
  return Dataset::Create(std::move(records), reader.attribute_names());
}

Status RemoveShardedStoreFiles(const std::string& manifest_path) {
  // Every removal funnels through here: ENOENT is "nothing to do", any
  // other failure is recorded so the caller learns exactly which files
  // survived the sweep. Returns true iff the file existed.
  std::vector<std::string> failed;
  auto remove_file = [&failed](const std::string& path) {
    if (std::remove(path.c_str()) == 0) return true;
    if (errno != ENOENT) failed.push_back(path);
    return false;
  };
  // A shard index may be present as the sealed file, an orphan temp from
  // a crashed writer, a quarantined file from a recovery pass — or any
  // mix. Sweep all three spellings.
  auto remove_shard_variants = [&](const std::string& shard_path) {
    bool any = false;
    any |= remove_file(shard_path);
    any |= remove_file(TempPathFor(shard_path));
    any |= remove_file(shard_path + kQuarantineFileSuffix);
    return any;
  };
  // Shards the manifest names (when it parses) ...
  Result<ShardManifest> manifest = ReadShardManifest(manifest_path);
  const std::string directory = ManifestDirectory(manifest_path);
  if (manifest.ok()) {
    for (const ShardManifestEntry& entry : manifest.value().shards) {
      remove_shard_variants(directory + entry.relative_path);
    }
  }
  // ... plus conventionally-named shards from a write that never reached
  // its manifest (counting up until the first index with no file under
  // any spelling) ...
  const std::string stem = ShardStemForManifest(manifest_path);
  for (size_t index = 0;; ++index) {
    if (!remove_shard_variants(directory + ShardFileName(stem, index))) break;
  }
  // ... and the manifest itself, plus its own orphan temp.
  remove_file(manifest_path);
  remove_file(TempPathFor(manifest_path));
  if (!failed.empty()) {
    std::string message = ManifestPrefix(manifest_path) +
                          "cleanup could not remove: " + failed[0];
    for (size_t i = 1; i < failed.size(); ++i) message += ", " + failed[i];
    return Status::IoError(std::move(message));
  }
  return Status::OK();
}

}  // namespace data
}  // namespace randrecon
