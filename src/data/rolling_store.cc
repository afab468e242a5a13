#include "data/rolling_store.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <utility>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/file_io.h"
#include "common/logging.h"
#include "common/metrics.h"

namespace randrecon {
namespace data {
namespace {

std::string RollingPrefix(const std::string& path) {
  return "rolling store '" + path + "': ";
}

// The writer's seams (common/failpoint.h), one per step. The shard
// file's own store.* failpoints (column_store.cc) and the shared
// manifest.* failpoints (shard_store.cc) fire underneath these.
Failpoint fp_roll_write("roll.write");      ///< Before rows hit a shard.
Failpoint fp_roll_seal("roll.seal");        ///< Before sealing the open shard.
Failpoint fp_roll_publish("roll.publish");  ///< Before the manifest publish.
Failpoint fp_roll_retire("roll.retire");    ///< Before each retired unlink.

// Writer telemetry (common/metrics.h). These live in the data layer
// but carry the ingest.* prefix: they are the rotation half of the
// continuous-ingest accounting tools/check_report.py validates, and
// splitting the namespace would force every report consumer to know
// the layering. A batch conversion ticks them too.
metrics::Counter m_rotations("ingest.rotations");
metrics::Counter m_publishes("ingest.manifest_publishes");
metrics::Counter m_retired("ingest.shards_retired");
metrics::Counter m_snapshots_opened("ingest.snapshots_opened");
metrics::Gauge g_published_shards("ingest.published_shards");
metrics::Gauge g_published_rows("ingest.published_rows");

}  // namespace

// ---------------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------------

RollingShardedStoreWriter::RollingShardedStoreWriter(
    std::string manifest_path, std::string directory, std::string stem,
    std::vector<std::string> names, RollingStoreOptions options)
    : manifest_path_(std::move(manifest_path)),
      directory_(std::move(directory)),
      stem_(std::move(stem)),
      names_(std::move(names)),
      options_(options) {}

RollingShardedStoreWriter::RollingShardedStoreWriter(
    RollingShardedStoreWriter&& other) noexcept
    : manifest_path_(std::move(other.manifest_path_)),
      directory_(std::move(other.directory_)),
      stem_(std::move(other.stem_)),
      names_(std::move(other.names_)),
      options_(other.options_),
      entries_(std::move(other.entries_)),
      entry_rows_(std::move(other.entry_rows_)),
      current_(std::move(other.current_)),
      current_rows_(other.current_rows_),
      next_shard_index_(other.next_shard_index_),
      pending_retire_(std::move(other.pending_retire_)),
      rows_written_(other.rows_written_),
      published_rows_(other.published_rows_),
      published_shards_(other.published_shards_),
      publishes_(other.publishes_),
      deferred_error_(std::move(other.deferred_error_)),
      closed_(other.closed_) {
  other.closed_ = true;  // The hollowed-out source must not try to close.
}

Result<RollingShardedStoreWriter> RollingShardedStoreWriter::Create(
    const std::string& manifest_path, std::vector<std::string> column_names,
    RollingStoreOptions options) {
  const std::string prefix = RollingPrefix(manifest_path);
  if (options.shard_rows == 0) {
    return Status::InvalidArgument(prefix + "shard_rows must be >= 1");
  }
  if (options.block_rows == 0) {
    return Status::InvalidArgument(prefix + "block_rows must be >= 1");
  }
  if (column_names.empty()) {
    return Status::InvalidArgument(prefix + "store needs >= 1 column");
  }
  for (size_t i = 0; i < column_names.size(); ++i) {
    if (column_names[i].empty()) {
      return Status::InvalidArgument(prefix + "column names must be non-empty");
    }
    for (size_t j = i + 1; j < column_names.size(); ++j) {
      if (column_names[i] == column_names[j]) {
        return Status::InvalidArgument(prefix + "duplicate column name '" +
                                       column_names[i] + "'");
      }
    }
  }
  // No shard is created here: Create leaves NO files behind, which
  // keeps "a writer that wrote nothing recovers to no store" exact for
  // the crash-torture matrices.
  return RollingShardedStoreWriter(
      manifest_path, ManifestDirectory(manifest_path),
      ShardStemForManifest(manifest_path), std::move(column_names), options);
}

RollingShardedStoreWriter::~RollingShardedStoreWriter() {
  if (!closed_) Close();  // Best-effort; errors surface via explicit Close().
}

std::string RollingShardedStoreWriter::OpenShardPrefix() const {
  const size_t index = next_shard_index_ - 1;
  return RollingPrefix(manifest_path_) + "shard " + std::to_string(index) +
         " ('" + ShardFileName(stem_, index) + "'): ";
}

Status RollingShardedStoreWriter::StartShard() {
  ColumnStoreOptions store_options;
  store_options.block_rows = options_.block_rows;
  Result<ColumnStoreWriter> created = ColumnStoreWriter::Create(
      directory_ + ShardFileName(stem_, next_shard_index_), names_,
      store_options);
  ++next_shard_index_;
  if (!created.ok()) {
    return Status(created.status().code(),
                  OpenShardPrefix() + created.status().message());
  }
  current_ = std::make_unique<ColumnStoreWriter>(std::move(created).value());
  current_rows_ = 0;
  return Status::OK();
}

Status RollingShardedStoreWriter::SealCurrentShard() {
  const std::string relative_path = ShardFileName(stem_, next_shard_index_ - 1);
  // Sticky: a shard that failed to seal lost data — no later publish
  // may describe this writer's output as complete.
  auto fail = [&](const Status& status) {
    deferred_error_ =
        Status(status.code(), OpenShardPrefix() + status.message());
    return deferred_error_;
  };
  const Status sealed = [&]() -> Status {
    RR_FAILPOINT(fp_roll_seal);
    return current_->Close();
  }();
  if (!sealed.ok()) return fail(sealed);
  // Re-open the sealed file to digest its header + block hashes; this
  // also proves the bytes on disk parse as a valid store.
  Result<ColumnStoreReader> reader =
      ColumnStoreReader::Open(directory_ + relative_path);
  if (!reader.ok()) return fail(reader.status());
  ShardManifestEntry entry;
  entry.relative_path = relative_path;
  entry.seal_digest = ComputeShardSealDigest(reader.value());
  entries_.push_back(std::move(entry));
  entry_rows_.push_back(current_rows_);
  current_.reset();
  current_rows_ = 0;
  m_rotations.Add(1);
  return Status::OK();
}

size_t RollingShardedStoreWriter::RetireCount() const {
  size_t retire = 0;
  uint64_t remaining_rows = 0;
  for (uint64_t rows : entry_rows_) remaining_rows += rows;
  // Retire oldest-first while a bound says the suffix alone satisfies
  // the policy. At least one shard always survives.
  while (retire + 1 < entries_.size()) {
    const bool too_many_shards = options_.retain_shards > 0 &&
                                 entries_.size() - retire >
                                     options_.retain_shards;
    const bool rows_to_spare =
        options_.retain_rows > 0 &&
        remaining_rows - entry_rows_[retire] >= options_.retain_rows;
    if (!too_many_shards && !rows_to_spare) break;
    remaining_rows -= entry_rows_[retire];
    ++retire;
  }
  return retire;
}

Status RollingShardedStoreWriter::Publish() {
  if (closed_) {
    return Status::FailedPrecondition(RollingPrefix(manifest_path_) +
                                      "Publish after Close");
  }
  if (!deferred_error_.ok()) return deferred_error_;
  // A successful publish leaves exactly the published entries behind,
  // and only a seal adds one: equal sizes mean nothing new to publish.
  if (entries_.size() == published_shards_) return Status::OK();
  const size_t retire = RetireCount();
  // Build the manifest over the retained suffix, renumbering row spans
  // from 0 (manifest v1 spans must tile [0, num_records)).
  ShardManifest manifest;
  manifest.column_names = names_;
  uint64_t row_begin = 0;
  for (size_t s = retire; s < entries_.size(); ++s) {
    ShardManifestEntry entry = entries_[s];
    entry.row_begin = row_begin;
    entry.row_count = entry_rows_[s];
    row_begin += entry_rows_[s];
    manifest.shards.push_back(std::move(entry));
  }
  manifest.num_records = row_begin;
  Status published = [&]() -> Status {
    RR_FAILPOINT(fp_roll_publish);
    return WriteShardManifest(manifest, manifest_path_);
  }();
  // NOT sticky: the manifest on disk is still the previous good one and
  // every sealed shard is still queued — the next publish simply
  // writes the longer list.
  RR_RETURN_NOT_OK(published);
  publishes_ += 1;
  published_rows_ = manifest.num_records;
  published_shards_ = manifest.shards.size();
  m_publishes.Add(1);
  g_published_shards.Set(static_cast<int64_t>(published_shards_));
  g_published_rows.Set(static_cast<int64_t>(published_rows_));
  // Retention commits only AFTER the publish that stopped naming the
  // retired shards succeeded: a crash anywhere here leaves an
  // unreferenced sealed file, never a manifest naming a missing one.
  for (size_t s = 0; s < retire; ++s) {
    pending_retire_.push_back(directory_ + entries_[s].relative_path);
  }
  entries_.erase(entries_.begin(),
                 entries_.begin() + static_cast<ptrdiff_t>(retire));
  entry_rows_.erase(entry_rows_.begin(),
                    entry_rows_.begin() + static_cast<ptrdiff_t>(retire));
  // Deletion is transient-retryable: a path that fails to unlink stays
  // queued for the next publish instead of leaking silently.
  std::vector<std::string> still_pending;
  for (const std::string& path : pending_retire_) {
    const Status retired = [&]() -> Status {
      RR_FAILPOINT(fp_roll_retire);
      if (std::remove(path.c_str()) != 0 && errno != ENOENT) {
        return Status::IoError(RollingPrefix(manifest_path_) +
                               "could not remove retired shard '" + path +
                               "'");
      }
      return Status::OK();
    }();
    if (retired.ok()) {
      m_retired.Add(1);
      continue;
    }
    RR_LOG(kWarning) << retired.message() << " — will retry next publish";
    still_pending.push_back(path);
  }
  pending_retire_ = std::move(still_pending);
  return Status::OK();
}

Status RollingShardedStoreWriter::Rotate() {
  if (closed_) {
    return Status::FailedPrecondition(RollingPrefix(manifest_path_) +
                                      "Rotate after Close");
  }
  if (!deferred_error_.ok()) return deferred_error_;
  if (current_ != nullptr && current_rows_ > 0) {
    RR_RETURN_NOT_OK(SealCurrentShard());
  }
  return Publish();
}

Status RollingShardedStoreWriter::WriteRows(const double* rows,
                                            size_t num_rows) {
  const size_t m = names_.size();
  if (next_shard_index_ == 0) RR_RETURN_NOT_OK(StartShard());
  size_t consumed = 0;
  while (consumed < num_rows) {
    if (current_ == nullptr) RR_RETURN_NOT_OK(StartShard());
    const size_t take =
        std::min(options_.shard_rows - current_rows_, num_rows - consumed);
    RR_FAILPOINT(fp_roll_write);
    RR_RETURN_NOT_OK(current_->Append(rows + consumed * m, take));
    current_rows_ += take;
    rows_written_ += take;
    consumed += take;
    if (current_rows_ == options_.shard_rows) {
      RR_RETURN_NOT_OK(SealCurrentShard());
    }
  }
  return Status::OK();
}

Status RollingShardedStoreWriter::Append(const linalg::Matrix& chunk,
                                         size_t num_rows) {
  if (closed_) {
    return Status::FailedPrecondition(RollingPrefix(manifest_path_) +
                                      "Append after Close");
  }
  if (!deferred_error_.ok()) return deferred_error_;
  if (chunk.cols() != names_.size()) {
    return Status::InvalidArgument(
        RollingPrefix(manifest_path_) + "chunk has " +
        std::to_string(chunk.cols()) + " columns, store has " +
        std::to_string(names_.size()));
  }
  RR_CHECK(num_rows <= chunk.rows())
      << "RollingShardedStoreWriter::Append: num_rows exceeds chunk";
  const Status written = WriteRows(chunk.data(), num_rows);
  // Sticky: rows were lost, so nothing more may be published.
  if (!written.ok()) deferred_error_ = written;
  return written;
}

Status RollingShardedStoreWriter::Close() {
  if (closed_) return deferred_error_;
  // The open shard holds rows, or is a zero-row write's shard 0 — a
  // readable empty store. Shards open only to take rows otherwise.
  Status closed = deferred_error_;
  if (closed.ok() && current_ != nullptr) closed = SealCurrentShard();
  if (closed.ok()) closed = Publish();
  if (closed.ok() && published_shards_ > 0) {
    // Best-effort removal of stale conventionally-named shards from a
    // previous, longer write at the same stem: a leftover
    // "<stem>.shard-00007.rrcs" next to a 2-shard manifest would read
    // as a plausible standalone store.
    for (size_t index = next_shard_index_;; ++index) {
      if (std::remove((directory_ + ShardFileName(stem_, index)).c_str()) !=
          0) {
        break;
      }
    }
  }
  if (current_ != nullptr) {
    // A sticky failure left an open shard that lost rows: it must never
    // reach its final name (its best-effort seal is undone at once).
    const std::string path =
        directory_ + ShardFileName(stem_, next_shard_index_ - 1);
    current_.reset();
    std::remove(path.c_str());
    std::remove(TempPathFor(path).c_str());
  }
  closed_ = true;
  return closed;
}

std::vector<std::string> RollingShardedStoreWriter::output_paths() const {
  std::vector<std::string> paths;
  paths.reserve(next_shard_index_ + 1);
  for (size_t index = 0; index < next_shard_index_; ++index) {
    paths.push_back(directory_ + ShardFileName(stem_, index));
  }
  paths.push_back(manifest_path_);
  return paths;
}

Status WriteShardedStore(const Dataset& dataset,
                         const std::string& manifest_path,
                         const RollingStoreOptions& options) {
  RR_ASSIGN_OR_RETURN(RollingShardedStoreWriter writer,
                      RollingShardedStoreWriter::Create(
                          manifest_path, dataset.attribute_names(), options));
  RR_RETURN_NOT_OK(writer.Append(dataset.records(), dataset.num_records()));
  return writer.Close();
}

// ---------------------------------------------------------------------------
// Snapshot reader.
// ---------------------------------------------------------------------------

Result<RollingStoreSnapshotReader> RollingStoreSnapshotReader::Open(
    const std::string& manifest_path, ColumnStoreReadOptions store_options) {
  RR_ASSIGN_OR_RETURN(ShardedStoreReader reader,
                      ShardedStoreReader::Open(manifest_path, store_options));
  return Pin(std::move(reader), manifest_path);
}

Result<RollingStoreSnapshotReader> RollingStoreSnapshotReader::Pin(
    ShardedStoreReader reader, const std::string& manifest_path) {
  // Pin: open + validate every shard NOW. From here the snapshot can
  // never fail on a shard open — retention may unlink files under us,
  // but the mmaps hold the sealed bytes until this reader dies.
  for (size_t s = 0; s < reader.num_shards(); ++s) {
    Result<const ColumnStoreReader*> shard = reader.shard(s);
    if (!shard.ok()) {
      // A shard the manifest names but the pin cannot validate has two
      // causes with opposite semantics: real damage (propagate), or the
      // parse→pin window raced a concurrent writer's republish and
      // retention already removed the shard. Re-reading the manifest
      // tells them apart — a republish changed its trailing hash, and
      // the failure is then transient by protocol (reopening observes
      // the newer snapshot), so it surfaces as the retryable-transient
      // code instead of the shard's own IoError.
      auto current = ReadShardManifest(manifest_path);
      if (current.ok() &&
          current.value().manifest_hash != reader.manifest().manifest_hash) {
        return Status::Unavailable(
            RollingPrefix(manifest_path) +
            "snapshot raced a manifest republish: shard " +
            std::to_string(s) + " ('" +
            reader.manifest().shards[s].relative_path +
            "') was retired before it could be pinned (" +
            shard.status().message() +
            ") — retrying opens the newer snapshot");
      }
      return shard.status();
    }
  }
  m_snapshots_opened.Add(1);
  return RollingStoreSnapshotReader(std::move(reader));
}

}  // namespace data
}  // namespace randrecon
