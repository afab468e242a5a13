#include "data/store_recovery.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <set>
#include <utility>

#include "common/file_io.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "data/shard_store.h"

namespace randrecon {
namespace data {
namespace {

// Recovery telemetry (common/metrics.h): every sweep/quarantine decision
// leaves a countable trace, so a degraded sweep's report can account for
// what recovery touched without re-parsing its log lines.
metrics::Counter m_recovery_runs("recovery.runs");
metrics::Counter m_recovery_orphans_removed("recovery.orphans_removed");
metrics::Counter m_recovery_shards_quarantined("recovery.shards_quarantined");
metrics::Counter m_recovery_manifests_rebuilt("recovery.manifests_rebuilt");
metrics::Counter m_recovery_stores_empty("recovery.stores_empty");

std::string RecoveryPrefix(const std::string& manifest_path) {
  return "recover sharded store '" + manifest_path + "': ";
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

/// Removes `path` if it exists, recording it in the report. IoError on
/// any failure other than the file already being gone.
Status RemoveIfPresent(const std::string& path, const std::string& prefix,
                       StoreRecoveryReport* report) {
  if (std::remove(path.c_str()) == 0) {
    report->removed_files.push_back(path);
    m_recovery_orphans_removed.Add(1);
    return Status::OK();
  }
  if (errno == ENOENT) return Status::OK();
  return Status::IoError(prefix + "cannot remove '" + path +
                         "': " + std::strerror(errno));
}

/// Renames `path` aside to "<path>.quarantined" (overwriting any earlier
/// quarantine of the same shard) and records the destination.
Status Quarantine(const std::string& path, const std::string& prefix,
                  StoreRecoveryReport* report) {
  const std::string destination = path + kQuarantineFileSuffix;
  const Status renamed = AtomicRename(path, destination);
  if (!renamed.ok()) {
    return Status::IoError(prefix + "cannot quarantine: " + renamed.message());
  }
  // The rename happened: record it even if making it durable fails.
  report->quarantined_files.push_back(destination);
  m_recovery_shards_quarantined.Add(1);
  RR_LOG(kWarning) << "recovery quarantined '" << path << "' -> '"
                   << destination << "'";
  // Durable before the caller rebuilds the manifest: a reverted rename
  // would put the damaged shard back under its conventional name.
  return FsyncParentDirectory(destination);
}

/// True iff every shard the manifest names verifies bitwise against it:
/// the file passes the reader's check against its entry (schema, row
/// count, seal digest) and every block checksum passes — what any read
/// of the shard checks (ShardedStoreReader::VerifiedShard).
bool ManifestStoreIsValid(const ShardManifest& manifest,
                          const std::string& manifest_path,
                          const ColumnStoreReadOptions& options) {
  for (size_t s = 0; s < manifest.shards.size(); ++s) {
    ShardedStoreReader view =
        ShardedStoreReader::ShardView(manifest, manifest_path, s, options);
    if (!view.VerifiedShard(0).ok()) return false;
  }
  return true;
}

}  // namespace

Result<StoreRecoveryReport> RecoverShardedStore(
    const std::string& manifest_path, StoreRecoveryOptions options) {
  trace::TraceSpan recovery_span("recovery.run");
  m_recovery_runs.Add(1);
  const std::string prefix = RecoveryPrefix(manifest_path);
  const std::string directory = ManifestDirectory(manifest_path);
  const std::string stem = ShardStemForManifest(manifest_path);

  StoreRecoveryReport report;

  // Enumerate the shard index space: an index is occupied if any
  // spelling of its file (sealed, temp, quarantined) exists. Conventional
  // shard numbering is dense from 0, so the first fully-absent index ends
  // the scan.
  size_t num_indexes = 0;
  while (true) {
    const std::string shard_path =
        directory + ShardFileName(stem, num_indexes);
    if (!FileExists(shard_path) && !FileExists(TempPathFor(shard_path)) &&
        !FileExists(shard_path + kQuarantineFileSuffix)) {
      break;
    }
    ++num_indexes;
  }

  // Step 1: sweep orphan temps. A ".tmp" is never the only copy of
  // sealed data — the rename in docs/FORMAT.md §8 is the seal's commit
  // point — so removal can only discard bytes the writer never promised.
  RR_RETURN_NOT_OK(
      RemoveIfPresent(TempPathFor(manifest_path), prefix, &report));
  for (size_t index = 0; index < num_indexes; ++index) {
    RR_RETURN_NOT_OK(RemoveIfPresent(
        TempPathFor(directory + ShardFileName(stem, index)), prefix, &report));
  }

  // Step 2: if the manifest on disk already describes a fully-verified
  // store, keep it untouched — quarantining only conventional sealed
  // shards it does not name (strays from an interrupted rewrite).
  Result<ShardManifest> existing = ReadShardManifest(manifest_path);
  if (existing.ok() &&
      ManifestStoreIsValid(existing.value(), manifest_path,
                           options.store_options)) {
    std::set<std::string> named;
    for (const ShardManifestEntry& entry : existing.value().shards) {
      named.insert(entry.relative_path);
    }
    for (size_t index = 0; index < num_indexes; ++index) {
      const std::string relative = ShardFileName(stem, index);
      if (named.count(relative) != 0) continue;
      const std::string shard_path = directory + relative;
      if (!FileExists(shard_path)) continue;
      RR_RETURN_NOT_OK(Quarantine(shard_path, prefix, &report));
    }
    report.recovered_shards = existing.value().shards.size();
    report.recovered_records = existing.value().num_records;
    return report;
  }

  // Step 3: rebuild. The recovered store is the maximal contiguous
  // prefix of sealed, schema-consistent, fully-verified conventional
  // shards from index 0; everything sealed beyond (or inside a hole in)
  // that prefix is quarantined, never deleted — it may still hold data
  // worth forensics, it just cannot be proven part of this stream.
  std::vector<std::string> column_names;
  std::vector<ShardManifestEntry> entries;
  uint64_t total_records = 0;
  bool prefix_open = true;
  for (size_t index = 0; index < num_indexes; ++index) {
    const std::string shard_path = directory + ShardFileName(stem, index);
    if (prefix_open && FileExists(shard_path)) {
      // No entry to check this file against: it must open and every
      // block checksum must pass.
      Result<ColumnStoreReader> probe = ColumnStoreReader::Open(shard_path);
      if (probe.ok()) {
        ColumnStoreReader reader = std::move(probe).value();
        if (reader.VerifyBlocks(options.store_options.parallel).ok() &&
            reader.num_records() > 0 &&
            (entries.empty() || reader.attribute_names() == column_names)) {
          if (entries.empty()) column_names = reader.attribute_names();
          ShardManifestEntry entry;
          entry.relative_path = ShardFileName(stem, index);
          entry.row_begin = total_records;
          entry.row_count = reader.num_records();
          entry.seal_digest = ComputeShardSealDigest(reader);
          total_records += entry.row_count;
          entries.push_back(std::move(entry));
          continue;
        }
      }
    }
    prefix_open = false;
    if (FileExists(shard_path)) {
      RR_RETURN_NOT_OK(Quarantine(shard_path, prefix, &report));
    }
  }

  // Step 4: commit. An empty prefix means nothing sealed survived —
  // remove any stale manifest so the path provably holds no store.
  if (entries.empty()) {
    RR_RETURN_NOT_OK(RemoveIfPresent(manifest_path, prefix, &report));
    report.store_empty = true;
    m_recovery_stores_empty.Add(1);
    return report;
  }
  ShardManifest rebuilt;
  rebuilt.num_records = total_records;
  rebuilt.column_names = std::move(column_names);
  rebuilt.shards = std::move(entries);
  RR_RETURN_NOT_OK(WriteShardManifest(rebuilt, manifest_path));
  report.recovered_shards = rebuilt.shards.size();
  report.recovered_records = rebuilt.num_records;
  report.manifest_rebuilt = true;
  m_recovery_manifests_rebuilt.Add(1);
  return report;
}

}  // namespace data
}  // namespace randrecon
