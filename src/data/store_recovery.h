// Crash recovery for sharded stores: turn whatever a crashed or
// interrupted writer left on disk back into a valid store (or a
// provably empty one).
//
// The write protocol (docs/FORMAT.md §8) guarantees that a crash at any
// instant leaves one of a small set of on-disk states: orphan ".tmp"
// files (bytes still streaming, or sealed but not yet renamed), sealed
// shards with no manifest (crash between the last seal and the manifest
// rename), a stale manifest next to newer conventional shards, or a
// complete valid store. RecoverShardedStore walks that state space:
//
//   1. Orphan temp files (shard and manifest ".tmp") are removed — by
//      protocol a temp is never the only copy of sealed data.
//   2. If the existing manifest parses and EVERY shard it names
//      verifies bitwise (ShardedStoreReader::VerifiedShard: the check
//      against its entry, seal digest included, plus every block
//      checksum), the store is already valid and is left untouched.
//   3. Otherwise the manifest is rebuilt from the conventional shard
//      files ("<stem>.shard-NNNNN.rrcs"): the maximal contiguous prefix
//      of sealed, schema-consistent, fully-verified shards starting at
//      index 0 becomes the store; every sealed file beyond or inside a
//      hole in that prefix is quarantined (renamed to
//      "<shard>.quarantined") rather than deleted, and a fresh manifest
//      is written over the prefix through the same atomic protocol.
//   4. An empty prefix means nothing sealed survived: any stale
//      manifest is removed and the report says store_empty.
//
// Recovery is idempotent — running it over an already-recovered store
// changes nothing and reports zero removed/quarantined files — and
// crash-safe in itself, because the only mutation that changes the
// store's meaning (the manifest write) is atomic.

#ifndef RANDRECON_DATA_STORE_RECOVERY_H_
#define RANDRECON_DATA_STORE_RECOVERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/shard_store.h"

namespace randrecon {
namespace data {

/// Recovery knobs.
struct StoreRecoveryOptions {
  /// Applied to every shard probe. Every probe verifies every block
  /// checksum — a shard joins the recovered prefix only after they all
  /// pass, so the recovered store is bitwise-trustworthy, not just
  /// plausible-looking.
  ColumnStoreReadOptions store_options;
};

/// What a recovery pass found and did.
struct StoreRecoveryReport {
  /// Shards and records in the recovered store (0 when store_empty).
  size_t recovered_shards = 0;
  uint64_t recovered_records = 0;
  /// True when the manifest was rewritten from surviving shards; false
  /// when the existing manifest validated and was kept.
  bool manifest_rebuilt = false;
  /// True when no sealed shard survived: the manifest (if any) was
  /// removed and the path now holds no store at all.
  bool store_empty = false;
  /// Orphan ".tmp" files (and, when store_empty, the stale manifest)
  /// removed by this pass.
  std::vector<std::string> removed_files;
  /// Destination paths of sealed-but-unusable shard files this pass
  /// renamed aside ("<shard>.quarantined") — corrupt shards, shards
  /// beyond the recovered prefix, and shards stranded past a hole.
  std::vector<std::string> quarantined_files;
};

/// Recovers the sharded store at `manifest_path` per the protocol above.
/// After an OK return the path either holds a fully-verified store
/// (ShardedStoreReader::Open succeeds and every record reads back
/// bitwise-exactly) or no store at all (report.store_empty). IoError if
/// a removal, quarantine rename, or the manifest write fails — recovery
/// is idempotent, so the caller may simply run it again.
Result<StoreRecoveryReport> RecoverShardedStore(
    const std::string& manifest_path, StoreRecoveryOptions options = {});

}  // namespace data
}  // namespace randrecon

#endif  // RANDRECON_DATA_STORE_RECOVERY_H_
