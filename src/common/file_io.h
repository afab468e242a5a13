// Durable writes and versioned file series: the one place in src/ that
// renames files, fsyncs them, starts their writeback or scans a
// directory.
//
// Every durable file — column stores and their shards, shard manifests,
// run reports, the scheduler's latest.json and the metrics time series —
// reaches its final name through PublishTempFile (docs/FORMAT.md §8):
// the writer fills TempPathFor(final) ("<final>.tmp"), then the temp is
// fsynced, renamed over the final name (::rename — atomic on POSIX
// within a filesystem), and the parent directory is fsynced so the
// rename itself survives power loss. At every instant the final name
// either does not exist or holds a complete file; a crash leaves at
// worst an orphan ".tmp" that RecoverShardedStore
// (data/store_recovery.h) or RemoveShardedStoreFiles sweeps. Recovery
// renames damaged-but-sealed files aside to "<name>.quarantined" rather
// than deleting evidence.
//
// FileSeries is the versioned directory series the long-running daemons
// keep: the scheduler's report-NNNNNN.json files and the recorder's
// metrics-NNNNNN.jsonl files.

#ifndef RANDRECON_COMMON_FILE_IO_H_
#define RANDRECON_COMMON_FILE_IO_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace randrecon {

class Failpoint;

/// Suffix of in-flight temp files ("<final>.tmp"). Temp files never sniff
/// as complete stores: column-store temps carry the inverted header hash
/// until sealed, and manifests are serialized whole before the rename.
extern const char kTempFileSuffix[];

/// Suffix recovery renames damaged files to ("<name>.quarantined").
extern const char kQuarantineFileSuffix[];

/// "<final_path>.tmp" — where writers stream before the atomic rename.
std::string TempPathFor(const std::string& final_path);

/// `name` inside `dir`, with exactly one separator between them ("" dir
/// yields `name` itself).
std::string JoinPath(const std::string& dir, const std::string& name);

/// fsync(2) on the directory containing `path`, making a completed
/// rename/unlink in it durable. IoError with errno detail on failure.
Status FsyncParentDirectory(const std::string& path);

/// ::rename(from, to): atomic within a filesystem — `to` transitions
/// from its old state to the complete new file with no in-between
/// observable. Does NOT fsync; callers follow with
/// FsyncParentDirectory(to). IoError with errno detail on failure.
Status AtomicRename(const std::string& from, const std::string& to);

/// Asks the kernel to start writing bytes [offset, offset + bytes) of the
/// open file `fd` back to disk, without waiting for them: on Linux
/// sync_file_range(SYNC_FILE_RANGE_WRITE), elsewhere a no-op. A hint
/// only — it makes nothing durable and reports nothing; the fsync in
/// PublishTempFile stays the one durability point and still reports any
/// writeback error. A streaming writer calls it after each large write
/// so that the seal's fsync finds the file mostly on disk already.
void StartWriteback(int fd, uint64_t offset, uint64_t bytes);

/// Failpoints a publish checks at its two internal steps (null = none).
/// A caller's "before the write" failpoint stays at its own call site.
struct PublishSeams {
  Failpoint* before_fsync = nullptr;   ///< Before the temp file's fsync.
  Failpoint* before_rename = nullptr;  ///< Before the rename.
};

/// Publishes the complete, closed file at `temp_path` as `path`:
/// fsync(temp) → rename(temp, path) → fsync(parent directory). On
/// failure the temp is removed (best-effort) and the error returned; a
/// failure before the rename leaves the previous `path`, if any,
/// untouched.
Status PublishTempFile(const std::string& temp_path, const std::string& path,
                       const PublishSeams& seams = {});

/// pwrite(2)s all `size` bytes of `data` to `fd` at `offset`, retrying
/// short writes and EINTR. Returns 0, or the errno of the failed write
/// (EIO when a write makes no progress). Every durable file's bytes leave
/// through here.
int WriteFully(int fd, const void* data, size_t size, uint64_t offset);

/// Writes `bytes` to TempPathFor(path) through a POSIX fd (created like a
/// column store's temp: mode 0666 before the umask), then
/// PublishTempFile. An open, write or close failure is an IoError naming
/// its errno; no temp survives a failure.
Status WriteFileAtomic(const std::string& path, const std::string& bytes,
                       const PublishSeams& seams = {});

/// A versioned series of files `<dir>/<prefix><index><suffix>`. Indexes
/// start at 1 and every accepted index has a successor, so a restarted
/// writer always continues at List().back() + 1.
struct FileSeries {
  std::string dir;
  std::string prefix;
  std::string suffix;

  /// JoinPath(dir, "<prefix><index><suffix>"), the index zero-padded to
  /// 6 digits and printed wider past 999999 ("" dir: the bare name).
  std::string Path(uint64_t index) const;

  /// True iff `name` is `<prefix><1-20 ASCII digits><suffix>` whose value
  /// lies in [1, UINT64_MAX - 1] (no sign, no whitespace, no overflow);
  /// stores the value in `*index`.
  bool ParseName(const std::string& name, uint64_t* index) const;

  /// The indexes of the series files present in `dir`, ascending. IoError
  /// if the directory cannot be scanned.
  Result<std::vector<uint64_t>> List() const;

  /// Unlinks the oldest series files until at most `keep` remain (0 =
  /// keep everything), counting unlinked files into `*removed` when
  /// given. A file that cannot be unlinked stays for the next call; the
  /// first such failure is returned after every victim was tried.
  Status RetainNewest(size_t keep, size_t* removed = nullptr) const;
};

}  // namespace randrecon

#endif  // RANDRECON_COMMON_FILE_IO_H_
