#include "common/file_io.h"

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/failpoint.h"

namespace randrecon {
namespace {

/// fsync(2) on `path`, opened read-only with `flags` (read-only access is
/// sufficient to flush data+metadata on the filesystems this library
/// targets).
Status FsyncPath(const std::string& path, int flags) {
  const int fd = ::open(path.c_str(), O_RDONLY | flags);
  if (fd < 0) {
    return Status::IoError("fsync '" + path +
                           "': cannot open: " + std::strerror(errno));
  }
  if (::fsync(fd) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(fd);
    return Status::IoError("fsync '" + path + "' failed: " + detail);
  }
  ::close(fd);
  return Status::OK();
}

}  // namespace

const char kTempFileSuffix[] = ".tmp";
const char kQuarantineFileSuffix[] = ".quarantined";

std::string TempPathFor(const std::string& final_path) {
  return final_path + kTempFileSuffix;
}

std::string JoinPath(const std::string& dir, const std::string& name) {
  if (dir.empty() || dir.back() == '/') return dir + name;
  return dir + "/" + name;
}

Status FsyncParentDirectory(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return FsyncPath(
      slash == std::string::npos ? std::string(".") : path.substr(0, slash + 1),
      O_DIRECTORY);
}

void StartWriteback(int fd, uint64_t offset, uint64_t bytes) {
#if defined(__linux__)
  // Errors (EBADF, ESPIPE on a pipe, EIO) are deliberately dropped: a
  // failed hint costs only the overlap, and fsync reports real failures.
  (void)::sync_file_range(fd, static_cast<off_t>(offset),
                          static_cast<off_t>(bytes), SYNC_FILE_RANGE_WRITE);
#else
  (void)fd;
  (void)offset;
  (void)bytes;
#endif
}

Status AtomicRename(const std::string& from, const std::string& to) {
  if (std::rename(from.c_str(), to.c_str()) != 0) {
    return Status::IoError("rename '" + from + "' -> '" + to +
                           "' failed: " + std::strerror(errno));
  }
  return Status::OK();
}

Status PublishTempFile(const std::string& temp_path, const std::string& path,
                       const PublishSeams& seams) {
  const Status published = [&]() -> Status {
    if (seams.before_fsync != nullptr) RR_FAILPOINT(*seams.before_fsync);
    RR_RETURN_NOT_OK(FsyncPath(temp_path, 0));
    if (seams.before_rename != nullptr) RR_FAILPOINT(*seams.before_rename);
    RR_RETURN_NOT_OK(AtomicRename(temp_path, path));
    return FsyncParentDirectory(path);
  }();
  if (!published.ok()) std::remove(temp_path.c_str());
  return published;
}

int WriteFully(int fd, const void* data, size_t size, uint64_t offset) {
  const char* bytes = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t written =
        ::pwrite(fd, bytes, size, static_cast<off_t>(offset));
    if (written < 0) {
      if (errno == EINTR) continue;
      return errno;
    }
    if (written == 0) return EIO;  // No progress: never spin.
    bytes += written;
    size -= static_cast<size_t>(written);
    offset += static_cast<uint64_t>(written);
  }
  return 0;
}

Status WriteFileAtomic(const std::string& path, const std::string& bytes,
                       const PublishSeams& seams) {
  const std::string temp_path = TempPathFor(path);
  const int fd =
      ::open(temp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) {
    return Status::IoError("cannot create temp file '" + temp_path +
                           "': " + std::strerror(errno));
  }
  const int write_error = WriteFully(fd, bytes.data(), bytes.size(), 0);
  const int close_error = ::close(fd) != 0 ? errno : 0;
  if (write_error != 0 || close_error != 0) {
    std::remove(temp_path.c_str());
    return Status::IoError(
        std::string(write_error != 0 ? "cannot write" : "cannot close") +
        " temp file '" + temp_path + "': " +
        std::strerror(write_error != 0 ? write_error : close_error));
  }
  return PublishTempFile(temp_path, path, seams);
}

std::string FileSeries::Path(uint64_t index) const {
  char digits[24];
  std::snprintf(digits, sizeof(digits), "%06llu",
                static_cast<unsigned long long>(index));
  return JoinPath(dir, prefix + digits + suffix);
}

bool FileSeries::ParseName(const std::string& name, uint64_t* index) const {
  constexpr size_t kMaxDigits = 20;  // UINT64_MAX has 20 decimal digits.
  if (name.size() <= prefix.size() + suffix.size()) return false;
  const size_t digits = name.size() - prefix.size() - suffix.size();
  if (digits > kMaxDigits) return false;
  if (name.compare(0, prefix.size(), prefix) != 0 ||
      name.compare(prefix.size() + digits, suffix.size(), suffix) != 0) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = prefix.size(); i < prefix.size() + digits; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(name[i] - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;
    value = value * 10 + digit;
  }
  if (value == 0 || value == UINT64_MAX) return false;
  *index = value;
  return true;
}

Result<std::vector<uint64_t>> FileSeries::List() const {
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) {
    return Status::IoError("cannot scan series directory '" + dir +
                           "': " + std::strerror(errno));
  }
  std::vector<uint64_t> indexes;
  while (const struct dirent* entry = ::readdir(handle)) {
    uint64_t index = 0;
    if (ParseName(entry->d_name, &index)) indexes.push_back(index);
  }
  ::closedir(handle);
  std::sort(indexes.begin(), indexes.end());
  return indexes;
}

Status FileSeries::RetainNewest(size_t keep, size_t* removed) const {
  if (removed != nullptr) *removed = 0;
  if (keep == 0) return Status::OK();
  RR_ASSIGN_OR_RETURN(const std::vector<uint64_t> indexes, List());
  Status first_failure;
  for (size_t i = 0; i + keep < indexes.size(); ++i) {
    const std::string victim = Path(indexes[i]);
    if (std::remove(victim.c_str()) == 0) {
      if (removed != nullptr) ++*removed;
    } else if (errno != ENOENT && first_failure.ok()) {
      first_failure = Status::IoError("cannot retire '" + victim +
                                      "': " + std::strerror(errno));
    }
  }
  return first_failure;
}

}  // namespace randrecon
