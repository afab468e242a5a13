// common/file_io: the durable publish (fsync → rename → directory fsync,
// no temp left on failure, seams firing at their steps), the writeback
// hint, and FileSeries (naming, the one series-name parser, directory
// listing, retention).

#include "common/file_io.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"

namespace randrecon {
namespace {

Failpoint fp_test_fsync("test.file_io.fsync");
Failpoint fp_test_rename("test.file_io.rename");

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

std::string Slurp(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::stringstream content;
  content << file.rdbuf();
  return content.str();
}

std::vector<std::string> ListDir(const std::string& dir) {
  std::vector<std::string> names;
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) return names;
  while (struct dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  ::closedir(handle);
  return names;
}

class FileIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DisarmAllFailpoints();
    dir_ = ::testing::TempDir() + "/file_io_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    RemoveDir();
    ASSERT_EQ(::mkdir(dir_.c_str(), 0755), 0);
  }

  void TearDown() override {
    DisarmAllFailpoints();
    RemoveDir();
  }

  void RemoveDir() {
    for (const std::string& name : ListDir(dir_)) {
      std::remove((dir_ + "/" + name).c_str());
    }
    ::rmdir(dir_.c_str());
  }

  void Touch(const std::string& name) {
    std::ofstream(dir_ + "/" + name) << "x";
  }

  std::string dir_;
};

// The one parser both daemons restart from, over both series' names.
// Every rejected name here is one a saturating or sign-accepting parse
// (strtoull, sscanf "%llu") would read as a huge index, wrapping the
// continuation counter.
TEST(FileSeriesParseTest, AcceptsOnlyPrefixDigitsSuffix) {
  struct Case {
    std::string middle;  ///< Between the prefix and the suffix.
    bool accepted;
    uint64_t index;
  };
  const std::vector<Case> cases = {
      {"000001", true, 1},
      {"1", true, 1},
      {"000042", true, 42},
      {"1000000", true, 1000000},
      {"18446744073709551614", true, UINT64_MAX - 1},
      {"00000000000000000007", true, 7},  // 20 digits.
      {"", false, 0},
      {"0", false, 0},
      {"000000", false, 0},
      {"18446744073709551615", false, 0},  // No successor.
      {"18446744073709551616", false, 0},  // 2^64.
      {"99999999999999999999", false, 0},
      {"000000000000000000007", false, 0},  // 21 digits.
      {"-1", false, 0},
      {"+7", false, 0},
      {" 7", false, 0},
      {"7 ", false, 0},
      {"0x7", false, 0},
      {"7a", false, 0},
      {"\xd9\xa7", false, 0},  // ARABIC-INDIC DIGIT SEVEN: not ASCII.
  };
  const std::vector<FileSeries> series = {{"", "report-", ".json"},
                                          {"", "metrics-", ".jsonl"}};
  for (const FileSeries& s : series) {
    for (const Case& c : cases) {
      const std::string name = s.prefix + c.middle + s.suffix;
      uint64_t index = 0;
      EXPECT_EQ(s.ParseName(name, &index), c.accepted) << "'" << name << "'";
      if (c.accepted) EXPECT_EQ(index, c.index) << "'" << name << "'";
    }
    uint64_t index = 0;
    EXPECT_FALSE(s.ParseName(s.prefix + "7" + s.suffix + ".tmp", &index));
    EXPECT_FALSE(s.ParseName("x" + s.prefix + "7" + s.suffix, &index));
    EXPECT_FALSE(s.ParseName(s.prefix + "7", &index));
    EXPECT_FALSE(s.ParseName("7" + s.suffix, &index));
  }
  // Neither series claims the other's files.
  uint64_t index = 0;
  EXPECT_FALSE(series[0].ParseName("metrics-000001.jsonl", &index));
  EXPECT_FALSE(series[1].ParseName("report-000001.json", &index));
  EXPECT_FALSE(series[1].ParseName("metrics-000001.json", &index));
}

TEST(FileSeriesNameTest, PadsToSixDigitsAndWidensPastThem) {
  const FileSeries series{"dir", "report-", ".json"};
  const FileSeries names{"", "report-", ".json"};
  EXPECT_EQ(names.Path(7), "report-000007.json");
  EXPECT_EQ(names.Path(999999), "report-999999.json");
  EXPECT_EQ(names.Path(1000000), "report-1000000.json");
  EXPECT_EQ(series.Path(7), "dir/report-000007.json");
  EXPECT_EQ((FileSeries{"dir/", "m-", ".x"}.Path(3)), "dir/m-000003.x");
  EXPECT_EQ((FileSeries{"", "m-", ".x"}.Path(3)), "m-000003.x");
  // Every name the series writes parses back to its index.
  for (const uint64_t index : {uint64_t{1}, uint64_t{999999},
                               uint64_t{1000000}, UINT64_MAX - 1}) {
    uint64_t parsed = 0;
    ASSERT_TRUE(names.ParseName(names.Path(index), &parsed));
    EXPECT_EQ(parsed, index);
  }
}

TEST_F(FileIoTest, ListReturnsSortedIndexesAndSkipsOtherNames) {
  const FileSeries series{dir_, "report-", ".json"};
  Touch("report-000003.json");
  Touch("report-1000000.json");
  Touch("report-000001.json");
  Touch("report-000004.json.tmp");
  Touch("report-99999999999999999999.json");
  Touch("latest.json");
  Result<std::vector<uint64_t>> listed = series.List();
  ASSERT_TRUE(listed.ok()) << listed.status().ToString();
  EXPECT_EQ(listed.value(), (std::vector<uint64_t>{1, 3, 1000000}));

  const FileSeries missing{dir_ + "/absent", "report-", ".json"};
  EXPECT_EQ(missing.List().status().code(), StatusCode::kIoError);
}

TEST_F(FileIoTest, RetainNewestKeepsTheNewestAndZeroKeepsAll) {
  const FileSeries series{dir_, "metrics-", ".jsonl"};
  for (uint64_t index = 1; index <= 4; ++index) {
    std::ofstream(series.Path(index)) << "x";
  }
  Touch("metrics--1.jsonl");
  size_t removed = 7;
  ASSERT_TRUE(series.RetainNewest(0, &removed).ok());
  EXPECT_EQ(removed, 0u);
  EXPECT_EQ(ListDir(dir_).size(), 5u);

  ASSERT_TRUE(series.RetainNewest(2, &removed).ok());
  EXPECT_EQ(removed, 2u);
  EXPECT_FALSE(FileExists(series.Path(1)));
  EXPECT_FALSE(FileExists(series.Path(2)));
  EXPECT_TRUE(FileExists(series.Path(3)));
  EXPECT_TRUE(FileExists(series.Path(4)));
  EXPECT_TRUE(FileExists(dir_ + "/metrics--1.jsonl"));  // Not the series'.

  ASSERT_TRUE(series.RetainNewest(5).ok());  // Fewer files than `keep`.
  EXPECT_EQ(ListDir(dir_).size(), 3u);
}

TEST_F(FileIoTest, WriteFileAtomicPublishesWholeFilesAndLeavesNoTemp) {
  const std::string path = dir_ + "/out.json";
  ASSERT_TRUE(WriteFileAtomic(path, "first\n").ok());
  EXPECT_EQ(Slurp(path), "first\n");
  ASSERT_TRUE(WriteFileAtomic(path, "second\n").ok());
  EXPECT_EQ(Slurp(path), "second\n");
  EXPECT_EQ(ListDir(dir_), std::vector<std::string>{"out.json"});

  const Status unwritable = WriteFileAtomic(dir_ + "/absent/out.json", "x");
  EXPECT_EQ(unwritable.code(), StatusCode::kIoError);
}

// WriteFileAtomic writes through the store's fd primitive, so a failed
// write names its errno. The temp path is a symlink to /dev/full, whose
// every write fails with ENOSPC: the publish must fail naming the cause
// and leave neither the final name nor the temp behind.
TEST_F(FileIoTest, WriteFileAtomicNamesItsErrno) {
  struct stat device;
  if (::stat("/dev/full", &device) != 0) GTEST_SKIP() << "no /dev/full";
  const std::string path = dir_ + "/m.rrcm";
  const std::string temp = TempPathFor(path);
  ASSERT_EQ(::symlink("/dev/full", temp.c_str()), 0);
  const Status status = WriteFileAtomic(path, std::string(4096, 'x'));
  struct stat left;
  const bool temp_left = ::lstat(temp.c_str(), &left) == 0;
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("No space left on device"),
            std::string::npos)
      << status.ToString();
  EXPECT_FALSE(temp_left);
  EXPECT_FALSE(FileExists(path));
}

TEST_F(FileIoTest, SeamFaultsLeaveThePreviousFileAndNoTemp) {
  const std::string path = dir_ + "/out.json";
  ASSERT_TRUE(WriteFileAtomic(path, "published\n").ok());
  PublishSeams seams;
  seams.before_fsync = &fp_test_fsync;
  seams.before_rename = &fp_test_rename;
  for (const char* name : {"test.file_io.fsync", "test.file_io.rename"}) {
    ASSERT_TRUE(ArmFailpoint(name, FailpointAction::kError).ok());
    EXPECT_EQ(WriteFileAtomic(path, "torn\n", seams).code(),
              StatusCode::kIoError)
        << name;
    EXPECT_EQ(FailpointHitCount(name), 1u) << name;
    DisarmAllFailpoints();
    EXPECT_EQ(Slurp(path), "published\n") << name;
    EXPECT_EQ(ListDir(dir_), std::vector<std::string>{"out.json"}) << name;
  }
  ASSERT_TRUE(WriteFileAtomic(path, "next\n", seams).ok());
  EXPECT_EQ(Slurp(path), "next\n");
}

TEST_F(FileIoTest, PublishTempFileRenamesAClosedTempIntoPlace) {
  const std::string path = dir_ + "/store.rrcs";
  std::ofstream(TempPathFor(path)) << "sealed";
  ASSERT_TRUE(PublishTempFile(TempPathFor(path), path).ok());
  EXPECT_EQ(Slurp(path), "sealed");
  EXPECT_FALSE(FileExists(TempPathFor(path)));
  // No temp to publish: an IoError, and nothing appears.
  EXPECT_EQ(PublishTempFile(TempPathFor(path), dir_ + "/other").code(),
            StatusCode::kIoError);
  EXPECT_FALSE(FileExists(dir_ + "/other"));
}

// StartWriteback is only a hint: the bytes it asks the kernel to write
// back stay exactly what was written, and the publish after it still
// fsyncs and renames as usual.
TEST_F(FileIoTest, StartWritebackLeavesTheBytesAndThePublishIntact) {
  const std::string path = dir_ + "/store.rrcs";
  std::string bytes(3 * 4096 + 123, '\0');
  for (size_t i = 0; i < bytes.size(); ++i) bytes[i] = static_cast<char>(i * 7);
  const int fd = ::open(TempPathFor(path).c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::write(fd, bytes.data(), 4096), 4096);
  StartWriteback(fd, 0, 4096);
  const size_t rest = bytes.size() - 4096;
  ASSERT_EQ(::write(fd, bytes.data() + 4096, rest),
            static_cast<ssize_t>(rest));
  StartWriteback(fd, 4096, rest);
  StartWriteback(fd, bytes.size(), 1 << 20);  // Past the end: no effect.
  ASSERT_EQ(::close(fd), 0);
  ASSERT_TRUE(PublishTempFile(TempPathFor(path), path).ok());
  EXPECT_EQ(Slurp(path), bytes);
  EXPECT_EQ(ListDir(dir_), std::vector<std::string>{"store.rrcs"});
}

// An fd that refuses the hint (a pipe: sync_file_range fails with
// ESPIPE) is ignored; the pipe still carries what was written.
TEST_F(FileIoTest, StartWritebackIgnoresAnFdThatRefusesIt) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  StartWriteback(fds[1], 0, 1);
  StartWriteback(fds[0], 0, 1);
  char byte = 0;
  EXPECT_EQ(::read(fds[0], &byte, 1), 1);
  EXPECT_EQ(byte, 'x');
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(JoinPathTest, UsesExactlyOneSeparator) {
  EXPECT_EQ(JoinPath("a", "b"), "a/b");
  EXPECT_EQ(JoinPath("a/", "b"), "a/b");
  EXPECT_EQ(JoinPath("", "b"), "b");
}

}  // namespace
}  // namespace randrecon
