// Write-ahead log: CRC framing, torn-tail recovery, append durability and
// atomic segment rotation.  Like the checkpoint-manager suite, everything
// here runs against real files under the test temp dir — the crash-safety
// claims are about what survives on the filesystem.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "core/error.h"
#include "core/wal.h"

namespace emdpa {
namespace {

namespace fs = std::filesystem;

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (fs::path(::testing::TempDir()) /
             (std::string("wal_") +
              ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                .string();
    fs::remove(path_);
    fs::remove(path_ + ".tmp");
  }

  std::string read_all(const std::string& file) {
    std::ifstream in(file, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  void append_raw(const std::string& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    out << bytes;
  }

  std::string path_;
};

TEST_F(WalTest, MissingFileIsAnEmptyLog) {
  const WalReplay replay = read_wal(path_);
  EXPECT_TRUE(replay.records.empty());
  EXPECT_FALSE(replay.truncated);
  EXPECT_EQ(replay.dropped_bytes, 0u);
}

TEST_F(WalTest, AppendAndReplayRoundTrip) {
  {
    WalWriter writer(path_);
    writer.append("admit replica-a priority 2");
    writer.append("slice replica-a steps 50");
    writer.append("done replica-a steps 100");
    EXPECT_EQ(writer.appended(), 3u);
  }
  const WalReplay replay = read_wal(path_);
  ASSERT_EQ(replay.records.size(), 3u);
  EXPECT_EQ(replay.records[0], "admit replica-a priority 2");
  EXPECT_EQ(replay.records[1], "slice replica-a steps 50");
  EXPECT_EQ(replay.records[2], "done replica-a steps 100");
  EXPECT_FALSE(replay.truncated);
}

TEST_F(WalTest, FrameIsPayloadPlusFixedWidthCrcFooter) {
  const std::string frame = wal_frame("hello");
  // "<payload> #crc=XXXXXXXX": 8 lowercase hex digits, nothing after.
  ASSERT_EQ(frame.size(), 5 + 6 + 8);
  EXPECT_EQ(frame.substr(0, 5), "hello");
  EXPECT_EQ(frame.substr(5, 6), " #crc=");
  for (std::size_t i = frame.size() - 8; i < frame.size(); ++i) {
    EXPECT_TRUE((frame[i] >= '0' && frame[i] <= '9') ||
                (frame[i] >= 'a' && frame[i] <= 'f'))
        << "not a lowercase hex digit at " << i;
  }
}

TEST_F(WalTest, TornTailWithoutNewlineIsDropped) {
  {
    WalWriter writer(path_);
    writer.append("one");
    writer.append("two");
  }
  // A SIGKILL mid-append leaves a partial final line: frame bytes but no
  // terminating newline.  Replay must keep the committed prefix only.
  const std::string partial = wal_frame("three").substr(0, 7);
  append_raw(partial);

  const WalReplay replay = read_wal(path_);
  ASSERT_EQ(replay.records.size(), 2u);
  EXPECT_EQ(replay.records[1], "two");
  EXPECT_TRUE(replay.truncated);
  EXPECT_EQ(replay.dropped_bytes, partial.size());
}

TEST_F(WalTest, CorruptRecordStopsReplayAtThePrefix) {
  {
    WalWriter writer(path_);
    writer.append("first record");
    writer.append("second record");
    writer.append("third record");
  }
  // Flip one payload byte inside the second record: its CRC no longer
  // verifies, so replay recovers exactly the records before it — a prefix of
  // the history, never a corrupted suffix.
  std::string content = read_all(path_);
  const std::size_t second = content.find("second");
  ASSERT_NE(second, std::string::npos);
  content[second] ^= 0x01;
  std::ofstream(path_, std::ios::binary | std::ios::trunc) << content;

  const WalReplay replay = read_wal(path_);
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0], "first record");
  EXPECT_TRUE(replay.truncated);
  EXPECT_GT(replay.dropped_bytes, 0u);
}

TEST_F(WalTest, RejectsMultilinePayloads) {
  WalWriter writer(path_);
  EXPECT_THROW(writer.append("line one\nline two"), ContractViolation);
}

TEST_F(WalTest, RewriteAtomicallyReplacesTheSegment) {
  WalWriter writer(path_);
  for (int i = 0; i < 5; ++i) writer.append("old " + std::to_string(i));
  const std::uint64_t before = writer.size_bytes();

  writer.rewrite({"snapshot a", "snapshot b"});

  EXPECT_FALSE(fs::exists(path_ + ".tmp"));
  EXPECT_LT(writer.size_bytes(), before);
  WalReplay replay = read_wal(path_);
  ASSERT_EQ(replay.records.size(), 2u);
  EXPECT_EQ(replay.records[0], "snapshot a");
  EXPECT_EQ(replay.records[1], "snapshot b");

  // The appender keeps working on the rotated segment.
  writer.append("post-rotation");
  replay = read_wal(path_);
  ASSERT_EQ(replay.records.size(), 3u);
  EXPECT_EQ(replay.records[2], "post-rotation");
}

TEST_F(WalTest, ReopeningContinuesTheSameSegment) {
  {
    WalWriter writer(path_);
    writer.append("from the first process");
  }
  {
    WalWriter writer(path_);  // a rerun reopens in append mode
    writer.append("from the second process");
    EXPECT_EQ(writer.appended(), 1u);  // counts this writer's records only
  }
  const WalReplay replay = read_wal(path_);
  ASSERT_EQ(replay.records.size(), 2u);
  EXPECT_EQ(replay.records[0], "from the first process");
  EXPECT_EQ(replay.records[1], "from the second process");
}

}  // namespace
}  // namespace emdpa
