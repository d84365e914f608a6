// The durable commit path every replaced file goes through: round trip,
// previous-generation rotation, clean failure, and the directory-fsync
// injection site firing after the rename.
#include "core/durable_file.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <iterator>
#include <string>

#include "core/error.h"
#include "core/fault_injection.h"

namespace emdpa {
namespace {

namespace fs = std::filesystem;

class DurableFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::Registry::instance().reset();
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("durable_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    path_ = (dir_ / "file").string();
  }
  void TearDown() override {
    fault::Registry::instance().reset();
    fs::remove_all(dir_);
  }

  fs::path dir_;
  std::string path_;
};

TEST_F(DurableFileTest, CommitRoundTripsThroughReadFile) {
  const std::string bytes = std::string("line one\n") + '\0' + "binary\xff";
  commit_file(path_, bytes);
  EXPECT_EQ(read_file(path_, "test"), bytes);
  EXPECT_FALSE(fs::exists(path_ + ".tmp"));

  commit_file(path_, "replaced");  // no previous: the old bytes are gone
  EXPECT_EQ(read_file(path_, "test"), "replaced");
  EXPECT_EQ(std::distance(fs::directory_iterator(dir_),
                          fs::directory_iterator()),
            1);
}

TEST_F(DurableFileTest, PreviousReceivesTheOldBytes) {
  const std::string previous = path_ + ".prev";
  commit_file(path_, "first", previous);
  EXPECT_FALSE(fs::exists(previous));  // nothing to rotate yet
  commit_file(path_, "second", previous);
  EXPECT_EQ(read_file(path_, "test"), "second");
  EXPECT_EQ(read_file(previous, "test"), "first");
}

TEST_F(DurableFileTest, MissingDirectoryThrowsAndLeavesNoTempFile) {
  const std::string missing = (dir_ / "absent" / "file").string();
  EXPECT_THROW(commit_file(missing, "bytes"), RuntimeFailure);
  EXPECT_FALSE(fs::exists(missing + ".tmp"));
  EXPECT_FALSE(fs::exists(missing));
  EXPECT_THROW(read_file(missing, "test"), RuntimeFailure);
}

TEST_F(DurableFileTest, InjectedDirectoryFsyncFailsAfterTheRename) {
  commit_file(path_, "old");
  {
    fault::Plan plan;  // fail the next directory fsync
    fault::ScopedFault fault("md.dir_fsync", plan);
    try {
      commit_file(path_, "new");
      FAIL() << "a failed directory fsync must fail the commit";
    } catch (const RuntimeFailure& e) {
      EXPECT_NE(std::string(e.what()).find("fsync"), std::string::npos);
    }
  }
  // The bytes are in place; only their durability was unpromised.
  EXPECT_EQ(read_file(path_, "test"), "new");
  EXPECT_FALSE(fs::exists(path_ + ".tmp"));
}

}  // namespace
}  // namespace emdpa
