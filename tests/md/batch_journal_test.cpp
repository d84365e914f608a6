// Batch journal: record grammar round-trips, replay folding, torn-tail
// tolerance, durability degradation under injected WAL EIO, and atomic
// compaction.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "core/fault_injection.h"
#include "core/wal.h"
#include "md/batch_journal.h"

namespace emdpa::md {
namespace {

namespace fs = std::filesystem;

class BatchJournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::Registry::instance().reset();
    path_ = (fs::path(::testing::TempDir()) /
             (std::string("journal_") +
              ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                .string();
    fs::remove(path_);
    fs::remove(path_ + ".tmp");
  }
  void TearDown() override { fault::Registry::instance().reset(); }

  JournalRecord admit(const std::string& job, int priority) {
    JournalRecord r;
    r.event = JournalEvent::kAdmit;
    r.job = job;
    r.priority = priority;
    return r;
  }
  JournalRecord slice(const std::string& job, long steps,
                      std::uint64_t slices = 1) {
    JournalRecord r;
    r.event = JournalEvent::kSlice;
    r.job = job;
    r.steps = steps;
    r.slices = slices;
    return r;
  }
  JournalRecord retry(const std::string& job, int attempt, std::uint64_t delay,
                      const std::string& detail) {
    JournalRecord r;
    r.event = JournalEvent::kRetry;
    r.job = job;
    r.attempt = attempt;
    r.delay = delay;
    r.detail = detail;
    return r;
  }
  JournalRecord done(const std::string& job, long steps) {
    JournalRecord r;
    r.event = JournalEvent::kDone;
    r.job = job;
    r.steps = steps;
    return r;
  }

  std::string path_;
};

TEST_F(BatchJournalTest, EncodeParseRoundTripsEveryEvent) {
  std::vector<JournalRecord> records;
  records.push_back(admit("replica-a", 2));
  records.push_back(slice("replica-a", 50));
  records.push_back(slice("replica-a", 100, 7));
  records.push_back(retry("replica-a", 2, 3, "numerical failure: energy drift"));
  JournalRecord quarantine;
  quarantine.event = JournalEvent::kQuarantine;
  quarantine.job = "replica-a";
  quarantine.attempt = 3;
  quarantine.detail = "retry budget exhausted";
  records.push_back(quarantine);
  records.push_back(done("replica-a", 200));
  JournalRecord fail;
  fail.event = JournalEvent::kFail;
  fail.job = "replica-a";
  fail.attempt = 1;
  fail.detail = "injected EIO";
  records.push_back(fail);
  JournalRecord interrupt;
  interrupt.event = JournalEvent::kInterrupt;
  records.push_back(interrupt);

  for (const JournalRecord& original : records) {
    JournalRecord parsed;
    ASSERT_TRUE(parse_journal_record(encode_journal_record(original), &parsed))
        << encode_journal_record(original);
    EXPECT_EQ(parsed.event, original.event);
    EXPECT_EQ(parsed.job, original.job);
    EXPECT_EQ(parsed.priority, original.priority);
    EXPECT_EQ(parsed.steps, original.steps);
    EXPECT_EQ(parsed.attempt, original.attempt);
    EXPECT_EQ(parsed.delay, original.delay);
    EXPECT_EQ(parsed.slices, original.slices);
    EXPECT_EQ(parsed.detail, original.detail);
  }
}

TEST_F(BatchJournalTest, SliceCountOnlyAppearsInCompactionSnapshots) {
  EXPECT_EQ(encode_journal_record(slice("j", 50)), "slice j steps 50");
  EXPECT_EQ(encode_journal_record(slice("j", 50, 4)), "slice j steps 50 slices 4");
  JournalRecord parsed;
  ASSERT_TRUE(parse_journal_record("slice j steps 50", &parsed));
  EXPECT_EQ(parsed.slices, 1u);
}

TEST_F(BatchJournalTest, ParseRejectsMalformedPayloads) {
  JournalRecord record;
  EXPECT_FALSE(parse_journal_record("", &record));
  EXPECT_FALSE(parse_journal_record("frobnicate x", &record));
  EXPECT_FALSE(parse_journal_record("admit j", &record));
  EXPECT_FALSE(parse_journal_record("admit j priority", &record));
  EXPECT_FALSE(parse_journal_record("slice j steps", &record));
  EXPECT_FALSE(parse_journal_record("slice j steps 5 bogus 3", &record));
  EXPECT_FALSE(parse_journal_record("retry j attempt 1", &record));
}

TEST_F(BatchJournalTest, ReplayFoldsRecordsIntoSupervisionState) {
  {
    BatchJournal journal(path_);
    journal.open_for_append();
    journal.record(admit("alpha", 2));
    journal.record(admit("beta", 0));
    journal.record(slice("alpha", 50));
    journal.record(slice("alpha", 100));
    journal.record(retry("beta", 1, 3, "transient spawn failure"));
    journal.record(done("alpha", 100));
  }
  BatchJournal journal(path_);
  const BatchJournal::Replay replay = journal.replay();
  EXPECT_EQ(replay.records, 6u);
  EXPECT_FALSE(replay.torn_tail);
  EXPECT_FALSE(replay.interrupted);

  const ReplayedJob& alpha = replay.jobs.at("alpha");
  EXPECT_EQ(alpha.status, JobStatus::kCompleted);
  EXPECT_EQ(alpha.steps_done, 100);
  EXPECT_EQ(alpha.slices, 2u);
  EXPECT_FALSE(alpha.retrying);

  const ReplayedJob& beta = replay.jobs.at("beta");
  EXPECT_EQ(beta.status, JobStatus::kPending);
  EXPECT_TRUE(beta.retrying);
  EXPECT_EQ(beta.attempts, 1);
  EXPECT_EQ(beta.retry_delay, 3u);
  EXPECT_EQ(beta.detail, "transient spawn failure");
  // Recency: beta's retry (record 5) is newer than alpha's slices but older
  // than alpha's done record.
  EXPECT_EQ(beta.last_event, 5u);
  EXPECT_EQ(alpha.last_event, 6u);
}

TEST_F(BatchJournalTest, ReplayToleratesATornTail) {
  {
    BatchJournal journal(path_);
    journal.open_for_append();
    journal.record(admit("alpha", 0));
    journal.record(slice("alpha", 50));
  }
  {
    // A kill mid-append: frame bytes on disk but no terminating newline.
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    out << wal_frame("slice alpha steps 100").substr(0, 12);
  }
  BatchJournal journal(path_);
  const BatchJournal::Replay replay = journal.replay();
  EXPECT_TRUE(replay.torn_tail);
  EXPECT_EQ(replay.records, 2u);
  EXPECT_EQ(replay.jobs.at("alpha").steps_done, 50);
}

TEST_F(BatchJournalTest, InterruptedOnlyWhenItIsTheLastRecord) {
  JournalRecord interrupt;
  interrupt.event = JournalEvent::kInterrupt;
  {
    BatchJournal journal(path_);
    journal.open_for_append();
    journal.record(admit("alpha", 0));
    journal.record(interrupt);
  }
  EXPECT_TRUE(BatchJournal(path_).replay().interrupted);
  {
    BatchJournal journal(path_);
    journal.open_for_append();
    journal.record(slice("alpha", 50));  // the batch resumed after the drain
  }
  EXPECT_FALSE(BatchJournal(path_).replay().interrupted);
}

TEST_F(BatchJournalTest, UnparseableButCrcCleanPayloadIsSkipped) {
  {
    WalWriter writer(path_);
    writer.append(encode_journal_record(admit("alpha", 0)));
    writer.append("future-record-type alpha whatever 7");
    writer.append(encode_journal_record(slice("alpha", 50)));
  }
  const BatchJournal::Replay replay = BatchJournal(path_).replay();
  EXPECT_EQ(replay.records, 2u);  // the foreign record is not fatal
  EXPECT_EQ(replay.jobs.at("alpha").steps_done, 50);
}

TEST_F(BatchJournalTest, InjectedWalIoDegradesDurabilityInsteadOfThrowing) {
  BatchJournal journal(path_);
  journal.open_for_append();
  journal.record(admit("alpha", 0));
  ASSERT_TRUE(journal.durable());

  {
    fault::Plan plan;  // fail exactly the next append
    fault::ScopedFault fault("md.wal_io", plan);
    EXPECT_NO_THROW(journal.record(slice("alpha", 50)));
  }
  EXPECT_FALSE(journal.durable());
  EXPECT_EQ(journal.append_failures(), 1u);

  // The next successful append resumes coverage.
  journal.record(slice("alpha", 100));
  EXPECT_TRUE(journal.durable());

  // The lost record is simply absent — replay recovers everything around it.
  const BatchJournal::Replay replay = BatchJournal(path_).replay();
  EXPECT_EQ(replay.records, 2u);
  EXPECT_EQ(replay.jobs.at("alpha").steps_done, 100);
  EXPECT_EQ(replay.jobs.at("alpha").slices, 1u);
}

TEST_F(BatchJournalTest, CompactionRotatesTheSegmentAtomically) {
  BatchJournal journal(path_, /*max_segment_bytes=*/128);
  journal.open_for_append();
  for (int i = 0; i < 16; ++i) {
    journal.record(slice("alpha", 10 * (i + 1)));
  }
  ASSERT_TRUE(journal.over_segment_bound());

  // The snapshot replaces the history with one state run that replays to the
  // same supervision state — cumulative slice count included.
  journal.compact({admit("alpha", 0), slice("alpha", 160, 16)});
  EXPECT_TRUE(journal.durable());
  EXPECT_FALSE(fs::exists(path_ + ".tmp"));

  const BatchJournal::Replay replay = BatchJournal(path_).replay();
  EXPECT_EQ(replay.records, 2u);
  EXPECT_EQ(replay.jobs.at("alpha").steps_done, 160);
  EXPECT_EQ(replay.jobs.at("alpha").slices, 16u);

  // The appender continues on the rotated segment.
  journal.record(done("alpha", 200));
  EXPECT_EQ(BatchJournal(path_).replay().jobs.at("alpha").status,
            JobStatus::kCompleted);
}

TEST_F(BatchJournalTest, InjectedWalIoOnRotationKeepsTheOldSegment) {
  BatchJournal journal(path_, /*max_segment_bytes=*/64);
  journal.open_for_append();
  journal.record(admit("alpha", 0));
  journal.record(slice("alpha", 50));

  {
    fault::Plan plan;
    fault::ScopedFault fault("md.wal_io", plan);
    EXPECT_NO_THROW(journal.compact({admit("alpha", 0)}));
  }
  EXPECT_FALSE(journal.durable());
  // The unrotated segment is still fully valid.
  const BatchJournal::Replay replay = BatchJournal(path_).replay();
  EXPECT_EQ(replay.records, 2u);
  EXPECT_EQ(replay.jobs.at("alpha").steps_done, 50);
}

TEST_F(BatchJournalTest, DirectoryFsyncFailureOnRotationKeepsTheAppenderLive) {
  BatchJournal journal(path_, /*max_segment_bytes=*/64);
  journal.open_for_append();
  journal.record(admit("alpha", 0));
  journal.record(slice("alpha", 50));

  // The directory fsync fails after the rotated segment was renamed into
  // place: the rotation reports failure, but the appender must follow the
  // new segment rather than write to a closed or unlinked file.
  {
    fault::Plan plan;
    fault::ScopedFault fault("md.dir_fsync", plan);
    EXPECT_NO_THROW(journal.compact({admit("alpha", 0), slice("alpha", 50)}));
  }
  EXPECT_FALSE(journal.durable());

  journal.record(done("alpha", 100));
  EXPECT_TRUE(journal.durable());
  EXPECT_EQ(journal.append_failures(), 1u);
  const BatchJournal::Replay replay = BatchJournal(path_).replay();
  EXPECT_EQ(replay.records, 3u);
  EXPECT_EQ(replay.jobs.at("alpha").status, JobStatus::kCompleted);
  EXPECT_EQ(replay.jobs.at("alpha").steps_done, 100);
}

}  // namespace
}  // namespace emdpa::md
