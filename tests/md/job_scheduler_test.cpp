// JobScheduler behaviour: completion, per-job fault isolation, backpressure
// eviction, drain-and-resume, manifest validation, and the supervision layer
// — retry/backoff, quarantine verdicts, deadline budgets and journal-backed
// crash recovery.  The bitwise standalone-equivalence property lives in the
// trajectory suite (trajectory_batch_test.cpp); these tests cover the
// scheduling semantics.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/error.h"
#include "core/fault_injection.h"
#include "md/checkpoint.h"
#include "md/job_scheduler.h"

namespace emdpa::md {
namespace {

namespace fs = std::filesystem;

JobSpec small_job(const std::string& name, int priority = 0, int steps = 30,
                  std::uint64_t seed = 12345) {
  JobSpec job;
  job.name = name;
  job.priority = priority;
  job.config.workload.n_atoms = 64;
  job.config.steps = steps;
  job.config.workload.seed = seed;
  return job;
}

/// A deterministically-doomed job: a huge time step under an armed drift
/// watchdog raises NumericalFailure on the first health check, regardless
/// of how the batch interleaves around it.
JobSpec poisoned_job(const std::string& name, int priority = 0) {
  JobSpec job = small_job(name, priority);
  job.config.dt = 0.5;
  job.config.drift_tolerance = 1e-3;
  return job;
}

class JobSchedulerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::Registry::instance().reset();
    dir_ = (fs::path(::testing::TempDir()) /
            ("scheduler_" +
             std::string(
                 ::testing::UnitTest::GetInstance()->current_test_info()->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override {
    fault::Registry::instance().reset();
    fs::remove_all(dir_);
  }

  SchedulerOptions options(int slice = 10) {
    SchedulerOptions o;
    o.slice_steps = slice;
    o.checkpoint_dir = dir_;
    return o;
  }

  std::string dir_;
};

TEST_F(JobSchedulerTest, RunsEveryJobToCompletion) {
  JobScheduler scheduler({small_job("a", 0, 25), small_job("b", 0, 14)},
                         options(10));
  const BatchResult batch = scheduler.run();

  ASSERT_EQ(batch.jobs.size(), 2u);
  EXPECT_FALSE(batch.interrupted);
  EXPECT_EQ(batch.count(JobStatus::kCompleted), 2u);
  // 25 steps at slice 10 -> 10+10+5; 14 -> 10+4.  Every slice checkpoints.
  EXPECT_EQ(batch.jobs[0].steps_done, 25);
  EXPECT_EQ(batch.jobs[0].slices, 3u);
  EXPECT_EQ(batch.jobs[0].checkpoint_saves, 3u);
  EXPECT_EQ(batch.jobs[1].steps_done, 14);
  EXPECT_EQ(batch.jobs[1].slices, 2u);
  EXPECT_EQ(batch.jobs[1].final_state.size(), 64u);
  EXPECT_TRUE(fs::exists(fs::path(dir_) / "a.ckpt"));
  EXPECT_TRUE(fs::exists(fs::path(dir_) / "a.done"));
}

TEST_F(JobSchedulerTest, FaultInOneJobIsIsolated) {
  JobScheduler scheduler(
      {small_job("ok1"), poisoned_job("doomed"), small_job("ok2")},
      options(10));
  const BatchResult batch = scheduler.run();

  EXPECT_EQ(batch.count(JobStatus::kCompleted), 2u);
  EXPECT_EQ(batch.count(JobStatus::kFailed), 1u);
  const JobResult& doomed = batch.jobs[1];
  EXPECT_EQ(doomed.name, "doomed");
  EXPECT_EQ(doomed.status, JobStatus::kFailed);
  EXPECT_FALSE(doomed.error.empty());
  // The healthy jobs finished their full step budget despite the failure.
  EXPECT_EQ(batch.jobs[0].steps_done, 30);
  EXPECT_EQ(batch.jobs[2].steps_done, 30);
}

TEST_F(JobSchedulerTest, PriorityOrdersFirstSlices) {
  // With max_in_flight large enough, the first slice of the high-priority
  // job must run before any slice of the low-priority one.  Observable via
  // wall ordering is flaky; instead give the high-priority job exactly one
  // slice of work and check it completes even if we stop right after the
  // first slice.
  int slices_granted = 0;
  SchedulerOptions o = options(10);
  o.stop_requested = [&] { return slices_granted++ >= 1; };
  JobScheduler scheduler({small_job("low", 1, 10), small_job("high", 5, 10)},
                         o);
  const BatchResult batch = scheduler.run();

  EXPECT_TRUE(batch.interrupted);
  EXPECT_EQ(batch.jobs[1].name, "high");
  EXPECT_EQ(batch.jobs[1].status, JobStatus::kCompleted);
  EXPECT_EQ(batch.jobs[0].status, JobStatus::kInterrupted);
  EXPECT_EQ(batch.jobs[0].steps_done, 0);
}

TEST_F(JobSchedulerTest, BackpressureBoundsResidency) {
  // max_in_flight=1 forces an eviction-and-resume round-trip on every
  // alternation between the two jobs; completion with full step counts
  // proves eviction loses no state.
  SchedulerOptions o = options(10);
  o.max_in_flight = 1;
  JobScheduler scheduler({small_job("a", 0, 30), small_job("b", 0, 30)}, o);
  const BatchResult batch = scheduler.run();

  EXPECT_EQ(batch.count(JobStatus::kCompleted), 2u);
  EXPECT_EQ(batch.jobs[0].steps_done, 30);
  EXPECT_EQ(batch.jobs[1].steps_done, 30);
}

TEST_F(JobSchedulerTest, DrainAndResumeCompletesTheBatch) {
  const std::vector<JobSpec> manifest = {small_job("a", 0, 40),
                                         small_job("b", 0, 40)};
  // First batch: stop after 3 slices — both jobs mid-flight.
  int slices = 0;
  SchedulerOptions o = options(10);
  o.stop_requested = [&] { return slices++ >= 3; };
  const BatchResult first = JobScheduler(manifest, o).run();
  ASSERT_TRUE(first.interrupted);
  ASSERT_EQ(first.count(JobStatus::kInterrupted), 2u);
  ASSERT_LT(first.jobs[0].steps_done + first.jobs[1].steps_done, 80);

  // Second batch over the same directory resumes from the suspend
  // checkpoints and finishes the remaining steps.
  const BatchResult second = JobScheduler(manifest, options(10)).run();
  EXPECT_FALSE(second.interrupted);
  EXPECT_EQ(second.count(JobStatus::kCompleted), 2u);
  EXPECT_EQ(second.jobs[0].steps_done, 40);
  EXPECT_EQ(second.jobs[1].steps_done, 40);
  EXPECT_TRUE(second.jobs[0].resumed);
  EXPECT_TRUE(second.jobs[1].resumed);
}

TEST_F(JobSchedulerTest, CompletedJobsAreNotRerun) {
  const std::vector<JobSpec> manifest = {small_job("a", 0, 20),
                                         poisoned_job("bad")};
  const BatchResult first = JobScheduler(manifest, options(10)).run();
  ASSERT_EQ(first.count(JobStatus::kCompleted), 1u);
  ASSERT_EQ(first.count(JobStatus::kFailed), 1u);

  // Rerun: the completion markers keep both verdicts — no job executes a
  // slice, the failed job stays failed (its error text survives the marker).
  const BatchResult second = JobScheduler(manifest, options(10)).run();
  EXPECT_EQ(second.count(JobStatus::kCompleted), 1u);
  EXPECT_EQ(second.count(JobStatus::kFailed), 1u);
  EXPECT_EQ(second.jobs[0].slices, 0u);
  EXPECT_EQ(second.jobs[1].slices, 0u);
  EXPECT_EQ(second.jobs[0].final_energies.kinetic,
            first.jobs[0].final_energies.kinetic);
  EXPECT_EQ(second.jobs[0].final_energies.potential,
            first.jobs[0].final_energies.potential);
  EXPECT_FALSE(second.jobs[1].error.empty());
}

TEST_F(JobSchedulerTest, RejectsBadManifests) {
  EXPECT_THROW(JobScheduler({}, options()), ContractViolation);
  EXPECT_THROW(
      JobScheduler({small_job("dup"), small_job("dup")}, options()),
      RuntimeFailure);
  EXPECT_THROW(JobScheduler({small_job("bad/name")}, options()),
               RuntimeFailure);
  JobSpec no_steps = small_job("nosteps");
  no_steps.config.steps = 0;
  EXPECT_THROW(JobScheduler({no_steps}, options()), ContractViolation);

  SchedulerOptions no_dir = options();
  no_dir.checkpoint_dir.clear();
  EXPECT_THROW(JobScheduler({small_job("a")}, no_dir), ContractViolation);
}

// ---------------------------------------------------------------------------
// Supervision layer: retry/backoff, quarantine, deadlines, journal recovery.

TEST_F(JobSchedulerTest, TransientSpawnFaultIsRetriedAndRecovers) {
  SchedulerOptions o = options(10);
  o.retry.max_retries = 3;
  fault::Plan plan;  // the first spawn attempt fails, the retry succeeds
  fault::ScopedFault fault("md.job_spawn", plan);

  JobScheduler scheduler({small_job("a", 0, 20)}, o);
  const BatchResult batch = scheduler.run();

  const JobResult& job = batch.jobs[0];
  EXPECT_EQ(job.status, JobStatus::kCompleted);
  EXPECT_EQ(job.steps_done, 20);
  EXPECT_EQ(job.attempts, 1);      // one failure consumed one retry
  EXPECT_TRUE(job.error.empty());  // a job that recovered is healthy
}

TEST_F(JobSchedulerTest, ExhaustedRetryBudgetQuarantinesTheJobOnly) {
  SchedulerOptions o = options(10);
  o.retry.max_retries = 2;
  JobScheduler scheduler({poisoned_job("doomed"), small_job("ok", 0, 20)}, o);
  const BatchResult batch = scheduler.run();

  EXPECT_EQ(batch.count(JobStatus::kQuarantined), 1u);
  EXPECT_EQ(batch.count(JobStatus::kCompleted), 1u);
  const JobResult& doomed = batch.jobs[0];
  EXPECT_EQ(doomed.status, JobStatus::kQuarantined);
  EXPECT_EQ(doomed.attempts, 3);  // max_retries + 1 attempts total
  EXPECT_FALSE(doomed.error.empty());
  // Quarantine is a terminal verdict: it has a marker like any finished job.
  EXPECT_TRUE(fs::exists(fs::path(dir_) / "doomed.done"));
  EXPECT_EQ(batch.jobs[1].steps_done, 20);
}

TEST_F(JobSchedulerTest, JournalRestoresRetryCountersAcrossRestart) {
  JobSpec doomed = poisoned_job("doomed");
  doomed.max_retries = 2;  // per-job override of the batch-wide default (0)
  const std::vector<JobSpec> manifest = {doomed, small_job("ok", 0, 40)};

  // First process: interrupted after the poisoned job consumed one retry.
  int calls = 0;
  SchedulerOptions o = options(10);
  o.stop_requested = [&] { return ++calls > 2; };
  const BatchResult first = JobScheduler(manifest, o).run();
  ASSERT_TRUE(first.interrupted);
  ASSERT_EQ(first.jobs[0].attempts, 1);

  // Second process: the journal replays attempts=1, so the budget picks up
  // where the dead process left it — two more failures reach quarantine at
  // exactly max_retries + 1 total attempts, not 1 + (max_retries + 1).
  const BatchResult second = JobScheduler(manifest, options(10)).run();
  EXPECT_EQ(second.jobs[0].status, JobStatus::kQuarantined);
  EXPECT_EQ(second.jobs[0].attempts, 3);
  EXPECT_EQ(second.jobs[1].status, JobStatus::kCompleted);
  EXPECT_EQ(second.jobs[1].steps_done, 40);
}

TEST_F(JobSchedulerTest, SliceBudgetIsMeteredAcrossProcesses) {
  JobSpec metered = small_job("metered", 0, 100);
  metered.slice_budget = 3;

  // First process grants two slices, then drains.
  int calls = 0;
  SchedulerOptions o = options(10);
  o.stop_requested = [&] { return ++calls > 2; };
  const BatchResult first = JobScheduler({metered}, o).run();
  ASSERT_TRUE(first.interrupted);
  ASSERT_EQ(first.jobs[0].steps_done, 20);

  // The journal carries the cumulative slice count: the second process may
  // grant exactly one more slice before the budget gate quarantines.
  const BatchResult second = JobScheduler({metered}, options(10)).run();
  EXPECT_EQ(second.jobs[0].status, JobStatus::kQuarantined);
  EXPECT_EQ(second.jobs[0].steps_done, 30);
  EXPECT_NE(second.jobs[0].error.find("slice budget"), std::string::npos);
}

TEST_F(JobSchedulerTest, WallDeadlineQuarantinesWithoutRetryBudget) {
  JobSpec slow = small_job("slow", 0, 1000);
  slow.deadline_seconds = 1e-9;  // any real slice overruns this
  SchedulerOptions o = options(10);
  o.retry.max_retries = 5;  // deadline must NOT consume the retry budget
  const BatchResult batch = JobScheduler({slow}, o).run();

  const JobResult& job = batch.jobs[0];
  EXPECT_EQ(job.status, JobStatus::kQuarantined);
  // The first slice runs (no wall time spent yet); the gate trips before
  // the second.
  EXPECT_EQ(job.steps_done, 10);
  EXPECT_NE(job.error.find("wall-clock budget"), std::string::npos);
}

TEST_F(JobSchedulerTest, LatchedInterruptDuringReplayDuplicatesNoWork) {
  const std::vector<JobSpec> manifest = {small_job("a", 0, 40)};
  int calls = 0;
  SchedulerOptions o = options(10);
  o.stop_requested = [&] { return ++calls > 2; };
  const BatchResult first = JobScheduler(manifest, o).run();
  ASSERT_TRUE(first.interrupted);
  ASSERT_EQ(first.jobs[0].steps_done, 20);

  // SIGTERM already latched when the resume starts (delivered during journal
  // replay): the batch drains cleanly before granting any slice.
  SchedulerOptions latched = options(10);
  latched.stop_requested = [] { return true; };
  const BatchResult second = JobScheduler(manifest, latched).run();
  EXPECT_TRUE(second.interrupted);
  EXPECT_EQ(second.jobs[0].status, JobStatus::kInterrupted);
  EXPECT_EQ(second.jobs[0].slices, 0u);

  // The clean third run finishes exactly the two remaining slices: the
  // latched drain neither lost nor duplicated job work.
  const BatchResult third = JobScheduler(manifest, options(10)).run();
  EXPECT_EQ(third.jobs[0].status, JobStatus::kCompleted);
  EXPECT_EQ(third.jobs[0].steps_done, 40);
  EXPECT_EQ(third.jobs[0].slices, 2u);
}

TEST_F(JobSchedulerTest, DoneJournalRecordWithoutMarkerReadmitsForNoOpSlice) {
  const std::vector<JobSpec> manifest = {small_job("a", 0, 20)};
  const BatchResult first = JobScheduler(manifest, options(10)).run();
  ASSERT_EQ(first.count(JobStatus::kCompleted), 1u);

  // Kill window: the journal recorded `done` but the marker never landed.
  fs::remove(fs::path(dir_) / "a.done");

  // The job re-enters the queue and completes in one no-op slice off its
  // final checkpoint — same step count, same energies, marker re-derived.
  const BatchResult second = JobScheduler(manifest, options(10)).run();
  EXPECT_EQ(second.jobs[0].status, JobStatus::kCompleted);
  EXPECT_EQ(second.jobs[0].steps_done, 20);
  EXPECT_EQ(second.jobs[0].slices, 1u);
  EXPECT_EQ(second.jobs[0].final_energies.kinetic,
            first.jobs[0].final_energies.kinetic);
  EXPECT_EQ(second.jobs[0].final_energies.potential,
            first.jobs[0].final_energies.potential);
  EXPECT_TRUE(fs::exists(fs::path(dir_) / "a.done"));
  // The no-op slice must NOT re-save: the on-disk generation is already
  // final, and re-rotating it would re-open the rename kill window on a
  // completed job's checkpoint.
  EXPECT_EQ(second.jobs[0].checkpoint_saves, 0u);
}

TEST_F(JobSchedulerTest, QuarantineVerdictSurvivesAMissingMarker) {
  JobSpec doomed = poisoned_job("doomed");
  doomed.max_retries = 1;
  const BatchResult first = JobScheduler({doomed}, options(10)).run();
  ASSERT_EQ(first.jobs[0].status, JobStatus::kQuarantined);
  ASSERT_EQ(first.jobs[0].attempts, 2);

  // Kill window: quarantine journalled, marker lost.  The journal verdict
  // holds — the job is NOT re-run, and the marker is restored.
  fs::remove(fs::path(dir_) / "doomed.done");
  const BatchResult second = JobScheduler({doomed}, options(10)).run();
  EXPECT_EQ(second.jobs[0].status, JobStatus::kQuarantined);
  EXPECT_EQ(second.jobs[0].slices, 0u);
  EXPECT_EQ(second.jobs[0].attempts, 2);
  EXPECT_FALSE(second.jobs[0].error.empty());
  EXPECT_TRUE(fs::exists(fs::path(dir_) / "doomed.done"));
}

TEST_F(JobSchedulerTest, CorruptMarkerIsRederivedNotTrusted) {
  const std::vector<JobSpec> manifest = {small_job("a", 0, 20)};
  const BatchResult first = JobScheduler(manifest, options(10)).run();
  ASSERT_EQ(first.count(JobStatus::kCompleted), 1u);

  // Flip one hex digit of the recorded kinetic energy: a parseable but
  // wrong value, which only the marker's CRC can catch.
  const fs::path marker = fs::path(dir_) / "a.done";
  std::string text;
  {
    std::ifstream in(marker, std::ios::binary);
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  const std::size_t line = text.find("kinetic 0x1.");
  ASSERT_NE(line, std::string::npos);
  char& digit = text[line + std::string("kinetic 0x1.").size()];
  digit = digit == '0' ? '1' : '0';
  {
    std::ofstream out(marker, std::ios::binary | std::ios::trunc);
    out << text;
  }

  // Treated as missing: the journal's `done` re-admits the job for one
  // no-op slice, which re-derives the energies from the final checkpoint.
  const BatchResult second = JobScheduler(manifest, options(10)).run();
  EXPECT_EQ(second.jobs[0].status, JobStatus::kCompleted);
  EXPECT_EQ(second.jobs[0].slices, 1u);
  EXPECT_EQ(second.jobs[0].final_energies.kinetic,
            first.jobs[0].final_energies.kinetic);
  EXPECT_EQ(second.jobs[0].final_energies.potential,
            first.jobs[0].final_energies.potential);
}

// Journal compaction.  With a segment bound of a few records the journal
// compacts after nearly every slice; the verdicts, attempt counts, step
// counts and final states must still match the same batch journalled with
// the default bound, and so must a batch drained after a compaction and
// rerun, whose replay reads the compacted segment.
TEST_F(JobSchedulerTest, JournalCompactionChangesNoOutcome) {
  JobSpec recovers = small_job("recovers", 0, 60);  // first spawn fails
  recovers.max_retries = 1;
  JobSpec doomed = poisoned_job("doomed");
  doomed.max_retries = 1;
  const std::vector<JobSpec> manifest = {recovers, doomed,
                                         small_job("plain", 0, 60, 777)};

  struct Outcome {
    JobStatus status;
    int attempts;
    long steps;
    std::string state;  ///< the job's checkpoint text; empty if it has none
  };
  const auto outcomes = [&](const BatchResult& batch, const std::string& dir) {
    std::vector<Outcome> out;
    for (const JobResult& job : batch.jobs) {
      const fs::path ckpt = fs::path(dir) / (job.name + ".ckpt");
      std::string state;
      if (fs::exists(ckpt)) {
        std::ostringstream text;
        save_checkpoint(text, CheckpointManager(ckpt.string()).load().checkpoint);
        state = text.str();
      }
      out.push_back({job.status, job.attempts, job.steps_done, state});
    }
    return out;
  };
  // Every compaction replaces the journal file, so a changed inode between
  // two polls of stop_requested counts one.
  const auto inode = [](const std::string& path) {
    struct stat st {};
    return ::stat(path.c_str(), &st) == 0 ? st.st_ino : ino_t{0};
  };
  const auto batch_options = [&](const std::string& dir, std::uint64_t bound,
                                 int* compactions, bool drain) {
    SchedulerOptions o = options(10);
    o.checkpoint_dir = dir;
    o.journal_max_bytes = bound;
    if (compactions != nullptr) {
      const std::string journal = dir + "/batch.wal";
      o.stop_requested = [=, last = ino_t{0}]() mutable {
        const ino_t now = inode(journal);
        if (last != 0 && now != last) ++*compactions;
        last = now;
        return drain && *compactions > 0;
      };
    }
    return o;
  };
  constexpr std::uint64_t kTinyBound = 256;
  std::vector<Outcome> reference;
  const auto expect_reference = [&](const std::vector<Outcome>& got,
                                    const char* what) {
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].status, reference[i].status) << what << " job " << i;
      EXPECT_EQ(got[i].attempts, reference[i].attempts) << what << " job " << i;
      EXPECT_EQ(got[i].steps, reference[i].steps) << what << " job " << i;
      EXPECT_TRUE(got[i].state == reference[i].state) << what << " job " << i;
    }
  };

  const std::string reference_dir = dir_ + "/reference";
  {
    fault::ScopedFault spawn("md.job_spawn");
    reference = outcomes(
        JobScheduler(manifest,
                     batch_options(reference_dir,
                                   SchedulerOptions{}.journal_max_bytes,
                                   nullptr, false))
            .run(),
        reference_dir);
  }
  ASSERT_EQ(reference[0].status, JobStatus::kCompleted);
  ASSERT_EQ(reference[0].attempts, 1);
  ASSERT_EQ(reference[1].status, JobStatus::kQuarantined);
  ASSERT_EQ(reference[1].attempts, 2);
  ASSERT_EQ(reference[2].status, JobStatus::kCompleted);
  ASSERT_EQ(reference[2].attempts, 0);
  ASSERT_FALSE(reference[2].state.empty());

  // (a) One process, compacting throughout.
  {
    const std::string dir = dir_ + "/compacted";
    int compactions = 0;
    fault::ScopedFault spawn("md.job_spawn");
    const BatchResult batch =
        JobScheduler(manifest, batch_options(dir, kTinyBound, &compactions,
                                             false))
            .run();
    EXPECT_GE(compactions, 3);
    expect_reference(outcomes(batch, dir), "compacted");
  }

  // (b) Drained after the first compaction, then rerun to the end.
  {
    const std::string dir = dir_ + "/drained";
    int compactions = 0;
    fault::ScopedFault spawn("md.job_spawn");
    const BatchResult first =
        JobScheduler(manifest, batch_options(dir, kTinyBound, &compactions,
                                             true))
            .run();
    ASSERT_TRUE(first.interrupted);
    ASSERT_EQ(compactions, 1);
    ASSERT_GT(first.count(JobStatus::kInterrupted), 0u);
    const BatchResult second =
        JobScheduler(manifest, batch_options(dir, kTinyBound, nullptr, false))
            .run();
    EXPECT_FALSE(second.interrupted);
    expect_reference(outcomes(second, dir), "drained and rerun");
  }
}

}  // namespace
}  // namespace emdpa::md
