// Batch bitwise-equivalence: two jobs time-sliced through the cooperative
// scheduler must each finish bit-for-bit identical to the same job run
// standalone — the scheduling layer is invisible to the physics.
//
// The equivalence reference is a standalone run that never saves: every
// suspend is a CheckpointManager save, and save() perturbs nothing (it
// records the live neighbour list, so an evicted job's resume reseeds the
// identical list).  Proven at 1 and 8 threads over the shared pool, across
// the SoA-N^2 and neighbour-list kernels, with an uneven final slice.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "core/thread_pool.h"
#include "md/job_scheduler.h"
#include "md/simulation.h"

namespace emdpa::md {
namespace {

namespace fs = std::filesystem;

constexpr int kSteps = 110;   // slice 25 -> 25,25,25,25,10: uneven tail
constexpr int kSlice = 25;

JobSpec batch_job(const std::string& name, std::uint64_t seed,
                  HostKernel kernel) {
  JobSpec job;
  job.name = name;
  job.config.workload.n_atoms = 256;
  job.config.workload.seed = seed;
  job.config.steps = kSteps;
  job.config.host_kernel = kernel;
  return job;
}

/// The standalone reference: same config, same pool, no scheduler and no
/// saves.
ParticleSystem standalone_final_state(const JobSpec& job, ThreadPool* pool) {
  Simulation sim(simulation_options_from(job.config, pool));
  sim.run(job.config.steps);
  return sim.system();
}

void expect_bitwise_equal(const ParticleSystem& scheduled,
                          const ParticleSystem& standalone,
                          const std::string& name) {
  ASSERT_EQ(scheduled.size(), standalone.size()) << name;
  for (std::size_t i = 0; i < scheduled.size(); ++i) {
    EXPECT_EQ(scheduled.positions()[i], standalone.positions()[i])
        << name << ": position diverged at atom " << i;
    EXPECT_EQ(scheduled.velocities()[i], standalone.velocities()[i])
        << name << ": velocity diverged at atom " << i;
    EXPECT_EQ(scheduled.accelerations()[i], standalone.accelerations()[i])
        << name << ": acceleration diverged at atom " << i;
  }
}

class TrajectoryBatchTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TrajectoryBatchTest, InterleavedJobsMatchStandaloneRuns) {
  const std::size_t threads = GetParam();
  ThreadPool pool(threads);

  // Two jobs with different seeds and different kernels, interleaving
  // round-robin (equal priority) with an in-flight cap that forces
  // evict-and-resume cycles on top of the interleaving.
  const JobSpec job_a = batch_job("soa", 1111, HostKernel::kN2);
  const JobSpec job_b = batch_job("list", 2222, HostKernel::kList);

  const std::string dir =
      (fs::path(::testing::TempDir()) /
       ("batch_equiv_" + std::to_string(threads) + "t"))
          .string();
  fs::remove_all(dir);

  SchedulerOptions options;
  options.slice_steps = kSlice;
  options.max_in_flight = 1;
  options.checkpoint_dir = dir;
  options.pool = &pool;

  const BatchResult batch = JobScheduler({job_a, job_b}, options).run();
  fs::remove_all(dir);

  ASSERT_EQ(batch.count(JobStatus::kCompleted), 2u);
  ASSERT_EQ(batch.jobs[0].steps_done, kSteps);
  ASSERT_EQ(batch.jobs[1].steps_done, kSteps);

  expect_bitwise_equal(batch.jobs[0].final_state,
                       standalone_final_state(job_a, &pool), "soa");
  expect_bitwise_equal(batch.jobs[1].final_state,
                       standalone_final_state(job_b, &pool), "list");
}

INSTANTIATE_TEST_SUITE_P(Threads, TrajectoryBatchTest,
                         ::testing::Values(std::size_t{1}, std::size_t{8}),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return std::to_string(info.param) + "threads";
                         });

}  // namespace
}  // namespace emdpa::md
