// Resume bitwise-equivalence: a run checkpointed at its midpoint and resumed
// from that checkpoint must finish bit-for-bit identical to the run that
// kept going — across every host kernel and thread count.
//
// Two properties make this hold and both are exercised here: save() is a
// pure observer (it records the positions the live neighbour list was built
// from, so the resumed run reseeds the identical list while the saving run
// keeps its own), and checkpoints carry the potential energy so resume
// trusts the stored accelerations instead of re-priming.  A run that saves
// every 10 steps therefore ends bitwise equal to one that never saves.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/crc32.h"
#include "core/error.h"
#include "core/thread_pool.h"
#include "md/simulation.h"

namespace emdpa::md {
namespace {

struct ResumeCase {
  const char* name;
  SimKernel kernel;
  bool pooled;
};

// gtest would otherwise print the raw bytes of the case, pointer included,
// into every test name; the name alone keeps the names stable across builds.
void PrintTo(const ResumeCase& c, std::ostream* os) { *os << c.name; }

class TrajectoryResumeTest : public ::testing::TestWithParam<ResumeCase> {};

Simulation::Options melt_options(const ResumeCase& c, ThreadPool* pool) {
  Simulation::Options options;
  options.workload.n_atoms = 256;
  options.kernel = c.kernel;
  options.skin = 0.3;
  options.pool = c.pooled ? pool : nullptr;
  return options;
}

TEST_P(TrajectoryResumeTest, MidpointResumeIsBitIdentical) {
  const ResumeCase& c = GetParam();
  ThreadPool pool(4);
  const Simulation::Options options = melt_options(c, &pool);
  constexpr int kTotalSteps = 500;
  constexpr int kCheckpointStep = 250;

  // The uninterrupted run also saves at the midpoint; saving must not
  // disturb it (SavingEveryTenStepsIsInvisible pins that separately).
  Simulation uninterrupted(options);
  uninterrupted.run(kCheckpointStep);
  std::stringstream checkpoint;
  uninterrupted.save(checkpoint);
  uninterrupted.run(kTotalSteps - kCheckpointStep);

  Simulation resumed = Simulation::resume(checkpoint, options);
  ASSERT_EQ(resumed.current_step(), kCheckpointStep);
  resumed.run(kTotalSteps - kCheckpointStep);

  ASSERT_EQ(resumed.system().size(), uninterrupted.system().size());
  for (std::size_t i = 0; i < resumed.system().size(); ++i) {
    EXPECT_EQ(resumed.system().positions()[i],
              uninterrupted.system().positions()[i])
        << "position diverged at atom " << i;
    EXPECT_EQ(resumed.system().velocities()[i],
              uninterrupted.system().velocities()[i])
        << "velocity diverged at atom " << i;
    EXPECT_EQ(resumed.system().accelerations()[i],
              uninterrupted.system().accelerations()[i])
        << "acceleration diverged at atom " << i;
  }
  EXPECT_EQ(resumed.last_energies().kinetic,
            uninterrupted.last_energies().kinetic);
  EXPECT_EQ(resumed.last_energies().potential,
            uninterrupted.last_energies().potential);
}

TEST_P(TrajectoryResumeTest, SavingEveryTenStepsIsInvisible) {
  const ResumeCase& c = GetParam();
  ThreadPool pool(4);
  const Simulation::Options options = melt_options(c, &pool);
  constexpr int kTotalSteps = 300;
  constexpr int kSaveEvery = 10;

  Simulation never_saved(options);
  never_saved.run(kTotalSteps);

  Simulation saved(options);
  while (saved.current_step() < kTotalSteps) {
    saved.run(kSaveEvery);
    std::ostringstream sink;
    saved.save(sink);
  }

  for (std::size_t i = 0; i < saved.system().size(); ++i) {
    EXPECT_EQ(saved.system().positions()[i],
              never_saved.system().positions()[i])
        << "position diverged at atom " << i;
    EXPECT_EQ(saved.system().velocities()[i],
              never_saved.system().velocities()[i])
        << "velocity diverged at atom " << i;
    EXPECT_EQ(saved.system().accelerations()[i],
              never_saved.system().accelerations()[i])
        << "acceleration diverged at atom " << i;
  }
  EXPECT_EQ(saved.last_energies().potential,
            never_saved.last_energies().potential);
  EXPECT_EQ(saved.list_rebuilds(), never_saved.list_rebuilds());
}

TEST_P(TrajectoryResumeTest, ResumeDoesNotRePrime) {
  const ResumeCase& c = GetParam();
  ThreadPool pool(4);
  const Simulation::Options options = melt_options(c, &pool);

  Simulation original(options);
  original.run(50);
  std::stringstream checkpoint;
  original.save(checkpoint);

  Simulation resumed = Simulation::resume(checkpoint, options);
  // A v2 resume restores the primed state instead of re-evaluating forces:
  // the energies must match the instant of the save bit-for-bit.
  EXPECT_EQ(resumed.last_energies().kinetic, original.last_energies().kinetic);
  EXPECT_EQ(resumed.last_energies().potential,
            original.last_energies().potential);
  EXPECT_EQ(resumed.force_evaluations(), 0u);
}

TEST(TrajectoryLangevinResume, MidpointResumeIsBitIdentical) {
  // The Langevin thermostat's RNG state rides in the v3 checkpoint: a
  // resumed run re-attaching the thermostat — even with a DIFFERENT seed —
  // continues the checkpointed noise sequence, so the stochastic trajectory
  // stays bit-identical to the uninterrupted one.
  Simulation::Options options;
  options.workload.n_atoms = 256;
  constexpr int kTotalSteps = 300;
  constexpr int kCheckpointStep = 150;

  Simulation uninterrupted(options);
  uninterrupted.set_thermostat(LangevinThermostat(1.2, 2.0, 77));
  uninterrupted.run(kCheckpointStep);
  std::stringstream checkpoint;
  uninterrupted.save(checkpoint);
  uninterrupted.run(kTotalSteps - kCheckpointStep);

  Simulation resumed = Simulation::resume(checkpoint, options);
  // Seed 999: the restored checkpoint state must fully override it.
  resumed.set_thermostat(LangevinThermostat(1.2, 2.0, 999));
  resumed.run(kTotalSteps - kCheckpointStep);

  ASSERT_EQ(resumed.system().size(), uninterrupted.system().size());
  for (std::size_t i = 0; i < resumed.system().size(); ++i) {
    EXPECT_EQ(resumed.system().positions()[i],
              uninterrupted.system().positions()[i])
        << "position diverged at atom " << i;
    EXPECT_EQ(resumed.system().velocities()[i],
              uninterrupted.system().velocities()[i])
        << "velocity diverged at atom " << i;
  }
  EXPECT_EQ(resumed.last_energies().kinetic,
            uninterrupted.last_energies().kinetic);
  EXPECT_EQ(resumed.last_energies().potential,
            uninterrupted.last_energies().potential);
}

TEST(TrajectoryResumeConfig, KernelMismatchFailsLoudly) {
  // v3 checkpoints record the producing run's kernel/precision/ISA; resuming
  // under different arithmetic would silently fork the trajectory, so it
  // must throw unless explicitly overridden.
  Simulation::Options options;
  options.workload.n_atoms = 64;
  options.kernel = SimKernel::kSoaN2;

  Simulation sim(options);
  sim.run(20);
  std::stringstream checkpoint;
  sim.save(checkpoint);

  Simulation::Options mismatched = options;
  mismatched.kernel = SimKernel::kReference;
  EXPECT_THROW(Simulation::resume(checkpoint, mismatched), RuntimeFailure);
}

TEST(TrajectoryResumeConfig, IgnoreFlagOverridesTheMismatch) {
  Simulation::Options options;
  options.workload.n_atoms = 64;
  options.kernel = SimKernel::kSoaN2;

  Simulation sim(options);
  sim.run(20);
  std::stringstream checkpoint;
  sim.save(checkpoint);

  Simulation::Options mismatched = options;
  mismatched.kernel = SimKernel::kReference;
  mismatched.ignore_checkpoint_config = true;  // --resume-force
  Simulation resumed = Simulation::resume(checkpoint, mismatched);
  EXPECT_EQ(resumed.current_step(), 20);
  EXPECT_EQ(resumed.kernel(), SimKernel::kReference);
}

TEST(TrajectoryResumeConfig, MatchingConfigResumesQuietly) {
  Simulation::Options options;
  options.workload.n_atoms = 64;
  options.kernel = SimKernel::kSoaN2;

  Simulation sim(options);
  sim.run(20);
  std::stringstream checkpoint;
  sim.save(checkpoint);

  Simulation resumed = Simulation::resume(checkpoint, options);
  EXPECT_EQ(resumed.current_step(), 20);
}

/// `checkpoint` (a save() stream) with its recorded kernel token replaced by
/// `token` and the CRC footer recomputed, so only the config check can
/// object to it.
std::string with_kernel_token(const std::string& checkpoint,
                              const std::string& token) {
  std::string body = strip_crc_footer(checkpoint, "checkpoint");
  const std::string key = "config kernel neighbor-list ";
  const std::size_t at = body.find(key);
  EXPECT_NE(at, std::string::npos);
  body.replace(at, key.size(), "config kernel " + token + " ");
  return with_crc_footer(body);
}

TEST(TrajectoryResumeConfig, RetiredListTokenResumesAsNeighborList) {
  // Checkpoints of the retired slab-partitioned list build record their own
  // kernel token.  That build's CSR was byte-identical to the flat list's,
  // so such a checkpoint resumes on the flat list and continues bitwise.
  ThreadPool pool(4);
  Simulation::Options options;
  options.workload.n_atoms = 256;
  options.kernel = SimKernel::kNeighborList;
  options.pool = &pool;
  constexpr int kTotalSteps = 120;
  constexpr int kCheckpointStep = 60;

  Simulation uninterrupted(options);
  uninterrupted.run(kCheckpointStep);
  std::stringstream saved;
  uninterrupted.save(saved);
  uninterrupted.run(kTotalSteps - kCheckpointStep);

  std::stringstream retired(with_kernel_token(saved.str(), "sharded-list/4"));
  Simulation resumed = Simulation::resume(retired, options);
  ASSERT_EQ(resumed.current_step(), kCheckpointStep);
  ASSERT_EQ(resumed.kernel(), SimKernel::kNeighborList);
  resumed.run(kTotalSteps - kCheckpointStep);

  for (std::size_t i = 0; i < resumed.system().size(); ++i) {
    EXPECT_EQ(resumed.system().positions()[i],
              uninterrupted.system().positions()[i])
        << "position diverged at atom " << i;
    EXPECT_EQ(resumed.system().velocities()[i],
              uninterrupted.system().velocities()[i])
        << "velocity diverged at atom " << i;
  }
  EXPECT_EQ(resumed.last_energies().potential,
            uninterrupted.last_energies().potential);

  // Only that token is mapped: any other recorded kernel still mismatches.
  std::stringstream other(with_kernel_token(saved.str(), "soa-n2"));
  try {
    Simulation::resume(other, options);
    FAIL() << "a soa-n2 checkpoint resumed on the neighbour list";
  } catch (const RuntimeFailure& e) {
    EXPECT_NE(std::string(e.what()).find("configuration mismatch"),
              std::string::npos)
        << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, TrajectoryResumeTest,
    ::testing::Values(
        ResumeCase{"reference", SimKernel::kReference, false},
        ResumeCase{"cell_list", SimKernel::kCellList, false},
        ResumeCase{"soa_n2_serial", SimKernel::kSoaN2, false},
        ResumeCase{"soa_n2_pool", SimKernel::kSoaN2, true},
        ResumeCase{"neighbor_list_serial", SimKernel::kNeighborList, false},
        ResumeCase{"neighbor_list_pool", SimKernel::kNeighborList, true}),
    [](const ::testing::TestParamInfo<ResumeCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace emdpa::md
