#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/error.h"
#include "md/simulation.h"

namespace emdpa::md {
namespace {

Simulation::Options small_options() {
  Simulation::Options options;
  options.workload.n_atoms = 125;
  options.dt = 0.004;
  return options;
}

TEST(Simulation, ConstructsPrimedState) {
  Simulation sim(small_options());
  EXPECT_EQ(sim.system().size(), 125u);
  EXPECT_EQ(sim.current_step(), 0);
  EXPECT_LT(sim.last_energies().potential, 0.0);  // bound liquid
}

TEST(Simulation, StepAdvancesCounterAndEnergies) {
  Simulation sim(small_options());
  const auto e = sim.step();
  EXPECT_EQ(sim.current_step(), 1);
  EXPECT_GT(e.kinetic, 0.0);
  EXPECT_EQ(e.total(), sim.last_energies().total());
}

TEST(Simulation, RunInvokesObserverEveryStep) {
  Simulation sim(small_options());
  int calls = 0;
  long last_step = -1;
  sim.run(5, [&](long step, const StepEnergies&) {
    ++calls;
    last_step = step;
  });
  EXPECT_EQ(calls, 5);
  EXPECT_EQ(last_step, 5);
}

TEST(Simulation, NegativeRunRejected) {
  Simulation sim(small_options());
  EXPECT_THROW(sim.run(-1), ContractViolation);
}

TEST(Simulation, CellListOptionMatchesBruteForce) {
  auto options = small_options();
  Simulation brute(options);
  options.kernel = SimKernel::kCellList;
  Simulation cells(options);
  brute.run(5);
  cells.run(5);
  EXPECT_NEAR(brute.last_energies().potential, cells.last_energies().potential,
              1e-9 * std::fabs(brute.last_energies().potential));
}

TEST(Simulation, CheckpointResumeContinuesBitIdentically) {
  Simulation sim(small_options());
  sim.run(7);

  std::stringstream checkpoint;
  sim.save(checkpoint);
  Simulation resumed = Simulation::resume(checkpoint, small_options());
  EXPECT_EQ(resumed.current_step(), 7);

  sim.run(5);
  resumed.run(5);
  for (std::size_t i = 0; i < sim.system().size(); ++i) {
    EXPECT_EQ(sim.system().positions()[i], resumed.system().positions()[i]);
    EXPECT_EQ(sim.system().velocities()[i], resumed.system().velocities()[i]);
  }
}

TEST(Simulation, DeterministicForSameOptions) {
  Simulation a(small_options());
  Simulation b(small_options());
  a.run(10);
  b.run(10);
  for (std::size_t i = 0; i < a.system().size(); ++i) {
    EXPECT_EQ(a.system().positions()[i], b.system().positions()[i]);
  }
}

}  // namespace
}  // namespace emdpa::md
