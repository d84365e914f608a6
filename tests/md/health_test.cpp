// HealthMonitor: the numerical-health watchdog raising typed
// NumericalFailure with step/kernel context.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "core/error.h"
#include "md/health.h"
#include "md/workload.h"

namespace emdpa::md {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

ParticleSystem healthy_system() {
  WorkloadSpec spec;
  spec.n_atoms = 27;
  Workload w = make_lattice_workload(spec);
  return std::move(w.system);
}

StepEnergies energies(double kinetic, double potential) {
  return {kinetic, potential};
}

TEST(HealthPolicy, RejectsNonPositiveKnobs) {
  HealthPolicy bad_interval;
  bad_interval.check_every = 0;
  EXPECT_THROW(HealthMonitor{bad_interval}, ContractViolation);

  HealthPolicy bad_drift;
  bad_drift.max_energy_drift = -0.1;
  EXPECT_THROW(HealthMonitor{bad_drift}, ContractViolation);

  HealthPolicy bad_displacement;
  bad_displacement.max_step_displacement = 0.0;
  EXPECT_THROW(HealthMonitor{bad_displacement}, ContractViolation);
}

TEST(HealthMonitor, DueFollowsCheckInterval) {
  HealthPolicy policy;
  policy.check_every = 10;
  HealthMonitor monitor(policy);
  EXPECT_FALSE(monitor.due(1));
  EXPECT_FALSE(monitor.due(9));
  EXPECT_TRUE(monitor.due(10));
  EXPECT_FALSE(monitor.due(11));
  EXPECT_TRUE(monitor.due(20));
}

TEST(HealthMonitor, HealthyStatePasses) {
  HealthMonitor monitor(HealthPolicy{});
  const ParticleSystem system = healthy_system();
  monitor.reset_baseline(energies(1.0, -5.0));
  EXPECT_NO_THROW(monitor.check(10, system, energies(1.0, -5.0), 0.005,
                                "reference"));
  EXPECT_EQ(monitor.checks_run(), 1u);
}

TEST(HealthMonitor, DetectsNonFinitePositionWithContext) {
  HealthMonitor monitor(HealthPolicy{});
  ParticleSystem system = healthy_system();
  system.positions()[3].y = kNan;
  try {
    monitor.check(40, system, energies(1.0, -5.0), 0.005, "neighbor-list");
    FAIL() << "NaN position must trip the watchdog";
  } catch (const NumericalFailure& e) {
    EXPECT_NE(std::string(e.what()).find("atom 3"), std::string::npos);
    const ErrorContext* ctx = error_context(e);
    ASSERT_NE(ctx, nullptr);
    EXPECT_EQ(ctx->step, 40);
    EXPECT_EQ(ctx->kernel, "neighbor-list");
  }
}

TEST(HealthMonitor, DetectsNonFiniteVelocityAndForce) {
  HealthMonitor monitor(HealthPolicy{});
  ParticleSystem with_velocity = healthy_system();
  with_velocity.velocities()[0].x = kInf;
  EXPECT_THROW(
      monitor.check(10, with_velocity, energies(1.0, -5.0), 0.005, "k"),
      NumericalFailure);

  ParticleSystem with_force = healthy_system();
  with_force.accelerations()[5].z = kNan;
  EXPECT_THROW(
      monitor.check(10, with_force, energies(1.0, -5.0), 0.005, "k"),
      NumericalFailure);
}

TEST(HealthMonitor, DetectsNonFiniteTotalEnergy) {
  HealthMonitor monitor(HealthPolicy{});
  const ParticleSystem system = healthy_system();
  EXPECT_THROW(monitor.check(10, system, energies(kNan, 0.0), 0.005, "k"),
               NumericalFailure);
}

TEST(HealthMonitor, FiniteCheckCanBeDisabled) {
  HealthPolicy policy;
  policy.check_finite = false;
  HealthMonitor monitor(policy);
  ParticleSystem system = healthy_system();
  system.positions()[0].x = kNan;
  EXPECT_NO_THROW(
      monitor.check(10, system, energies(1.0, -5.0), 0.005, "k"));
}

TEST(HealthMonitor, DetectsDisplacementExplosion) {
  HealthMonitor monitor(HealthPolicy{});  // limit 0.5 per step
  ParticleSystem system = healthy_system();
  system.velocities()[7] = {500.0, 0.0, 0.0};  // 2.5 units per 0.005 step
  try {
    monitor.check(10, system, energies(1.0, -5.0), 0.005, "soa-n2");
    FAIL() << "an exploding atom must trip the displacement check";
  } catch (const NumericalFailure& e) {
    EXPECT_NE(std::string(e.what()).find("displacement"), std::string::npos);
  }
}

TEST(HealthMonitor, DetectsEnergyDrift) {
  HealthMonitor monitor(HealthPolicy{});  // relative tolerance 0.05
  const ParticleSystem system = healthy_system();
  monitor.reset_baseline(energies(1.0, -5.0));  // total -4
  try {
    monitor.check(10, system, energies(1.5, -5.0), 0.005, "reference");
    FAIL() << "12% drift must exceed the 5% tolerance";
  } catch (const NumericalFailure& e) {
    EXPECT_NE(std::string(e.what()).find("drift"), std::string::npos);
  }
}

TEST(HealthMonitor, SmallDriftWithinToleranceIsHealthy) {
  HealthMonitor monitor(HealthPolicy{});
  const ParticleSystem system = healthy_system();
  monitor.reset_baseline(energies(1.0, -5.0));
  EXPECT_NO_THROW(
      monitor.check(10, system, energies(1.1, -5.0), 0.005, "reference"));
}

TEST(HealthMonitor, ResetBaselineForgivesPriorDrift) {
  HealthMonitor monitor(HealthPolicy{});
  const ParticleSystem system = healthy_system();
  monitor.reset_baseline(energies(1.0, -5.0));
  monitor.reset_baseline(energies(2.0, -5.0));  // e.g. after a kernel swap
  EXPECT_NO_THROW(
      monitor.check(10, system, energies(2.0, -5.0), 0.005, "reference"));
}

TEST(StateIsFinite, FlagsEachArray) {
  EXPECT_TRUE(state_is_finite(healthy_system()));
  ParticleSystem p = healthy_system();
  p.positions()[0].x = kInf;
  EXPECT_FALSE(state_is_finite(p));
  ParticleSystem v = healthy_system();
  v.velocities()[1].y = kNan;
  EXPECT_FALSE(state_is_finite(v));
  ParticleSystem a = healthy_system();
  a.accelerations()[2].z = kNan;
  EXPECT_FALSE(state_is_finite(a));
}

}  // namespace
}  // namespace emdpa::md
