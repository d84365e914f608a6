// Numerical-health watchdog for long-running simulations.
//
// Long MD runs on accelerator-shaped execution layers fail in two modes the
// paper's lineage knows well: silent corruption (a NaN from a bad reduction
// propagates through every subsequent step) and slow poisoning (precision
// drift the single-precision ports must actively manage).  The watchdog
// catches both while the damage is still diagnosable: every `check_every`
// steps it verifies the state is finite, that total energy has not drifted
// beyond a tolerance of its baseline (NVE runs conserve it), and that no
// atom is moving fast enough to cross a significant fraction of the box in
// one step (an integrator explosion).
//
// Violations raise NumericalFailure (core/error.h) with the step and kernel
// in its structured context; the driver turns that into a
// checkpoint-then-abort with a distinct exit code, or — under --degrade — a
// fallback from the neighbour-list kernel to the reference N^2 kernel.
#pragma once

#include <optional>
#include <string>

#include "md/integrator.h"
#include "md/particle_system.h"

namespace emdpa::md {

struct HealthPolicy {
  /// Steps between checks (1 = every step).  Checking is O(N) — cheap next
  /// to a force evaluation, but not free at 100k atoms.
  long check_every = 10;
  /// Max |E_total - E_baseline| / max(|E_baseline|, 1) before the run is
  /// declared sick.  5% is far beyond healthy velocity-Verlet drift at the
  /// repo's default dt yet catches a blow-up within a few intervals.
  double max_energy_drift = 0.05;
  /// Max distance (reduced units) any atom may travel in one step.  Healthy
  /// LJ-liquid speeds at the default workload move atoms ~0.01 sigma per
  /// step; half a sigma per step means the integrator has exploded.
  double max_step_displacement = 0.5;
  /// Verify positions/velocities/accelerations are finite.
  bool check_finite = true;
};

/// Stateful checker: remembers the baseline energy of the run it watches.
/// Simulation owns one when Options::health is set and consults it after
/// each step.
class HealthMonitor {
 public:
  explicit HealthMonitor(const HealthPolicy& policy);

  const HealthPolicy& policy() const { return policy_; }
  std::uint64_t checks_run() const { return checks_; }

  /// (Re)set the energy-drift baseline — called after priming and resume.
  void reset_baseline(const StepEnergies& energies);

  /// True when `step` lands on the checking interval.
  bool due(long step) const { return step % policy_.check_every == 0; }

  /// Inspect the post-step state; throws NumericalFailure (context carrying
  /// `step` and `kernel`) on any violation.  `dt` converts velocities to
  /// per-step displacements.
  void check(long step, const ParticleSystem& system,
             const StepEnergies& energies, double dt,
             const std::string& kernel);

  /// Deadline guard for supervised batch jobs: throws DeadlineExceeded when
  /// `wall_seconds` exceeds a positive `wall_budget_seconds`, or when the
  /// job is asking for slice number `slices + 1` past a positive
  /// `slice_budget`.  A zero budget is unlimited.  The batch scheduler
  /// calls this at every slice boundary (health checks and deadlines are
  /// the same watchdog concern: stop sick runs while the damage is still
  /// diagnosable), and quarantines on the distinct exception type instead
  /// of spending retry budget.
  static void enforce_deadline(const std::string& job, double wall_seconds,
                               double wall_budget_seconds,
                               std::uint64_t slices,
                               std::uint64_t slice_budget);

 private:
  HealthPolicy policy_;
  std::optional<double> baseline_total_;
  std::uint64_t checks_ = 0;
};

/// True when every position, velocity and acceleration is finite.
bool state_is_finite(const ParticleSystem& system);

}  // namespace emdpa::md
