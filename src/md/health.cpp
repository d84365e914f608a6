#include "md/health.h"

#include <cmath>
#include <cstdio>

#include "core/error.h"

namespace emdpa::md {

namespace {

bool finite3(const Vec3d& v) {
  return std::isfinite(v.x) && std::isfinite(v.y) && std::isfinite(v.z);
}

ErrorContext context_for(long step, const std::string& kernel) {
  ErrorContext ctx;
  ctx.step = step;
  ctx.kernel = kernel;
  return ctx;
}

}  // namespace

bool state_is_finite(const ParticleSystem& system) {
  for (std::size_t i = 0; i < system.size(); ++i) {
    if (!finite3(system.positions()[i]) || !finite3(system.velocities()[i]) ||
        !finite3(system.accelerations()[i])) {
      return false;
    }
  }
  return true;
}

HealthMonitor::HealthMonitor(const HealthPolicy& policy) : policy_(policy) {
  EMDPA_REQUIRE(policy.check_every > 0, "health check interval must be positive");
  EMDPA_REQUIRE(policy.max_energy_drift > 0.0, "energy drift tolerance must be positive");
  EMDPA_REQUIRE(policy.max_step_displacement > 0.0,
                "step displacement limit must be positive");
}

void HealthMonitor::reset_baseline(const StepEnergies& energies) {
  baseline_total_ = energies.total();
}

void HealthMonitor::check(long step, const ParticleSystem& system,
                          const StepEnergies& energies, double dt,
                          const std::string& kernel) {
  ++checks_;

  if (policy_.check_finite) {
    for (std::size_t i = 0; i < system.size(); ++i) {
      if (!finite3(system.positions()[i])) {
        throw NumericalFailure(
            "watchdog: non-finite position at atom " + std::to_string(i),
            context_for(step, kernel));
      }
      if (!finite3(system.velocities()[i]) ||
          !finite3(system.accelerations()[i])) {
        throw NumericalFailure(
            "watchdog: non-finite velocity/force at atom " + std::to_string(i),
            context_for(step, kernel));
      }
    }
    if (!std::isfinite(energies.total())) {
      throw NumericalFailure("watchdog: non-finite total energy",
                             context_for(step, kernel));
    }
  }

  // Fastest atom's per-step travel: an exploding integrator shows up here
  // one interval after the bad force, well before positions overflow.
  double max_speed_sq = 0.0;
  for (std::size_t i = 0; i < system.size(); ++i) {
    max_speed_sq = std::max(max_speed_sq, length_squared(system.velocities()[i]));
  }
  const double max_step = std::sqrt(max_speed_sq) * dt;
  if (max_step > policy_.max_step_displacement) {
    char msg[112];
    std::snprintf(msg, sizeof(msg),
                  "watchdog: displacement explosion (%.3g per step, limit %.3g)",
                  max_step, policy_.max_step_displacement);
    throw NumericalFailure(msg, context_for(step, kernel));
  }

  if (baseline_total_) {
    const double drift = std::fabs(energies.total() - *baseline_total_) /
                         std::max(std::fabs(*baseline_total_), 1.0);
    if (drift > policy_.max_energy_drift) {
      char msg[112];
      std::snprintf(msg, sizeof(msg),
                    "watchdog: energy drift %.3g exceeds tolerance %.3g",
                    drift, policy_.max_energy_drift);
      throw NumericalFailure(msg, context_for(step, kernel));
    }
  }
}

void HealthMonitor::enforce_deadline(const std::string& job,
                                     double wall_seconds,
                                     double wall_budget_seconds,
                                     std::uint64_t slices,
                                     std::uint64_t slice_budget) {
  if (slice_budget > 0 && slices >= slice_budget) {
    throw DeadlineExceeded("deadline: job '" + job + "' exhausted its slice "
                           "budget (" + std::to_string(slices) + " of " +
                           std::to_string(slice_budget) + " slices used)");
  }
  if (wall_budget_seconds > 0 && wall_seconds >= wall_budget_seconds) {
    char msg[64];
    std::snprintf(msg, sizeof(msg), " (%.3gs of %.3gs used)", wall_seconds,
                  wall_budget_seconds);
    throw DeadlineExceeded("deadline: job '" + job +
                           "' exceeded its wall-clock budget" + msg);
  }
}

}  // namespace emdpa::md
