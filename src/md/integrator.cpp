#include "md/integrator.h"

#include "core/error.h"
#include "md/observables.h"

namespace emdpa::md {

namespace {

template <typename Real>
ForceEvaluationT<Real> kernel_evaluation(ForceKernelT<Real>& kernel,
                                         const PeriodicBoxT<Real>& box,
                                         const LjParamsT<Real>& lj) {
  return [&kernel, &box, &lj](ParticleSystemT<Real>& system) {
    auto forces = kernel.compute(system.positions(), box, lj, system.mass());
    system.accelerations() = std::move(forces.accelerations);
    return forces.potential_energy;
  };
}

}  // namespace

template <typename Real>
VelocityVerletT<Real>::VelocityVerletT(Real dt) : dt_(dt) {
  EMDPA_REQUIRE(dt > Real(0), "time step must be positive");
}

template <typename Real>
StepEnergiesT<Real> VelocityVerletT<Real>::prime(
    ParticleSystemT<Real>& system,
    const ForceEvaluationT<Real>& evaluate) const {
  const Real potential = evaluate(system);
  return {kinetic_energy_of(system), potential};
}

template <typename Real>
StepEnergiesT<Real> VelocityVerletT<Real>::step(
    ParticleSystemT<Real>& system, const PeriodicBoxT<Real>& box,
    const ForceEvaluationT<Real>& evaluate) const {
  const std::size_t n = system.size();
  const Real half_dt = Real(0.5) * dt_;

  // 1. advance velocities (half kick).
  for (std::size_t i = 0; i < n; ++i) {
    system.velocities()[i] += system.accelerations()[i] * half_dt;
  }

  // 3/4. move atoms and update (wrap) positions.
  for (std::size_t i = 0; i < n; ++i) {
    system.positions()[i] =
        box.wrap(system.positions()[i] + system.velocities()[i] * dt_);
  }

  // 2. calculate forces on each of the N atoms.
  const Real potential = evaluate(system);

  // 1'. advance velocities (second half kick with the new accelerations).
  for (std::size_t i = 0; i < n; ++i) {
    system.velocities()[i] += system.accelerations()[i] * half_dt;
  }

  // 5. calculate new kinetic and total energies.
  return {kinetic_energy_of(system), potential};
}

template <typename Real>
StepEnergiesT<Real> VelocityVerletT<Real>::prime(
    ParticleSystemT<Real>& system, const PeriodicBoxT<Real>& box,
    const LjParamsT<Real>& lj, ForceKernelT<Real>& kernel) const {
  return prime(system, kernel_evaluation(kernel, box, lj));
}

template <typename Real>
StepEnergiesT<Real> VelocityVerletT<Real>::step(
    ParticleSystemT<Real>& system, const PeriodicBoxT<Real>& box,
    const LjParamsT<Real>& lj, ForceKernelT<Real>& kernel) const {
  return step(system, box, kernel_evaluation(kernel, box, lj));
}

template class VelocityVerletT<double>;
template class VelocityVerletT<float>;

}  // namespace emdpa::md
