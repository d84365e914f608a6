// Velocity-Verlet integrator — the paper's integration scheme (section 3.5).
//
// One step, matching the structure of the paper's Figure 4 pseudo-code:
//   1. advance velocities          (half kick with current accelerations)
//   3/4. move atoms / update positions  (drift, wrap into the box)
//   2. calculate forces            (the offloadable N^2 step)
//   1'. advance velocities         (second half kick with new accelerations)
//   5. calculate new kinetic and total energies
//
// This is the only place the step is written.  Host runs hand it a
// ForceKernelT; device models (through run_device_steps, md/backend.h) hand
// it their own step-2 evaluation, as the paper's ports offload only step 2
// and keep the integration on the host.
#pragma once

#include <functional>

#include "md/force_kernel.h"
#include "md/particle_system.h"

namespace emdpa::md {

template <typename Real>
struct StepEnergiesT {
  Real kinetic{};
  Real potential{};
  Real total() const { return kinetic + potential; }
};

using StepEnergies = StepEnergiesT<double>;

/// Step 2 of the kernel: writes the system's accelerations for its current
/// positions and returns the potential energy.
template <typename Real>
using ForceEvaluationT = std::function<Real(ParticleSystemT<Real>&)>;

template <typename Real>
class VelocityVerletT {
 public:
  explicit VelocityVerletT(Real dt);

  Real dt() const { return dt_; }

  /// Advance the system one step, calling `evaluate` for step 2.  The
  /// system's accelerations must be current for its positions (call prime()
  /// once before the first step).
  StepEnergiesT<Real> step(ParticleSystemT<Real>& system,
                           const PeriodicBoxT<Real>& box,
                           const ForceEvaluationT<Real>& evaluate) const;

  /// Compute initial accelerations (and return initial energies) so that the
  /// first step's leading half-kick uses forces consistent with the initial
  /// positions.
  StepEnergiesT<Real> prime(ParticleSystemT<Real>& system,
                            const ForceEvaluationT<Real>& evaluate) const;

  /// The same two calls with `kernel` as the force evaluation.
  StepEnergiesT<Real> step(ParticleSystemT<Real>& system,
                           const PeriodicBoxT<Real>& box,
                           const LjParamsT<Real>& lj,
                           ForceKernelT<Real>& kernel) const;
  StepEnergiesT<Real> prime(ParticleSystemT<Real>& system,
                            const PeriodicBoxT<Real>& box,
                            const LjParamsT<Real>& lj,
                            ForceKernelT<Real>& kernel) const;

 private:
  Real dt_;
};

using VelocityVerlet = VelocityVerletT<double>;
using VelocityVerletF = VelocityVerletT<float>;

}  // namespace emdpa::md
