#include "md/backend.h"

namespace emdpa::md {

ModelTime RunResult::breakdown_component(const std::string& key) const {
  auto it = breakdown.find(key);
  return it == breakdown.end() ? ModelTime::zero() : it->second;
}

template <typename Real>
void run_device_steps(ParticleSystemT<Real>& system,
                      const PeriodicBoxT<Real>& box, const RunConfig& config,
                      const DeviceModelT<Real>& model, RunResult& result) {
  const VelocityVerletT<Real> integrator(static_cast<Real>(config.dt));
  auto record = [&](const StepEnergiesT<Real>& e) {
    result.energies.push_back({e.kinetic, e.potential});
  };

  record(integrator.prime(system, [&](ParticleSystemT<Real>&) {
    return model.evaluate().first;
  }));
  if (model.reset) model.reset();

  for (int step = 0; step < config.steps; ++step) {
    ModelTime step_time = step == 0 ? model.launch : ModelTime::zero();
    record(integrator.step(system, box, [&](ParticleSystemT<Real>&) {
      step_time += model.charge_integration();
      const auto [potential, elapsed] = model.evaluate();
      step_time += elapsed;
      return potential;
    }));
    result.step_times.push_back(step_time);
  }
  result.final_state = system.template cast<double>();
}

ModelTime summed_device_time(const std::vector<ModelTime>& step_times,
                             ModelTime launch, ModelTime step0_launch) {
  ModelTime total = launch;
  for (std::size_t step = 0; step < step_times.size(); ++step) {
    total += step_times[step] - (step == 0 ? step0_launch : ModelTime::zero());
  }
  return total;
}

template void run_device_steps(ParticleSystemT<double>&,
                               const PeriodicBoxT<double>&, const RunConfig&,
                               const DeviceModelT<double>&, RunResult&);
template void run_device_steps(ParticleSystemT<float>&,
                               const PeriodicBoxT<float>&, const RunConfig&,
                               const DeviceModelT<float>&, RunResult&);

}  // namespace emdpa::md
