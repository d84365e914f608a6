#include "cpu/opteron_backend.h"

namespace emdpa::opteron {

OpteronBackend::OpteronBackend(const OpteronConfig& config) : config_(config) {}

md::RunResult OpteronBackend::run(const md::RunConfig& config) {
  md::Workload workload = md::make_lattice_workload(config.workload);
  md::ParticleSystem& system = workload.system;
  const md::PeriodicBox& box = workload.box;
  const std::size_t n = system.size();

  OpteronMachine machine(config_);
  md::RunResult result;
  result.backend_name = name();

  ModelTime step_start;  // the machine's clock times each step as a whole
  md::DeviceModelT<double> model;
  model.charge_integration = [&] {
    step_start = machine.elapsed();
    machine.charge_integration_step(n);
    return ModelTime::zero();
  };
  // Step 2, the timed N^2 phase.
  model.evaluate = [&] {
    auto forces = machine.compute_forces(system.positions(), box, config.lj,
                                         system.mass());
    system.accelerations() = std::move(forces.accelerations);
    return std::pair{forces.potential_energy, machine.elapsed() - step_start};
  };
  // The paper's timed region covers the steps; the priming force evaluation
  // happens before t=0 in their harness too, so it is excluded from
  // device_time, mirroring how the paper reports per-run numbers from a
  // warmed start.
  model.reset = [&] { machine.reset(); };
  md::run_device_steps(system, box, config, model, result);

  result.device_time = machine.elapsed();
  result.breakdown["compute"] = machine.elapsed();
  result.ops = machine.ops();
  result.ops.add("opteron.l1_misses", machine.memory().l1_misses());
  result.ops.add("opteron.l2_misses", machine.memory().l2_misses());
  return result;
}

}  // namespace emdpa::opteron
