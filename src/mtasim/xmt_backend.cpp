#include "mtasim/xmt_backend.h"

#include <algorithm>
#include <cmath>

#include "core/error.h"
#include "core/thread_pool.h"
#include "md/reference_kernel.h"

namespace emdpa::mta {

double naive_remote_fraction(int p) {
  EMDPA_REQUIRE(p > 0, "processor count must be positive");
  return static_cast<double>(p - 1) / static_cast<double>(p);
}

ModelTime xmt_parallel_time(const XmtConfig& config, double instructions,
                            double remote_fraction) {
  EMDPA_REQUIRE(instructions >= 0, "negative instruction count");
  EMDPA_REQUIRE(remote_fraction >= 0.0 && remote_fraction <= 1.0,
                "remote fraction must be in [0, 1]");
  const double p = static_cast<double>(config.n_processors);

  // Bottleneck 1: the issue pipelines — one instruction per cycle per
  // saturated processor.
  const double issue_cycles = instructions / p;

  // Bottleneck 2: the network — aggregate remote-reference capacity grows
  // with the torus bisection, ~P^(2/3), not with P.
  const double remote_refs =
      instructions * config.refs_per_instruction * remote_fraction;
  const double network_capacity =
      config.remote_refs_per_cycle * std::pow(p, 2.0 / 3.0);
  const double network_cycles = remote_refs / network_capacity;

  const double cycles = std::max(issue_cycles, network_cycles);
  return ClockDomain(config.clock_hz).to_time(CycleCount(cycles));
}

XmtBackend::XmtBackend(const XmtConfig& config) : config_(config) {
  EMDPA_REQUIRE(config.n_processors >= 1 && config.n_processors <= 8192,
                "XMT systems scale to 8192 processors");
}

std::string XmtBackend::name() const {
  return "xmt[" + std::to_string(config_.n_processors) + "p]";
}

md::RunResult XmtBackend::run(const md::RunConfig& run_config) {
  md::Workload workload = md::make_lattice_workload(run_config.workload);
  md::ParticleSystem& system = workload.system;
  const md::PeriodicBox& box = workload.box;
  const std::size_t n = system.size();
  const double remote = naive_remote_fraction(config_.n_processors);

  md::RunResult result;
  result.backend_name = name();

  // The modelled streams execute for real: atom rows run concurrently on the
  // host pool, with results bit-identical to the serial kernel.
  md::ReferenceKernelT<double> kernel(md::MinImageStrategy::kRound,
                                      &ThreadPool::global());

  md::DeviceModelT<double> model;
  model.evaluate = [&]() -> std::pair<double, ModelTime> {
    auto forces = kernel.compute(system.positions(), box, run_config.lj,
                                 system.mass());
    // PairStats are unordered pairs; the modelled loop visits each pair from
    // both ends, so the instruction charge prices the directed count.
    const double instructions =
        2.0 * (md::kSearch27OpsPerCandidate *
                   static_cast<double>(forces.stats.candidates) +
               md::kLjOpsPerInteraction *
                   static_cast<double>(forces.stats.interacting));
    const ModelTime t = xmt_parallel_time(config_, instructions, remote);
    system.accelerations() = std::move(forces.accelerations);
    result.ops.add("xmt.pair_candidates", forces.stats.candidates);
    return {forces.potential_energy, t};
  };
  model.charge_integration = [&] {
    return xmt_parallel_time(
        config_, static_cast<double>(n) * md::kIntegrationOpsPerAtom, remote);
  };
  md::run_device_steps(system, box, run_config, model, result);

  result.device_time = md::summed_device_time(result.step_times);
  result.breakdown["compute"] = result.device_time;
  return result;
}

}  // namespace emdpa::mta
