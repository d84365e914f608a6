#include "mtasim/mta_backend.h"

#include "core/error.h"
#include "core/thread_pool.h"
#include "md/reference_kernel.h"
#include "mtasim/full_empty.h"

namespace emdpa::mta {

const char* to_string(ThreadingMode m) {
  switch (m) {
    case ThreadingMode::kPartiallyMultithreaded: return "partially-multithreaded";
    case ThreadingMode::kFullyMultithreaded: return "fully-multithreaded";
  }
  return "unknown";
}

MtaBackend::MtaBackend(ThreadingMode mode, const MtaConfig& config)
    : mode_(mode), config_(config) {}

std::string MtaBackend::name() const {
  return std::string("mta2[") + to_string(mode_) + "]";
}

LoopDescription MtaBackend::force_loop_description(ThreadingMode mode,
                                                   std::uint64_t n_atoms) {
  LoopDescription loop;
  loop.name = "md-step2-force-loop";
  loop.trip_count = n_atoms;
  loop.has_scalar_reduction = true;  // the potential-energy sum
  loop.reduction_inside_body = (mode == ThreadingMode::kFullyMultithreaded);
  loop.pragma_no_dependence = (mode == ThreadingMode::kFullyMultithreaded);
  return loop;
}

md::RunResult MtaBackend::run(const md::RunConfig& run_config) {
  md::Workload workload = md::make_lattice_workload(run_config.workload);
  md::ParticleSystem& system = workload.system;
  const md::PeriodicBox& box = workload.box;
  const std::size_t n = system.size();

  StreamMachine machine(config_);
  md::RunResult result;
  result.backend_name = name();

  const LoopDescription force_loop =
      force_loop_description(mode_, static_cast<std::uint64_t>(n));
  const ParallelizationDecision decision = MtaCompiler::analyze(force_loop);
  result.ops.add(decision.parallel ? "mta.force_loop_parallel"
                                   : "mta.force_loop_serial");

  ModelTime t_force, t_other;

  ModelTime step_start;  // the machine's clock times each step as a whole
  md::DeviceModelT<double> model;
  // Integration loops: parallelised automatically in both flavours.
  model.charge_integration = [&] {
    step_start = machine.elapsed();
    t_other += machine.charge_parallel(
        static_cast<double>(n) * md::kIntegrationOpsPerAtom, n);
    return ModelTime::zero();
  };
  // Step 2: real physics + instruction charging per the compiler's
  // parallelisation decision.
  model.evaluate = [&] {
    // When the compiler parallelises the loop, the modelled streams run for
    // real: atom rows execute concurrently on the host pool.  The per-row
    // accumulation + ordered reduction inside ReferenceKernelT keeps the
    // result bit-identical to the serial kernel, which the cross-backend
    // bitwise tests rely on.
    md::ReferenceKernelT<double> kernel(
        md::MinImageStrategy::kRound,
        decision.parallel ? &ThreadPool::global() : nullptr);
    auto forces = kernel.compute(system.positions(), box, run_config.lj,
                                 system.mass());

    // The MTA port compiles the original double-precision C code unchanged
    // (only the reduction/pragma differ between the two flavours), so the
    // charge uses that code's 27-image-search profile, though the arithmetic
    // above runs the equivalent single-reflection form (identical results).
    // PairStats are unordered pairs; the modelled MTA loop ("for each atom,
    // all j != i") really executes each pair from both ends, so the
    // instruction charge prices the directed visit count.
    const double instructions =
        2.0 * (md::kSearch27OpsPerCandidate *
                   static_cast<double>(forces.stats.candidates) +
               md::kLjOpsPerInteraction *
                   static_cast<double>(forces.stats.interacting));

    if (decision.parallel) {
      // Fully multithreaded: iterations spread across the streams; the PE
      // reduction is a synchronised FE accumulator updated once per
      // iteration ("the reduction operation inside the loop body").
      FullEmptyCell<double> pe_accumulator(0.0);
      for (std::size_t i = 0; i < n; ++i) {
        // Each stream's per-atom PE share lands in the accumulator.
        pe_accumulator.fetch_add(0.0);  // value folded below; op priced here
      }
      t_force += machine.charge_parallel(instructions, n);
      t_force += machine.charge_fe_ops(static_cast<double>(n));
      EMDPA_ENSURE(pe_accumulator.is_full(), "PE accumulator left empty");
    } else {
      t_force += machine.charge_serial(instructions);
    }

    system.accelerations() = std::move(forces.accelerations);
    result.ops.add("mta.pair_candidates", forces.stats.candidates);
    result.ops.add("mta.pair_interactions", forces.stats.interacting);
    return std::pair{forces.potential_energy, machine.elapsed() - step_start};
  };
  model.reset = [&] {
    machine.reset();
    t_force = t_other = ModelTime::zero();
  };
  md::run_device_steps(system, box, run_config, model, result);

  result.device_time = machine.elapsed();
  result.breakdown["force_loop"] = t_force;
  result.breakdown["other_loops"] = t_other;
  result.ops.merge(machine.ops());
  return result;
}

}  // namespace emdpa::mta
