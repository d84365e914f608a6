// The benchmark workloads (liquid-2k, liquid-100k) and the I/O-layer probes
// of the liquid-2k traced run.  Everything is timed from outside the engine
// (steady_clock around public calls); correctness checks run outside the
// timed regions.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "md/checkpoint_manager.h"
#include "md/health.h"
#include "md/job_scheduler.h"
#include "md/trajectory_store.h"
#include "perfbench.h"

namespace fs = std::filesystem;

namespace perfbench {

using emdpa::ThreadPool;
using emdpa::md::Checkpoint;
using emdpa::md::CheckpointManager;
using emdpa::md::JobScheduler;
using emdpa::md::JobSpec;
using emdpa::md::JobStatus;
using emdpa::md::ParticleSystem;
using emdpa::md::SchedulerOptions;
using emdpa::md::Simulation;
using emdpa::md::TrajectoryStore;
using emdpa::md::TrajectoryStoreOptions;

namespace {

/// Atoms of liquid-2k and of the I/O probes' systems.
constexpr std::size_t kSmallAtoms = 2048;

/// Run lengths are fixed step counts scaled by --seconds, not time limits,
/// so every run of a seed covers the same stretch of trajectory.  Each
/// per-second count below is about one second of work on a 4-core host.
long steps_for(const Params& params, double steps_per_second, long multiple) {
  const long units = std::lround(params.seconds * steps_per_second / multiple);
  return multiple * std::max(1L, units);
}
/// Steps per scheduler slice in the batch probe.
constexpr int kSliceSteps = 10;

// splitmix64: derives independent per-job / per-purpose seeds from --seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// The timed stepping loop: `steps` more steps of `sim`, appended to `loop`.
///
/// In a traced run every other step carries the per-step instrumentation
/// (the rebuild flag); both kinds see the same mix of steps, so the ratio of
/// their median latencies gives trace.overhead_frac.
struct StepLoop {
  std::vector<double> step_ms;     ///< Simulation::step latency
  std::vector<double> traced_ms;   ///< instrumented steps
  std::vector<double> plain_ms;    ///< uninstrumented steps of a traced run
  std::vector<double> quiet_ms;    ///< instrumented steps that did not rebuild
  double wall_s = 0;               ///< timed wall
  std::uint64_t rebuilds = 0;
  long steps = 0;
  bool failed = false;
  std::string error;
};

void step_loop(Simulation& sim, long steps, bool trace, StepLoop& loop) {
  if (loop.failed) return;
  const std::uint64_t rebuilds0 = sim.list_rebuilds();
  const Clock::time_point start = Clock::now();
  for (long i = 0; i < steps; ++i) {
    const bool instrumented = trace && loop.steps % 2 == 1;
    const Clock::time_point t0 = Clock::now();
    const std::uint64_t r0 = instrumented ? sim.list_rebuilds() : 0;
    try {
      sim.step();
    } catch (const std::exception& e) {
      loop.failed = true;
      loop.error = e.what();
      break;
    }
    const double step_ms = ms_since(t0);
    if (instrumented) {
      loop.traced_ms.push_back(step_ms);
      if (sim.list_rebuilds() == r0) loop.quiet_ms.push_back(step_ms);
    } else if (trace) {
      loop.plain_ms.push_back(step_ms);
    }
    loop.step_ms.push_back(step_ms);
    ++loop.steps;
  }
  loop.wall_s += seconds_since(start);
  loop.rebuilds += sim.list_rebuilds() - rebuilds0;
}

void record_loop(const StepLoop& loop, std::size_t atoms, Result& result) {
  result.atom_steps = static_cast<double>(atoms) * loop.steps;
  result.timed_wall_s = loop.wall_s;
  result.attempted += loop.steps;
  result.samples["step_ms"] = loop.step_ms;
  result.check("steps_completed", !loop.failed, loop.error);
}

/// Per-layer values the step loop gives.
void record_loop_layers(const StepLoop& loop, Result& result) {
  result.layers["neighbor.rebuilds"] = static_cast<double>(loop.rebuilds);
  result.layers["neighbor.rebuild_frac"] =
      loop.steps ? static_cast<double>(loop.rebuilds) / loop.steps : 0.0;
  result.layers["step.integrate_ms"] =
      median(loop.quiet_ms) - result.layers["force.sweep_ms"];
  // 1 - traced/untraced rate, with each rate the inverse median latency.
  result.layers["trace.overhead_frac"] =
      1.0 - median(loop.plain_ms) / median(loop.traced_ms);
  const double accounted_ms =
      loop.steps * median(loop.step_ms) +
      loop.rebuilds * result.layers["neighbor.build_ms"];
  result.layers["trace.accounted_frac"] =
      loop.wall_s > 0 ? accounted_ms / (1e3 * loop.wall_s) : 0.0;
}

std::string dir_in(const Params& params, const std::string& name) {
  return (fs::path(params.workdir) / name).string();
}

/// The LJ liquid every workload runs: rho*=0.8442, T*=1.44, dt 0.005,
/// cutoff 2.5, dp, auto kernel, dispatched ISA.
Simulation::Options liquid_options(std::size_t atoms, std::uint64_t seed,
                                   ThreadPool* pool) {
  Simulation::Options options;
  options.workload.n_atoms = atoms;
  options.workload.density = 0.8442;
  options.workload.temperature = 1.44;
  options.workload.seed = seed;
  options.dt = 0.005;
  options.lj.cutoff = 2.5;
  options.pool = pool;
  return options;
}

/// Bitwise equality of positions, velocities and accelerations.
bool same_state(const ParticleSystem& a, const ParticleSystem& b) {
  auto same = [](const auto& x, const auto& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(x[0])) == 0;
  };
  return same(a.positions(), b.positions()) &&
         same(a.velocities(), b.velocities()) &&
         same(a.accelerations(), b.accelerations());
}

/// FNV-1a over the state's bytes.
std::uint64_t digest(const ParticleSystem& system) {
  std::uint64_t h = 1469598103934665603ull;
  auto eat = [&](const auto& values) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
    for (std::size_t i = 0; i < values.size() * sizeof(values[0]); ++i) {
      h = (h ^ bytes[i]) * 1099511628211ull;
    }
  };
  eat(system.positions());
  eat(system.velocities());
  return h;
}

/// Relative total-energy drift tolerated over a run: the engine watchdog's
/// default limit (HealthPolicy::max_energy_drift, 5 %).  As the lattice
/// start melts, the truncated (unshifted) potential loses up to ~2 % of the
/// total energy in the first ~50 steps while a whole neighbour shell crosses
/// the cutoff, then settles ~0.3 % from the start; 5 % still flags a
/// blow-up at any run length.
const double kEnergyDriftTolerance = emdpa::md::HealthPolicy{}.max_energy_drift;

void check_liquid_health(const Simulation& sim, double e0, Result& result) {
  result.check("final_state_finite",
               emdpa::md::state_is_finite(sim.system()));
  const double drift =
      std::abs(sim.last_energies().total() - e0) / std::abs(e0);
  result.check("energy_drift", drift <= kEnergyDriftTolerance,
               "relative drift " + std::to_string(drift) + " over " +
                   std::to_string(sim.current_step()) + " steps");
}

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double upper = values[mid];
  return 0.5 * (upper + *std::max_element(values.begin(), values.begin() + mid));
}

// liquid-2k / liquid-100k: a plain Simulation::step loop.
void run_liquid(const Params& params, std::size_t atoms, ThreadPool& pool,
                Result& result) {
  const bool large = atoms > kSmallAtoms;
  const Simulation::Options options =
      liquid_options(atoms, params.seed, &pool);

  // Set-up: workload generation + Simulation construction (prime and first
  // list build), repeated for a median.
  std::optional<Simulation> sim;
  for (int r = 0; r < (large ? 5 : 9); ++r) {
    sim.reset();
    const Clock::time_point t0 = Clock::now();
    sim.emplace(options);
    result.samples["setup_s"].push_back(seconds_since(t0));
  }
  result.input_digest = digest(sim->system());
  const double e0 = sim->last_energies().total();

  // The run is 5 rounds of steps, each followed by restores: rebuilding a
  // runnable Simulation from an in-memory snapshot of the current state
  // (what a resume costs at this size).  Spreading the restores over the
  // run lets them sample the same machine time as the steps.  40 restores
  // at 100k atoms, where one costs a full list build (enough for a tail at
  // p75 with 10 samples beyond it; p95 would take 200); 20 per requested
  // second at 2k.
  constexpr int kRounds = 5;
  const long steps = steps_for(params, large ? 15 : 600, kRounds);
  const long restores = large ? 40 : steps_for(params, 20, kRounds);
  // The state after the first check_steps is kept (between two timed legs)
  // for the traced-vs-untraced bitwise check: a fresh Simulation replays
  // those steps in the other mode.
  const long check_steps = std::min(steps / kRounds, large ? 20L : 500L);
  StepLoop loop;
  step_loop(*sim, check_steps, params.trace, loop);
  // Peak memory is read here, while the run's Simulation is the only one
  // that has been live (set-up frees each before building the next), so it
  // leaves out the restores' and checks' second copies of the state.
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  result.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  const ParticleSystem at_check = sim->system();
  std::vector<double>& restore_ms = result.samples["restore_ms"];
  for (int round = 0; round < kRounds; ++round) {
    step_loop(*sim, steps / kRounds - (round == 0 ? check_steps : 0),
              params.trace, loop);
    const Checkpoint snapshot = sim->snapshot();
    for (long r = 0; r < restores / kRounds; ++r) {
      Checkpoint copy = snapshot;
      const Clock::time_point t0 = Clock::now();
      Simulation restored = Simulation::resume(std::move(copy), options);
      restore_ms.push_back(ms_since(t0));
      ++result.attempted;
    }
  }
  record_loop(loop, atoms, result);
  check_liquid_health(*sim, e0, result);

  {
    Simulation replay(options);
    StepLoop replay_loop;
    step_loop(replay, check_steps, !params.trace, replay_loop);
    result.check("traced_untraced_bitwise",
                 same_state(at_check, replay.system()),
                 "state at step " + std::to_string(check_steps));
  }

  // A restored snapshot, stepped once, must continue the run bitwise.
  const Checkpoint snapshot = sim->snapshot();
  {
    Simulation restored = Simulation::resume(snapshot, options);
    restored.step();
    sim->step();
    result.check("restore_continues_bitwise",
                 same_state(restored.system(), sim->system()));
  }

  if (params.trace) {
    probe_compute_layers(sim->system(), sim->box().edge(), pool, result);
    record_loop_layers(loop, result);
    if (!large) {
      probe_batch_layers(params, pool, result);
      probe_store_layers(params, pool, result);
    }
  }
}

// The I/O layers, timed in the liquid-2k traced run on 2048-atom systems.
//
// Batch: 8 jobs time-sliced through JobScheduler with slice 10 and 2
// resident, so every slice loads a checkpoint from disk, resumes, runs 10
// steps, commits with fsync and journals.  A seed-picked job is re-run
// standalone at the same checkpoint cadence; its final state must equal
// the scheduled one bitwise.
void probe_batch_layers(const Params& params, ThreadPool& pool,
                        Result& result) {
  constexpr int kJobs = 8;
  constexpr int kSteps = 100;
  std::vector<JobSpec> jobs;
  for (int j = 0; j < kJobs; ++j) {
    JobSpec spec;
    spec.name = "job" + std::to_string(j);
    spec.config.workload.n_atoms = kSmallAtoms;
    spec.config.workload.seed = mix(params.seed, j);
    spec.config.steps = kSteps;
    jobs.push_back(spec);
  }

  // The scheduler polls stop_requested once before every slice.
  std::vector<Clock::time_point> polls;
  SchedulerOptions options;
  options.slice_steps = kSliceSteps;
  options.max_in_flight = 2;
  options.pool = &pool;
  options.checkpoint_dir = dir_in(params, "batch");
  options.stop_requested = [&polls] {
    polls.push_back(Clock::now());
    return false;
  };
  const emdpa::md::BatchResult batch = JobScheduler(jobs, options).run();
  polls.push_back(Clock::now());
  std::vector<double> slice_ms;
  for (std::size_t i = 1; i < polls.size(); ++i) {
    slice_ms.push_back(
        std::chrono::duration<double, std::milli>(polls[i] - polls[i - 1])
            .count());
  }
  std::uint64_t slices = 0, saves = 0;
  std::size_t completed = 0;
  for (const auto& job : batch.jobs) {
    slices += job.slices;
    saves += job.checkpoint_saves;
    if (job.status == JobStatus::kCompleted) ++completed;
  }
  result.attempted += kJobs;
  result.failed += kJobs - completed;
  result.check("all_jobs_completed", completed == kJobs,
               std::to_string(completed) + " of " + std::to_string(kJobs));

  const std::size_t picked = params.seed % kJobs;
  const Simulation::Options job_options =
      emdpa::md::simulation_options_from(jobs[picked].config, &pool);
  Simulation reference(job_options);
  CheckpointManager reference_ckpt(dir_in(params, "reference.ckpt"));
  std::vector<double> slice_steps_ms;
  double slice_acc = 0;
  while (reference.current_step() < kSteps) {
    const Clock::time_point ts = Clock::now();
    reference.step();
    slice_acc += ms_since(ts);
    if (reference.current_step() % kSliceSteps == 0) {
      slice_steps_ms.push_back(slice_acc);
      slice_acc = 0;
      reference_ckpt.save([&](std::ostream& out) { reference.save(out); });
    }
  }
  result.check("scheduled_equals_standalone_bitwise",
               batch.jobs[picked].status == JobStatus::kCompleted &&
                   same_state(reference.system(),
                              batch.jobs[picked].final_state),
               jobs[picked].name);

  Simulation unsaved(job_options);
  unsaved.run(kSteps);
  result.layers["ckpt.extra_rebuilds"] =
      static_cast<double>(reference.list_rebuilds()) -
      static_cast<double>(unsaved.list_rebuilds());
  result.layers["sched.slices"] = static_cast<double>(slices);
  result.layers["sched.saves"] = static_cast<double>(saves);
  result.layers["sched.slice_overhead_ms"] =
      median(slice_ms) - median(slice_steps_ms);
  const std::string wal = (fs::path(options.checkpoint_dir) / "batch.wal").string();
  std::ifstream in(wal);
  const auto records = std::count(std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>(), '\n');
  result.layers["journal.records"] = static_cast<double>(records);
  result.layers["journal.bytes"] = static_cast<double>(fs::file_size(wal));

  probe_checkpoint_layers(reference, job_options, params.workdir, result);
  probe_journal_layer(params.workdir, result);
}

// Store: record 400 steps into a TrajectoryStore with a snapshot every 5
// steps (keyframe every 8), then restore seeded stored steps (load_step +
// resume), step each to the next stored step and compare with that
// recorded snapshot bitwise.  Restores run in chains of consecutive stored
// steps, so each restore is also the comparison target of the one before.
void probe_store_layers(const Params& params, ThreadPool& pool,
                        Result& result) {
  constexpr long kStride = 5;
  constexpr long kSteps = 400;
  constexpr int kRestores = 40;
  constexpr int kChain = 8;
  const Simulation::Options options =
      liquid_options(kSmallAtoms, params.seed, &pool);
  Simulation sim(options);
  TrajectoryStoreOptions store_options;
  store_options.directory = dir_in(params, "store");
  store_options.keyframe_interval = 8;
  TrajectoryStore store(store_options);

  std::vector<double> snapshot_ms, append_ms, load_ms;
  for (long i = 0; i <= kSteps; ++i) {
    if (i > 0) sim.step();
    if (sim.current_step() % kStride != 0) continue;
    const Clock::time_point t0 = Clock::now();
    const Checkpoint cp = sim.snapshot();
    const Clock::time_point t1 = Clock::now();
    store.append(cp);
    snapshot_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    append_ms.push_back(ms_since(t1));
  }

  const std::vector<long> stored = store.steps();
  std::mt19937_64 rng(mix(params.seed, 11));
  std::uniform_int_distribution<std::size_t> pick(0, stored.size() - 2);
  std::optional<Simulation> stepped;  // previous restore, at stored[k]
  std::size_t mismatches = 0, k = 0;
  int chain_left = 0;
  for (int r = 0; r < kRestores; ++r) {
    if (chain_left == 0) {
      k = pick(rng);
      chain_left = kChain;
    }
    const Clock::time_point t0 = Clock::now();
    Checkpoint cp = store.load_step(stored[k]);
    load_ms.push_back(ms_since(t0));
    Simulation restored = Simulation::resume(std::move(cp), options);
    ++result.attempted;
    if (stepped && !same_state(stepped->system(), restored.system())) {
      ++mismatches;
    }
    while (restored.current_step() < stored[k + 1]) restored.step();
    ++k;
    if (--chain_left == 0 || k + 1 >= stored.size() || r + 1 == kRestores) {
      chain_left = 0;
      stepped.reset();
      if (!same_state(restored.system(), store.load_step(stored[k]).system)) {
        ++mismatches;
      }
    } else {
      stepped.emplace(std::move(restored));
    }
  }
  result.failed += mismatches;
  result.check("store_restores_match_next_snapshot", mismatches == 0,
               std::to_string(mismatches) + " of " +
                   std::to_string(kRestores) + " restores differ");

  const auto& stats = store.stats();
  result.layers["store.snapshot_ms"] = median(snapshot_ms);
  result.layers["store.append_ms"] = median(append_ms);
  result.layers["store.load_ms"] = median(load_ms);
  result.layers["store.bytes_per_snapshot"] =
      static_cast<double>(stats.bytes) / static_cast<double>(stats.snapshots);
  double key_bytes = 0, delta_bytes = 0;
  std::size_t keys = 0, deltas = 0;
  for (const auto& entry : fs::directory_iterator(store.directory())) {
    const std::string ext = entry.path().extension().string();
    if (ext == ".key") {
      key_bytes += static_cast<double>(entry.file_size());
      ++keys;
    } else if (ext == ".delta") {
      delta_bytes += static_cast<double>(entry.file_size());
      ++deltas;
    }
  }
  result.layers["store.delta_ratio"] =
      keys && deltas ? (delta_bytes / deltas) / (key_bytes / keys) : 0.0;
}

}  // namespace perfbench
