// Shared pieces of the emdpa benchmark program: the run parameters, the raw
// result every workload fills, and the helpers the workloads share.
//
// The program measures; perfbench/run.py turns the raw samples into the
// reported percentiles (so the percentile rule lives in one tested place).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/thread_pool.h"
#include "md/particle_system.h"
#include "md/simulation.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ms_since(Clock::time_point t0) { return 1e3 * seconds_since(t0); }

struct Params {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  ///< scratch directory for checkpoints, stores, journals
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// What one run measured.  `samples` hold per-operation latencies in ms
/// (step, restore) and setup times in s; `layers` hold finished
/// per-layer values (traced runs only).
struct Result {
  double atom_steps = 0;     ///< atoms x steps completed in the timed region
  double timed_wall_s = 0;   ///< wall of the timed region
  double peak_rss_mb = 0;    ///< peak resident memory after the first step leg
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> layers;
  std::vector<Check> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Digest of the generated inputs, so a test can see the seed reach them.
  std::uint64_t input_digest = 0;

  void check(const std::string& name, bool ok, const std::string& detail = {}) {
    checks.push_back({name, ok, detail});
    if (!ok) ++failed;
  }
};

// --- workload definitions (workloads.cpp) ---------------------------------

void run_liquid(const Params& params, std::size_t atoms, emdpa::ThreadPool& pool,
                Result& result);

/// The checkpoint, journal and scheduler layers: a small JobScheduler batch
/// of 2048-atom jobs with its bitwise standalone check (liquid-2k traced run).
void probe_batch_layers(const Params& params, emdpa::ThreadPool& pool,
                        Result& result);

/// The trajectory store and delta codec: a short recording of a 2048-atom
/// run and chained bitwise-checked restores (liquid-2k traced run).
void probe_store_layers(const Params& params, emdpa::ThreadPool& pool,
                        Result& result);

// --- per-layer probes (layers.cpp) ----------------------------------------

/// Time the thread pool, list build and force sweep from outside on
/// `system` (the workload's state) and add their per-layer values.
void probe_compute_layers(const emdpa::md::ParticleSystem& system,
                          double box_edge, emdpa::ThreadPool& pool,
                          Result& result);

/// Time Simulation::save/resume on in-memory streams and CheckpointManager
/// save/load on disk for `sim`'s state.
void probe_checkpoint_layers(emdpa::md::Simulation& sim,
                             const emdpa::md::Simulation::Options& options,
                             const std::string& workdir, Result& result);

/// Time BatchJournal::record on a scratch journal under `workdir`.
void probe_journal_layer(const std::string& workdir, Result& result);

// --- small shared helpers -------------------------------------------------

double median(std::vector<double> values);

}  // namespace perfbench
