// High-level simulation facade.
//
// Composes the library's pieces — workload, periodic box, LJ force kernel,
// velocity-Verlet in the NVE ensemble, the paper's only physics — behind
// one object with step/run/observe/checkpoint operations.  The lower-level
// pieces remain the public API for anyone who needs control (the device
// backends and the quickstart example use them directly); Simulation is the
// front door the host-parallel backend, the batch scheduler and bisect use.
//
// The force evaluation under the integrator is pluggable (SimKernel): the
// scalar reference kernel, the O(N) cell-list kernel, the SoA/SIMD N^2
// batch kernel, or the pool-parallel neighbour-list path whose skin logic
// pays off precisely across the timesteps this loop drives.  kAuto picks
// the host execution layer's fast path for the workload size.
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>

#include "core/thread_pool.h"
#include "md/backend.h"
#include "md/checkpoint.h"
#include "md/force_kernel.h"
#include "md/health.h"
#include "md/integrator.h"
#include "md/parallel_neighbor.h"
#include "md/precision.h"
#include "md/workload.h"

namespace emdpa::md {

/// Which LJ force kernel drives the simulation loop.  kAuto resolves at
/// construction: the SoA N^2 batch kernel below the host layer's measured
/// list crossover (HostParallelBackend::kListCrossoverAtoms) and the
/// parallel neighbour-list path at or above it.
enum class SimKernel {
  kAuto,
  kReference,
  kCellList,
  kSoaN2,
  kNeighborList,
};

const char* to_string(SimKernel kernel);

/// Map the backend-facing HostKernel choice (--kernel) onto the simulation
/// seam: auto -> kAuto, n2 -> kSoaN2, list -> kNeighborList.
SimKernel to_sim_kernel(HostKernel kernel);

struct RunConfig;

class Simulation {
 public:
  struct Options {
    WorkloadSpec workload;
    LjParams lj{};
    double dt = 0.005;
    /// Force-kernel strategy for every evaluation (prime and step).
    SimKernel kernel = SimKernel::kAuto;
    /// Neighbour-list skin radius (the list kernels only).
    double skin = 0.3;
    /// Neighbour-list staleness policy; tests inject kNeverRebuild to prove
    /// the displacement check matters.  (kNeighborList only.)
    SkinPolicy skin_policy = SkinPolicy::kHalfSkinDisplacement;
    /// Pool for the SoA/list kernels' row parallelism; nullptr runs serial.
    /// Results are bitwise identical at any thread count either way.
    ThreadPool* pool = nullptr;
    /// Numeric precision of the LJ fast path (md/precision.h): dp runs
    /// double end to end, sp narrows the inputs once and runs the lane math
    /// and accumulation in float, mixed narrows the lane math but
    /// accumulates in double.
    /// Only the SIMD kernels (kSoaN2 / kNeighborList, or kAuto which
    /// resolves to one of them) support non-dp; combining sp/mixed with
    /// kReference or kCellList throws at construction.
    PrecisionMode precision = PrecisionMode::kDouble;
    /// Force the SIMD instruction set of the fast-path kernels (throws at
    /// construction when it cannot run here); empty resolves the EMDPA_SIMD
    /// environment override, then the fastest this CPU supports.
    std::optional<simd::SimdType> simd_isa;
    /// Numerical-health watchdog (md/health.h): engaged when set, consulted
    /// every policy.check_every steps after the step completes.  Violations
    /// raise NumericalFailure with step/kernel context.
    std::optional<HealthPolicy> health;
    /// When a step fails under the neighbour-list kernel (injected rebuild
    /// fault, or a watchdog violation while the state is still finite),
    /// restore the pre-step state and fall back to the reference N^2 kernel
    /// for the remainder of the run instead of aborting.
    bool degrade_to_reference = false;
    /// Resume normally fails loudly when the checkpoint records a different
    /// kernel or precision than this run resolves to (the arithmetic would
    /// silently change and break the bitwise-resume guarantee; the recorded
    /// ISA need not match, every ISA computes the same bits).  True skips
    /// the check — an explicit operator decision (--resume-force).
    bool ignore_checkpoint_config = false;
  };

  explicit Simulation(const Options& options);

  /// Restore from a checkpoint stream written by save().  The LJ/dt options
  /// must be supplied again (they are simulation parameters, not state).
  static Simulation resume(std::istream& checkpoint, const Options& options);

  /// Restore from an already-parsed checkpoint (e.g. via CheckpointManager's
  /// verified, fallback-aware load).  Version-2+ checkpoints carry the
  /// stored potential energy, so the restored accelerations are trusted as
  /// the primed state and NO re-priming force evaluation runs — the property
  /// that makes a resumed run continue bit-identically.  Version-1
  /// checkpoints re-prime as before.
  ///
  /// When the checkpoint records its producing run's configuration (v3),
  /// the resolved kernel and precision of this resume must match it; any
  /// mismatch throws RuntimeFailure unless Options::ignore_checkpoint_config
  /// is set.  The recorded ISA may differ: every ISA computes the same bits.
  static Simulation resume(Checkpoint checkpoint, const Options& options);

  const ParticleSystem& system() const { return system_; }
  ParticleSystem& system() { return system_; }
  const PeriodicBox& box() const { return box_; }
  long current_step() const { return step_; }
  const StepEnergies& last_energies() const { return last_energies_; }

  /// The kernel kAuto resolved to (or the explicitly requested one).
  SimKernel kernel() const { return kernel_kind_; }
  /// Precision mode the run was configured with (Options::precision).
  PrecisionMode precision() const { return precision_; }
  /// Instruction set the fast-path kernel dispatched to at construction;
  /// empty for the scalar kernels (reference, cell-list) and after a
  /// degrade-to-reference fallback.
  std::optional<simd::SimdType> simd_isa() const { return simd_isa_; }
  /// SIMD lane count the dispatched kernel executes per pack — a runtime
  /// property of the selected ISA, NOT the compile-time native width.
  /// 1 for the scalar kernels.
  std::size_t simd_width() const { return simd_width_; }
  /// Neighbour-list rebuilds so far; 0 for the stateless kernels.
  std::uint64_t list_rebuilds() const;
  /// Cumulative wall-clock seconds the neighbour-list builds spent binning
  /// (counting sort + stencil tables) and filling (distance sweep +
  /// compaction); 0 for the stateless kernels.  The host-parallel backend
  /// reports these as metadata keys list_build_bin_ms / list_build_fill_ms.
  double list_build_bin_seconds() const;
  double list_build_fill_seconds() const;
  /// Integrator-driven LJ force evaluations so far (primes + steps).
  std::uint64_t force_evaluations() const { return force_evaluations_; }
  /// True once a failure made the run fall back to the reference kernel
  /// (Options::degrade_to_reference).
  bool degraded() const { return degraded_; }
  /// Watchdog checks performed so far (0 when no health policy is set).
  std::uint64_t health_checks() const {
    return health_ ? health_->checks_run() : 0;
  }

  /// Advance one step; returns the post-step energies.
  StepEnergies step();

  /// Advance `steps` steps, invoking `observer` (if given) after each.
  using Observer = std::function<void(long step, const StepEnergies&)>;
  void run(int steps, const Observer& observer = {});

  /// Serialise snapshot() (checkpoint format v4: potential energy, CRC-32
  /// footer, the resolved kernel/precision/ISA configuration, and the
  /// neighbour list's reference positions).  Saving perturbs nothing: a run
  /// that saves every step is bitwise identical to one that never saves, and
  /// a resume from the file continues bit-exactly.
  void save(std::ostream& out) const;

  /// Capture the full state as a Checkpoint without perturbing the run — the
  /// seam save() and the trajectory store share.  The checkpoint carries the
  /// live list's reference positions (v4 `listref` section), so a resume()
  /// from it reseeds the identical list and continues bit-exactly.
  Checkpoint snapshot() const;

 private:
  /// `restored_potential` non-null restores a checkpointed state verbatim:
  /// the stored accelerations are the primed state, so prime() is skipped
  /// and *restored_potential supplies the potential energy.
  Simulation(ParticleSystem system, PeriodicBox box, long step,
             const Options& options, const double* restored_potential = nullptr);
  void prime();
  /// The configuration recorded in checkpoints (resolved kernel and
  /// precision, which fix the arithmetic, and the dispatched ISA).
  CheckpointConfig config() const;
  StepEnergies step_once();
  void degrade_now();

  PeriodicBox box_;
  ParticleSystem system_;
  LjParams lj_;
  VelocityVerlet integrator_;
  SimKernel kernel_kind_;                   ///< resolved, never kAuto
  PrecisionMode precision_ = PrecisionMode::kDouble;
  std::optional<simd::SimdType> simd_isa_;  ///< dispatched ISA; see simd_isa()
  std::size_t simd_width_ = 1;
  /// Non-owning control view of lj_kernel_ when it is one of the
  /// neighbour-list kernels (dp, sp or mixed): rebuild statistics plus the
  /// reference-position capture/reseed pair checkpoints rest on.  nullptr
  /// otherwise.
  NeighborListControl* list_control_ = nullptr;
  std::unique_ptr<ForceKernel> lj_kernel_;
  std::optional<HealthMonitor> health_;
  bool degrade_enabled_ = false;
  bool degraded_ = false;
  StepEnergies last_energies_{};
  long step_ = 0;
  std::uint64_t force_evaluations_ = 0;
};

/// Map the backend-facing RunConfig onto Simulation options: workload, LJ
/// parameters, dt, kernel choice, precision, ISA, degrade flag, health
/// policy (drift_tolerance > 0) and the resume-force override.  One mapping
/// shared by the host-parallel backend, the job scheduler and the tests that
/// must construct bitwise-equivalent standalone runs.
Simulation::Options simulation_options_from(const RunConfig& config,
                                            ThreadPool* pool);

}  // namespace emdpa::md
