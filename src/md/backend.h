// MdBackend: the top-level "run this MD workload on this device" interface.
//
// A backend owns a device model (or the plain host) and runs the full MD
// kernel of the paper — prime, then `steps` velocity-Verlet steps — on it,
// reporting modelled device time with a per-component breakdown (compute,
// data transfer, thread-launch overhead, …) plus the physics outputs so
// tests can verify every backend computes the same trajectory.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/op_counter.h"
#include "core/simd/pack_fwd.h"
#include "core/time_model.h"
#include "md/integrator.h"
#include "md/lj_potential.h"
#include "md/particle_system.h"
#include "md/precision.h"
#include "md/workload.h"

namespace emdpa::md {

/// Force-kernel selection for backends that execute on the real host
/// (currently host-parallel).  kAuto picks the N^2 SoA batch kernel below
/// the measured crossover atom count and the O(N) neighbour-list path above
/// it; device-model backends ignore the choice entirely.
enum class HostKernel { kAuto, kN2, kList };

const char* to_string(HostKernel kernel);

struct RunConfig {
  WorkloadSpec workload;
  LjParams lj{};        ///< epsilon=sigma=1, cutoff=2.5 by default
  double dt = 0.005;
  int steps = 10;       ///< the paper's experiments run 10 time steps
  HostKernel host_kernel = HostKernel::kAuto;
  /// Numeric precision of the host fast-path kernels (--precision; honoured
  /// by the host-parallel backend, the device models keep the precisions
  /// the paper mandates for them).
  PrecisionMode precision = PrecisionMode::kDouble;
  /// Force the SIMD instruction set of the host fast-path kernels (--simd;
  /// host-parallel backend only).  Empty resolves the EMDPA_SIMD
  /// environment override, then the fastest this CPU supports.
  std::optional<simd::SimdType> simd_isa;

  // Resilience knobs, honoured by the host-parallel backend (the device
  // timing models ignore them — they replay a fixed workload, not a
  // long-running production job).
  /// Save a checkpoint to checkpoint_path every N completed steps (0 = off).
  /// Writes are atomic (temp file + CRC-32 footer + rename) and a transient
  /// I/O failure skips the interval and retries at the next one.
  int checkpoint_every = 0;
  /// Destination for periodic checkpoints and for the emergency checkpoint
  /// written when a run aborts on a NumericalFailure with finite state.
  std::string checkpoint_path;
  /// Resume from this checkpoint (latest generation, falling back to the
  /// rotated previous one on corruption).  `steps` is then the TOTAL step
  /// target: a run resumed at step 250 with steps=500 executes 250 more.
  std::string resume_path;
  /// Resume even when the checkpoint records a different kernel or
  /// precision than this run resolves to (--resume-force).  Default:
  /// mismatch fails loudly — continuing under different arithmetic silently
  /// breaks the bitwise-resume guarantee.  The recorded ISA never has to
  /// match: every dispatched ISA computes the same bits.
  bool resume_force = false;
  /// On a neighbour-list kernel failure, restore the pre-step state and fall
  /// back to the reference N^2 kernel instead of aborting.
  bool degrade = false;
  /// >0 arms the numerical-health watchdog with this relative energy-drift
  /// tolerance (plus the default finite/displacement checks).
  double drift_tolerance = 0.0;

  // Time-travel trajectory store (md/trajectory_store.h), honoured by the
  // host-parallel backend.  Snapshots are pure observers: a store-enabled
  // run's trajectory is bitwise identical to a store-disabled one.
  /// Directory for the snapshot ring; empty = no store.
  std::string store_dir;
  /// Snapshot every N completed steps (plus step 0 and the final step).
  /// 0 with a store_dir set still snapshots the endpoints.  A resumed run
  /// takes no snapshot at or before its store's newest step.
  int store_every = 0;
  /// Every K-th snapshot is a full keyframe; the rest are XOR deltas.
  int store_keyframe_every = 8;
  /// Disk budget across all frames (ring eviction of oldest whole chains);
  /// 0 = unbounded.
  std::uint64_t store_max_bytes = 0;

  // Streaming observables channel (md/watch.h; --watch energy,max_disp).
  /// Comma-separated observable list; empty = off.
  std::string watch;
  /// Emit on steps divisible by this (the baseline state also emits).
  int watch_every = 1;
  /// Where watch lines go; the CLI points this at std::cout.  Ignored when
  /// `watch` is empty; must be non-null when it is not.
  std::ostream* watch_stream = nullptr;
};

struct RunResult {
  std::string backend_name;

  /// Modelled end-to-end device runtime for the `steps` steps (the quantity
  /// the paper's tables and figures report).  Zero for the plain host
  /// backend, which has no device model.
  ModelTime device_time;

  /// Named components of device_time (e.g. "compute", "spe_launch",
  /// "pcie_transfer").  Components sum to at most device_time.
  std::map<std::string, ModelTime> breakdown;

  /// Dimensionless execution-layer facts (thread count, SIMD width,
  /// neighbour-list rebuilds, ...).  Kept apart from `breakdown` so reports
  /// never render a thread count with an "s" unit.
  std::map<std::string, double> metadata;

  /// Textual execution-layer facts (simd_isa, precision, ...) — the
  /// non-numeric companions of `metadata`, rendered in the same report
  /// section.
  std::map<std::string, std::string> labels;

  /// Modelled time of each integration step (size == steps).  Benches use
  /// these to extrapolate long runs from short ones at large atom counts.
  std::vector<ModelTime> step_times;

  /// Energies after priming (step 0) followed by one entry per step.
  std::vector<StepEnergies> energies;

  /// Final state, converted back to double precision at the host boundary.
  ParticleSystem final_state;

  /// Event counts the timing model priced (pairs, DMA bytes, misses, …).
  OpCounter ops;

  ModelTime breakdown_component(const std::string& key) const;
};

class MdBackend {
 public:
  virtual ~MdBackend() = default;

  virtual std::string name() const = 0;

  /// "single" or "double" — the arithmetic precision of the device kernels
  /// (the paper runs Cell/GPU single, MTA-2/Opteron double).
  virtual std::string precision() const = 0;

  virtual RunResult run(const RunConfig& config) = 0;
};

/// Plain host reference backend: double precision, reference N^2 kernel, no
/// device timing model.  Ground truth for the physics tests.
class HostReferenceBackend final : public MdBackend {
 public:
  std::string name() const override { return "host-reference"; }
  std::string precision() const override { return "double"; }
  RunResult run(const RunConfig& config) override;
};

/// Real parallel host backend: SoA/SIMD force kernels with atom rows spread
/// over the shared thread pool.  No device timing model — this backend
/// exists to run the physics as fast as the build machine allows.  Per
/// RunConfig::host_kernel it runs either the N^2 SoA batch kernel or the
/// O(N) neighbour-list path (kAuto crosses over at kListCrossoverAtoms);
/// RunConfig::precision / simd_isa pick the kernels' numeric mode and
/// instruction set (runtime-dispatched, not compile-time).  Wall-clock time
/// lands in breakdown["host_wall"], the numeric execution facts (threads,
/// the dispatched kernel's actual simd_width, kernel_list, list_rebuilds)
/// in RunResult::metadata, and the textual ones (simd_isa, precision) in
/// RunResult::labels.  In dp mode energies match host-reference to
/// double-precision reduction tolerance and are bit-identical run to run at
/// any thread count — and across dispatched ISAs.
class HostParallelBackend final : public MdBackend {
 public:
  /// Atom count at which kAuto switches from the N^2 SoA kernel to the
  /// neighbour-list path.  Measured, not guessed: in the CI native-bench
  /// artifacts (Release, -march=native) BM_NeighborListParallel already
  /// edges out BM_SoaKernelParallel at 1024 atoms (~0.6x the N^2 time),
  /// is ~3x faster by 2048 and ~10x by 4096, while at 512 the N^2 sweep's
  /// perfect streaming still wins.  Re-measure those rows before moving
  /// this; tests/md/kernel_crossover_test.cpp pins the boundary.
  static constexpr std::size_t kListCrossoverAtoms = 1024;

  std::string name() const override { return "host-parallel"; }
  std::string precision() const override { return "double"; }
  RunResult run(const RunConfig& config) override;
};

// ---- Device models -------------------------------------------------------
//
// Each of the paper's ports offloads only step 2 of the Figure-4 kernel (the
// acceleration computation) and keeps the velocity-Verlet integration on the
// host.  A device backend therefore supplies only that evaluation and the
// modelled-time charges around it; run_device_steps drives them through
// VelocityVerletT, the one place the step is written.

/// What a device model supplies to run_device_steps.
template <typename Real>
struct DeviceModelT {
  /// Step 2 on the device: writes the run's accelerations for its current
  /// positions and returns the potential energy with the modelled time the
  /// evaluation took.  A model that keeps one clock of its own reads a step's
  /// time off it once: evaluate returns the clock's advance since
  /// charge_integration began, and charge_integration returns zero.
  std::function<std::pair<Real, ModelTime>()> evaluate;
  /// Charges the host-side integration phases of one step (both half kicks,
  /// the drift and wrap, the energy sums) and returns their modelled time.
  /// Called after the drift, right before that step's evaluate.
  std::function<ModelTime()> charge_integration;
  /// Clears what the untimed prime charged; may be empty.
  std::function<void()> reset;
  /// One-time cost the first timed step also carries (the Cell's SPE thread
  /// launches).
  ModelTime launch;
};

/// Runs the untimed prime, `model.reset`, then config.steps timed
/// velocity-Verlet steps of config.dt.  Appends the prime's and every step's
/// energies to result.energies and each step's modelled time to
/// result.step_times (the launch on step 0 only, then the integration charge,
/// then the evaluation, summed in that order), and leaves the final state,
/// in double precision, in result.final_state.
template <typename Real>
void run_device_steps(ParticleSystemT<Real>& system,
                      const PeriodicBoxT<Real>& box, const RunConfig& config,
                      const DeviceModelT<Real>& model, RunResult& result);

/// The device time of a model that sums its step times: `launch` (the
/// one-time cost the timed region starts with), plus each step's time with
/// `step0_launch` taken back out of step 0's, added in step order.
ModelTime summed_device_time(const std::vector<ModelTime>& step_times,
                             ModelTime launch = {}, ModelTime step0_launch = {});

// Operation counts of the paper's original C kernel, counted from its code
// shape and shared by every timing model that prices it.

/// Per candidate pair of the N^2 loop: direction (3), the 27-image
/// minimum-image search (27 images x (3 shifted coordinates + 5 for r^2 + 1
/// compare/select) = 243; it already yields the best r^2, so there is no
/// separate dot product), cutoff compare (1), loop index and address
/// arithmetic (4).
inline constexpr double kSearch27OpsPerCandidate = 3 + 243 + 1 + 4;
/// Per interacting pair, on top of the candidate cost: the LJ force and
/// energy, divide included.
inline constexpr double kLjOpsPerInteraction = 30;
/// Per atom, the integration phases of one step: two half kicks (6 + 6),
/// drift (6), wrap (9) and the kinetic-energy term (7).
inline constexpr double kIntegrationOpsPerAtom = 34;
/// Per atom, packing positions into and unpacking accelerations from the
/// quadword arrays a Cell or GPU port exchanges with its device.
inline constexpr double kMarshalOpsPerAtom = 8;
/// Per atom, the host's linear sum of the per-atom PE the device returns.
inline constexpr double kPeSumOpsPerAtom = 1;

}  // namespace emdpa::md
