// Cell BE timing model: per-operation SPE cycle costs, PPE cost, and the
// system-level overheads (thread launch, mailbox signalling, per-step PPE
// orchestration).
//
// Calibration (see DESIGN.md §6 and EXPERIMENTS.md): architectural numbers
// (3.2 GHz clocks, 8 SPEs, 256 KB LS, DMA geometry) are the hardware's.  The
// per-op cycle costs model *2006-era compiled code*: the paper notes the
// GNU 4.x toolchain was "unable to perform significant code optimization",
// so scalar SPE operations pay the full rotate-to-slot/compute/rotate-back
// sequence at architectural latency with no scheduling overlap, SIMD ops pay
// their ~6-7 cycle latency un-overlapped plus operand shuffles, and every
// taken branch stalls the unhinted dual-issue pipeline.  The resulting class
// costs are calibrated jointly against Fig 5's optimisation staircase and
// Table 1's absolute runtimes.
#pragma once

#include <cstdint>

#include "cellsim/dma.h"
#include "core/time_model.h"
#include "md/backend.h"

namespace emdpa::cell {

/// PPE-side scalar work per atom for one step's integration phases (two
/// half-kicks, drift, wrap, kinetic energy) plus the pack/unpack of the
/// quadword arrays and the linear PE reduction.
inline constexpr double kPpeIntegrationOpsPerAtom =
    md::kIntegrationOpsPerAtom + md::kMarshalOpsPerAtom + md::kPeSumOpsPerAtom;

/// Cycle cost per dynamic operation class on one SPE.
struct SpeOpCosts {
  double scalar = 4.6;         ///< scalar float/int ALU op in the preferred slot
  double simd = 12.0;          ///< 4-wide arithmetic op at full latency, unscheduled
  double shuffle = 8.5;        ///< odd-pipe shuffle/select/splat/insert/extract
  double load_store = 20.0;    ///< LS access incl. address generation + rotate
  double branch_taken = 28.0;  ///< un-hinted taken branch (no prediction)
  double loop_iter = 20.0;     ///< per-iteration index/bookkeeping (excl. branch)
  double fdiv_scalar = 41.0;   ///< scalar divide (estimate + Newton steps)
  double fdiv_simd = 28.0;     ///< vector divide sequence
};

/// Dynamic operation counts accumulated by an SPE kernel run.
struct SpeWork {
  std::uint64_t scalar = 0;
  std::uint64_t simd = 0;
  std::uint64_t shuffle = 0;
  std::uint64_t load_store = 0;
  std::uint64_t branch_taken = 0;
  std::uint64_t loop_iter = 0;
  std::uint64_t fdiv_scalar = 0;
  std::uint64_t fdiv_simd = 0;

  SpeWork& operator+=(const SpeWork& o) {
    scalar += o.scalar;
    simd += o.simd;
    shuffle += o.shuffle;
    load_store += o.load_store;
    branch_taken += o.branch_taken;
    loop_iter += o.loop_iter;
    fdiv_scalar += o.fdiv_scalar;
    fdiv_simd += o.fdiv_simd;
    return *this;
  }

  CycleCount cycles(const SpeOpCosts& costs) const {
    return CycleCount(static_cast<double>(scalar) * costs.scalar +
                      static_cast<double>(simd) * costs.simd +
                      static_cast<double>(shuffle) * costs.shuffle +
                      static_cast<double>(load_store) * costs.load_store +
                      static_cast<double>(branch_taken) * costs.branch_taken +
                      static_cast<double>(loop_iter) * costs.loop_iter +
                      static_cast<double>(fdiv_scalar) * costs.fdiv_scalar +
                      static_cast<double>(fdiv_simd) * costs.fdiv_simd);
  }
};

struct CellConfig {
  double spe_clock_hz = 3.2e9;
  double ppe_clock_hz = 3.2e9;
  int n_spes = 8;
  std::size_t local_store_bytes = 256 * 1024;

  SpeOpCosts spe_costs;
  DmaConfig dma;

  /// Cost of spawning one SPE thread from the PPE (libspe create + load +
  /// run under the 2006 2.6-series kernel).  Calibrated against Fig 6:
  /// respawning 8 SPE threads on each of 10 steps costs ~2 s there.
  ModelTime thread_launch = ModelTime::milliseconds(26.0);

  /// PPE->SPE mailbox write plus SPE-side poll.
  ModelTime mailbox_signal = ModelTime::microseconds(1.0);

  /// Per-step PPE orchestration: integration bookkeeping, readiness checks,
  /// completion polling across SPEs.  Calibrated so the persistent 8-SPE
  /// configuration lands at Table 1's 0.789 s.
  ModelTime ppe_step_overhead = ModelTime::milliseconds(12.0);

  /// Effective cycles per scalar operation on the in-order dual-issue PPE
  /// with 2006 code generation — calibrated against Table 1's PPE-only row
  /// (20.5 s, about 5x slower than the Opteron).
  double ppe_cpi = 6.2;
};

}  // namespace emdpa::cell
