// Checkpointing: save and restore a complete simulation state (extension).
//
// Text format, versioned, round-trip exact: floating-point values are
// written as hex floats so a restored run continues bit-identically.
//
// Version 4 (written by save_checkpoint; versions 1–3 still load):
//
//   emdpa-checkpoint 4
//   atoms <N> mass <m> box <edge> step <k> pe <pe>
//   config kernel <kernel> precision <mode> simd <isa>     (optional line)
//   rng langevin <s0> <s1> <s2> <s3> <cached> <flag>       (optional line)
//   listref <N> cutoff <c>                                 (optional section)
//   <x> <y> <z>                                            (N lines, if listref)
//   <x> <y> <z> <vx> <vy> <vz> <ax> <ay> <az>              (N lines)
//   crc <8 hex digits>
//
// The footer is the CRC-32 of every byte before the "crc" line; a flipped
// bit, a truncated tail or a torn write fails verification, which is what
// lets CheckpointManager fall back to the previous generation instead of
// resuming from silent corruption.  The `pe` field carries the potential
// energy of the stored state so a resumed run can skip the re-priming force
// evaluation entirely — the stored accelerations ARE the primed state, the
// property the bitwise resume guarantee rests on.
//
// The two optional v3 lines close the resume-correctness holes the v2
// format left open:
//
//  * `config` records the force kernel, precision mode and dispatched SIMD
//    ISA that produced the state.  Earlier formats stored none of it, so
//    resuming an `sp` run under different flags silently continued with
//    different arithmetic — bitwise-identical-looking files, divergent
//    trajectories.  Simulation::resume compares the recorded kernel and
//    precision against the resumed run's resolved ones and fails loudly on
//    a mismatch (Options::ignore_checkpoint_config / --resume-force
//    overrides explicitly).  The ISA is recorded for reports and bisect but
//    not compared: every dispatched ISA computes the same bits, so a run
//    saved under one resumes bitwise under any other.
//  * `rng langevin` carries the full Xoshiro256** state of the Langevin
//    thermostat — the four state words plus the cached Box–Muller second
//    deviate — so a resumed thermostatted run continues the identical noise
//    sequence instead of re-seeding and diverging.
//
// The optional v4 `listref` section carries the reference positions (and
// combined cutoff+skin radius) the active neighbour list was built from.
// The list build is a pure function of (positions, box, cutoff), so a
// restore rebuilds the IDENTICAL list from this section instead of
// rebuilding from the current state.  That is what makes saving a pure
// observer: Simulation::save() and the trajectory store both serialise
// Simulation::snapshot(), a run that saves is bitwise identical to one that
// never saves, and a resume from either continues bit-exactly.  Files
// without the section (older saves, raw-state saves, stateless kernels)
// still resume: the list is rebuilt from the saved state.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/random.h"
#include "md/box.h"
#include "md/particle_system.h"

namespace emdpa::md {

/// Run configuration recorded in a v3 checkpoint: the kernel and precision,
/// which change the arithmetic of the trajectory without changing the state
/// layout, and the dispatched ISA, which does not change it (recorded for
/// reports).  Stored as the report-facing strings (to_string(SimKernel),
/// to_string(PrecisionMode), simd::to_string or "none") so the file stays
/// self-describing.
struct CheckpointConfig {
  std::string kernel;
  std::string precision;
  std::string simd;

  bool operator==(const CheckpointConfig& other) const = default;
};

struct Checkpoint {
  ParticleSystem system;
  double box_edge = 0.0;
  long step = 0;
  /// Potential energy of the stored state (version >= 2).
  double potential = 0.0;
  /// False for version-1 files, which predate the pe field; a resume from
  /// such a file must re-prime instead of trusting `potential`.
  bool has_potential = false;
  /// Producing run's configuration, when the writer recorded it (files
  /// written by Simulation::save; absent in raw-state saves and version 1-2
  /// files, which resume unverified as before).
  std::optional<CheckpointConfig> config;
  /// Langevin thermostat RNG state, when one was attached at save time.
  std::optional<Rng::State> langevin_rng;
  /// Neighbour-list reference positions (v4 `listref` section): the
  /// positions the active list was built from, widened to double (exact for
  /// the sp/mixed float lists).  Written by Simulation::snapshot() (and so
  /// by save()) whenever a list is live, consumed by Simulation::resume() to
  /// reseed an identical list; absent in raw-state saves and older files.
  std::optional<std::vector<emdpa::Vec3d>> list_ref;
  /// Combined cutoff+skin radius the list was built with (meaningful only
  /// when list_ref is set).
  double list_ref_cutoff = 0.0;
};

/// Serialise raw state to `out` (format version 4, no optional sections).
/// Throws RuntimeFailure on stream errors.
void save_checkpoint(std::ostream& out, const ParticleSystem& system,
                     const PeriodicBox& box, long step, double potential = 0.0);

/// Serialise a full checkpoint including the optional config, RNG and
/// listref sections.  `cp.has_potential` is ignored: v2+ always stores pe.
void save_checkpoint(std::ostream& out, const Checkpoint& cp);

/// Parse a checkpoint from `in`.  Accepts versions 1–4; versions >= 2 are
/// verified against their CRC footer.  Throws RuntimeFailure on malformed or
/// corrupt input (bad magic, wrong version, truncated atom records, checksum
/// mismatch, non-finite values).
Checkpoint load_checkpoint(std::istream& in);

}  // namespace emdpa::md
