#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "core/crc32.h"
#include "core/error.h"
#include "md/checkpoint.h"
#include "md/checkpoint_manager.h"
#include "md/workload.h"

namespace emdpa::md {
namespace {

namespace fs = std::filesystem;

/// v2+ files end in a CRC-32 footer over everything before it; hand-written
/// fixtures need a valid one to reach the parser under test.
std::string with_crc_footer(const std::string& body) {
  char footer[24];
  std::snprintf(footer, sizeof(footer), "crc %08x\n", crc32(body));
  return body + footer;
}

ParticleSystem sample_system() {
  WorkloadSpec spec;
  spec.n_atoms = 27;
  Workload w = make_lattice_workload(spec);
  w.system.accelerations()[3] = {0.1, -0.2, 0.3};
  return std::move(w.system);
}

TEST(Checkpoint, RoundTripIsBitExact) {
  const ParticleSystem original = sample_system();
  PeriodicBox box(5.5);

  std::stringstream stream;
  save_checkpoint(stream, original, box, 42);
  const Checkpoint cp = load_checkpoint(stream);

  EXPECT_EQ(cp.step, 42);
  EXPECT_DOUBLE_EQ(cp.box_edge, 5.5);
  ASSERT_EQ(cp.system.size(), original.size());
  EXPECT_EQ(cp.system.mass(), original.mass());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(cp.system.positions()[i], original.positions()[i]);
    EXPECT_EQ(cp.system.velocities()[i], original.velocities()[i]);
    EXPECT_EQ(cp.system.accelerations()[i], original.accelerations()[i]);
  }
}

TEST(Checkpoint, PreservesExtremeValues) {
  ParticleSystem ps(1);
  ps.positions()[0] = {1e-300, -1e300, 0.1};  // 0.1 is not exact in binary
  ps.velocities()[0] = {-0.0, 3.14159265358979323846, 1e-17};
  std::stringstream stream;
  save_checkpoint(stream, ps, PeriodicBox(1.0), 0);
  const Checkpoint cp = load_checkpoint(stream);
  EXPECT_EQ(cp.system.positions()[0], ps.positions()[0]);
  EXPECT_EQ(cp.system.velocities()[0], ps.velocities()[0]);
  // Even the sign of zero survives the hex-float round trip.
  EXPECT_TRUE(std::signbit(cp.system.velocities()[0].x));
}

TEST(Checkpoint, DenormalsRoundTripExactly) {
  ParticleSystem ps(1);
  // 5e-324 is the smallest positive subnormal double; the others sit just
  // below the normal range.  %a / stod must carry them through unchanged.
  ps.positions()[0] = {5e-324, -5e-324, 2.2250738585072009e-308};
  ps.velocities()[0] = {-2.2250738585072014e-308, 0.0, 1e-310};
  std::stringstream stream;
  save_checkpoint(stream, ps, PeriodicBox(1.0), 0);
  const Checkpoint cp = load_checkpoint(stream);
  EXPECT_EQ(cp.system.positions()[0], ps.positions()[0]);
  EXPECT_EQ(cp.system.velocities()[0], ps.velocities()[0]);
}

TEST(Checkpoint, NegativeZeroSignSurvivesEveryField) {
  ParticleSystem ps(1);
  ps.positions()[0] = {-0.0, 0.0, -0.0};
  ps.accelerations()[0] = {0.0, -0.0, 0.0};
  std::stringstream stream;
  save_checkpoint(stream, ps, PeriodicBox(1.0), 0);
  const Checkpoint cp = load_checkpoint(stream);
  EXPECT_TRUE(std::signbit(cp.system.positions()[0].x));
  EXPECT_FALSE(std::signbit(cp.system.positions()[0].y));
  EXPECT_TRUE(std::signbit(cp.system.positions()[0].z));
  EXPECT_TRUE(std::signbit(cp.system.accelerations()[0].y));
}

TEST(Checkpoint, RejectsInfinityInState) {
  // stod parses "inf" happily; the loader must not — a non-finite state can
  // only come from corruption or a blown-up run.
  std::stringstream stream(
      "emdpa-checkpoint 1\natoms 1 mass 0x1p+0 box 0x1p+0 step 0\n"
      "inf 0 0 0 0 0 0 0 0\n");
  EXPECT_THROW(load_checkpoint(stream), RuntimeFailure);
}

TEST(Checkpoint, RejectsNanInState) {
  std::stringstream stream(
      "emdpa-checkpoint 1\natoms 1 mass 0x1p+0 box 0x1p+0 step 0\n"
      "0 0 0 nan 0 0 0 0 0\n");
  EXPECT_THROW(load_checkpoint(stream), RuntimeFailure);
}

TEST(Checkpoint, RejectsNonFiniteMass) {
  std::stringstream stream(
      "emdpa-checkpoint 1\natoms 1 mass inf box 0x1p+0 step 0\n"
      "0 0 0 0 0 0 0 0 0\n");
  EXPECT_THROW(load_checkpoint(stream), RuntimeFailure);
}

TEST(Checkpoint, RejectsGarbledStateLineKeyword) {
  // "atoms" misspelt: the state line must be rejected before any parsing.
  std::stringstream stream(
      "emdpa-checkpoint 1\natomz 1 mass 0x1p+0 box 0x1p+0 step 0\n"
      "0 0 0 0 0 0 0 0 0\n");
  EXPECT_THROW(load_checkpoint(stream), RuntimeFailure);
}

TEST(Checkpoint, RejectsTruncatedStateLine) {
  std::stringstream stream("emdpa-checkpoint 1\natoms 1 mass 0x1p+0\n");
  EXPECT_THROW(load_checkpoint(stream), RuntimeFailure);
}

TEST(Checkpoint, RejectsTrailingGarbageInNumber) {
  std::stringstream stream(
      "emdpa-checkpoint 1\natoms 1 mass 1.0x box 0x1p+0 step 0\n"
      "0 0 0 0 0 0 0 0 0\n");
  EXPECT_THROW(load_checkpoint(stream), RuntimeFailure);
}

TEST(Checkpoint, RejectsBadMagic) {
  std::stringstream stream("not-a-checkpoint 1\n");
  EXPECT_THROW(load_checkpoint(stream), RuntimeFailure);
}

TEST(Checkpoint, RejectsWrongVersion) {
  std::stringstream stream("emdpa-checkpoint 99\natoms 0 mass 1 box 1 step 0\n");
  EXPECT_THROW(load_checkpoint(stream), RuntimeFailure);
}

TEST(Checkpoint, RejectsTruncatedAtoms) {
  const ParticleSystem original = sample_system();
  std::stringstream stream;
  save_checkpoint(stream, original, PeriodicBox(5.5), 0);
  std::string text = stream.str();
  text.resize(text.size() * 2 / 3);  // cut mid-atom
  std::stringstream cut(text);
  EXPECT_THROW(load_checkpoint(cut), RuntimeFailure);
}

TEST(Checkpoint, RejectsMalformedNumbers) {
  std::stringstream stream(
      "emdpa-checkpoint 1\natoms 1 mass banana box 1 step 0\n"
      "0 0 0 0 0 0 0 0 0\n");
  EXPECT_THROW(load_checkpoint(stream), RuntimeFailure);
}

TEST(Checkpoint, RejectsMissingHeader) {
  std::stringstream stream("");
  EXPECT_THROW(load_checkpoint(stream), RuntimeFailure);
}

TEST(Checkpoint, EmptySystemRoundTrips) {
  ParticleSystem ps(1);
  std::stringstream stream;
  save_checkpoint(stream, ps, PeriodicBox(2.0), 7);
  const Checkpoint cp = load_checkpoint(stream);
  EXPECT_EQ(cp.system.size(), 1u);
  EXPECT_EQ(cp.step, 7);
}

// --- v3: optional run-configuration section; legacy RNG section ----------

TEST(Checkpoint, RawSaveRecordsNoConfigOrRng) {
  // The raw state overload has no configuration to record; the optional
  // sections stay absent so old callers keep their exact behaviour.
  std::stringstream stream;
  save_checkpoint(stream, sample_system(), PeriodicBox(5.5), 1);
  EXPECT_EQ(stream.str().find("\nrng "), std::string::npos);
  const Checkpoint cp = load_checkpoint(stream);
  EXPECT_FALSE(cp.config.has_value());
}

TEST(Checkpoint, ConfigSectionRoundTrips) {
  Checkpoint original;
  original.system = sample_system();
  original.box_edge = 5.5;
  original.step = 99;
  original.potential = -123.456;
  original.config = CheckpointConfig{"neighbor-list", "mixed", "avx2"};

  std::stringstream stream;
  save_checkpoint(stream, original);
  const Checkpoint cp = load_checkpoint(stream);

  ASSERT_TRUE(cp.config.has_value());
  EXPECT_EQ(cp.config->kernel, "neighbor-list");
  EXPECT_EQ(cp.config->precision, "mixed");
  EXPECT_EQ(cp.config->simd, "avx2");
  EXPECT_EQ(cp.step, 99);
  EXPECT_DOUBLE_EQ(cp.potential, -123.456);
}

/// A v4 file as a thermostatted run used to write it: CRC-valid, with a
/// well-formed `rng langevin` line between the config line and the atoms.
std::string legacy_rng_checkpoint(long step) {
  return with_crc_footer(
      "emdpa-checkpoint 4\n"
      "atoms 1 mass 0x1p+0 box 0x1p+2 step " + std::to_string(step) +
      " pe 0x0p+0\n"
      "config kernel reference precision dp simd none\n"
      "rng langevin deadbeefcafebabe 0123456789abcdef ffffffffffffffff "
      "0000000000000001 -0x1.76cf5d0b09955p-1 1\n"
      "0 0 0 0 0 0 0 0 0\n");
}

TEST(Checkpoint, LangevinRngSectionIsRejected) {
  // Thermostats are gone; resuming without the recorded noise state would
  // continue a different trajectory, so the section fails typed instead of
  // being skipped.
  std::stringstream stream(legacy_rng_checkpoint(3));
  try {
    load_checkpoint(stream);
    FAIL() << "a checkpoint carrying an rng section must not load";
  } catch (const RuntimeFailure& e) {
    EXPECT_STREQ(e.what(),
                 "checkpoint: 'rng langevin' section is no longer supported "
                 "(thermostats were removed)");
  }

  // CheckpointManager treats it like any other unloadable generation.
  const fs::path path =
      fs::path(::testing::TempDir()) / "ckpt_legacy_rng_section";
  fs::remove(path.string() + ".prev");
  CheckpointManager manager(path.string());
  manager.save(sample_system(), PeriodicBox(5.5), 2);
  manager.save(sample_system(), PeriodicBox(5.5), 3);
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << legacy_rng_checkpoint(3);
  const CheckpointLoad loaded = manager.load();
  EXPECT_TRUE(loaded.used_fallback);
  EXPECT_EQ(loaded.checkpoint.step, 2);
  EXPECT_EQ(loaded.source_path, manager.previous_path());
  fs::remove(path);
  fs::remove(path.string() + ".prev");
}

TEST(Checkpoint, V2WithoutOptionalSectionsStillLoads) {
  // A pre-v3 checkpoint (no config line) must parse exactly as before:
  // config absent, state intact.
  std::stringstream stream(with_crc_footer(
      "emdpa-checkpoint 2\n"
      "atoms 1 mass 0x1p+0 box 0x1p+2 step 5 pe -0x1.8p+1\n"
      "0 0 0 0 0 0 0 0 0\n"));
  const Checkpoint cp = load_checkpoint(stream);
  EXPECT_EQ(cp.step, 5);
  EXPECT_TRUE(cp.has_potential);
  EXPECT_FALSE(cp.config.has_value());
}

TEST(Checkpoint, RejectsTruncatedConfigLine) {
  std::stringstream stream(with_crc_footer(
      "emdpa-checkpoint 3\n"
      "atoms 1 mass 0x1p+0 box 0x1p+2 step 0 pe 0x0p+0\n"
      "config kernel reference precision\n"
      "0 0 0 0 0 0 0 0 0\n"));
  EXPECT_THROW(load_checkpoint(stream), RuntimeFailure);
}

TEST(Checkpoint, RejectsMalformedRngLine) {
  std::stringstream stream(with_crc_footer(
      "emdpa-checkpoint 3\n"
      "atoms 1 mass 0x1p+0 box 0x1p+2 step 0 pe 0x0p+0\n"
      "rng langevin zzzz 0 0 0 0x0p+0 0\n"
      "0 0 0 0 0 0 0 0 0\n"));
  EXPECT_THROW(load_checkpoint(stream), RuntimeFailure);
}

TEST(Checkpoint, ListrefSectionRoundTripsBitExact) {
  Checkpoint original;
  original.system = sample_system();
  original.box_edge = 5.5;
  original.step = 7;
  std::vector<Vec3d> ref(original.system.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ref[i] = {0.1 * static_cast<double>(i), -0.0, 1e-310};  // awkward values
  }
  original.list_ref = ref;
  original.list_ref_cutoff = 2.8;

  std::stringstream stream;
  save_checkpoint(stream, original);
  const Checkpoint cp = load_checkpoint(stream);

  ASSERT_TRUE(cp.list_ref.has_value());
  ASSERT_EQ(cp.list_ref->size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ((*cp.list_ref)[i], ref[i]) << "atom " << i;
  }
  EXPECT_TRUE(std::signbit((*cp.list_ref)[1].y));
  EXPECT_DOUBLE_EQ(cp.list_ref_cutoff, 2.8);
}

TEST(Checkpoint, ListrefRejectsAtomCountMismatch) {
  std::stringstream stream(with_crc_footer(
      "emdpa-checkpoint 4\n"
      "atoms 1 mass 0x1p+0 box 0x1p+2 step 0 pe 0x0p+0\n"
      "listref 2 cutoff 0x1p+1\n"
      "0 0 0\n"
      "0 0 0\n"
      "0 0 0 0 0 0 0 0 0\n"));
  EXPECT_THROW(load_checkpoint(stream), RuntimeFailure);
}

TEST(Checkpoint, ListrefRejectsNonPositiveCutoff) {
  std::stringstream stream(with_crc_footer(
      "emdpa-checkpoint 4\n"
      "atoms 1 mass 0x1p+0 box 0x1p+2 step 0 pe 0x0p+0\n"
      "listref 1 cutoff -0x1p+1\n"
      "0 0 0\n"
      "0 0 0 0 0 0 0 0 0\n"));
  EXPECT_THROW(load_checkpoint(stream), RuntimeFailure);
}

TEST(Checkpoint, RejectsAtomCountTheBodyCannotHold) {
  // CRC-valid, but the header claims four billion atoms over a one-record
  // body: the parser must fail typed before it sizes any allocation.
  std::stringstream stream(with_crc_footer(
      "emdpa-checkpoint 4\n"
      "atoms 4000000000 mass 0x1p+0 box 0x1p+2 step 0 pe 0x0p+0\n"
      "0 0 0 0 0 0 0 0 0\n"));
  try {
    load_checkpoint(stream);
    FAIL() << "an impossible atom count loaded";
  } catch (const RuntimeFailure& e) {
    EXPECT_NE(std::string(e.what()).find("atom count 4000000000"),
              std::string::npos)
        << e.what();
  }
}

TEST(Checkpoint, RejectsNonPositiveMassOrBoxEdgeTyped) {
  // CRC-valid files whose mass or box edge is zero or negative are malformed
  // input: they must fail as RuntimeFailure (which CheckpointManager falls
  // back from), not as a contract violation from ParticleSystem::set_mass or
  // PeriodicBox.
  const std::pair<const char*, const char*> cases[] = {
      {"mass 0x0p+0 box 0x1p+2", "mass must be positive"},
      {"mass -0x0p+0 box 0x1p+2", "mass must be positive"},
      {"mass -0x1p+0 box 0x1p+2", "mass must be positive"},
      {"mass 0x1p+0 box 0x0p+0", "box edge must be positive"},
      {"mass 0x1p+0 box -0x0p+0", "box edge must be positive"},
      {"mass 0x1p+0 box -0x1p+2", "box edge must be positive"}};
  for (const auto& [fields, message] : cases) {
    SCOPED_TRACE(fields);
    std::stringstream stream(with_crc_footer(
        std::string("emdpa-checkpoint 4\natoms 1 ") + fields +
        " step 0 pe 0x0p+0\n0 0 0 0 0 0 0 0 0\n"));
    try {
      load_checkpoint(stream);
      FAIL() << "an impossible state line loaded";
    } catch (const RuntimeFailure& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << e.what();
    }
  }
}

TEST(Checkpoint, RejectsNegativeStepTyped) {
  // A CRC-valid file whose step is negative is malformed input: a resume
  // from it would report itself as a fresh run.  Step 0 stays valid.
  for (const char* step : {"-1", "-5", "-2147483648"}) {
    SCOPED_TRACE(step);
    std::stringstream stream(with_crc_footer(
        std::string("emdpa-checkpoint 4\natoms 1 mass 0x1p+0 box 0x1p+2 "
                    "step ") +
        step + " pe 0x0p+0\n0 0 0 0 0 0 0 0 0\n"));
    try {
      load_checkpoint(stream);
      FAIL() << "a negative step loaded";
    } catch (const RuntimeFailure& e) {
      EXPECT_NE(std::string(e.what()).find("step must be non-negative"),
                std::string::npos)
          << e.what();
    }
  }
  std::stringstream zero(with_crc_footer(
      "emdpa-checkpoint 4\natoms 1 mass 0x1p+0 box 0x1p+2 step 0 pe 0x0p+0\n"
      "0 0 0 0 0 0 0 0 0\n"));
  EXPECT_EQ(load_checkpoint(zero).step, 0);
}

TEST(Checkpoint, V3FilesDoNotAdmitListref) {
  // The section is a v4 addition; a v3 file carrying it is malformed.
  std::stringstream stream(with_crc_footer(
      "emdpa-checkpoint 3\n"
      "atoms 1 mass 0x1p+0 box 0x1p+2 step 0 pe 0x0p+0\n"
      "listref 1 cutoff 0x1p+1\n"
      "0 0 0\n"
      "0 0 0 0 0 0 0 0 0\n"));
  EXPECT_THROW(load_checkpoint(stream), RuntimeFailure);
}

}  // namespace
}  // namespace emdpa::md
