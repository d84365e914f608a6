#include "md/checkpoint.h"

#include <istream>
#include <ostream>
#include <sstream>
#include <string>

#include "core/crc32.h"
#include "core/error.h"
#include "core/hexio.h"

namespace emdpa::md {

namespace {

constexpr const char* kMagic = "emdpa-checkpoint";
constexpr int kVersion = 4;

std::string hex(double v) { return hexio::format_double(v); }

/// An atom record is 9 whitespace-separated tokens, each at least one byte
/// plus its leading separator.
constexpr std::size_t kMinAtomRecordBytes = 18;

/// Header + atom records (everything between the version line and the v2+
/// footer), shared by all format versions.
Checkpoint parse_body(std::istream& in, std::size_t body_bytes, int version) {
  std::string kw_atoms, kw_mass, kw_box, kw_step;
  std::size_t n = 0;
  std::string mass_tok, box_tok;
  long step = 0;
  if (!(in >> kw_atoms >> n >> kw_mass >> mass_tok >> kw_box >> box_tok >>
        kw_step >> step) ||
      kw_atoms != "atoms" || kw_mass != "mass" || kw_box != "box" ||
      kw_step != "step") {
    throw RuntimeFailure("checkpoint: malformed state line");
  }
  // Bound the atom count by what the rest of the body can hold BEFORE it
  // sizes any allocation: a CRC-valid header claiming billions of atoms is
  // malformed input, not an out-of-memory condition.
  const std::streamoff consumed =
      in.rdbuf()->pubseekoff(0, std::ios_base::cur, std::ios_base::in);
  const std::size_t remaining =
      consumed < 0 ? 0 : body_bytes - static_cast<std::size_t>(consumed);
  if (n > remaining / kMinAtomRecordBytes) {
    throw RuntimeFailure("checkpoint: atom count " + std::to_string(n) +
                         " exceeds what the remaining " +
                         std::to_string(remaining) + " bytes can hold");
  }

  Checkpoint cp;
  cp.system = ParticleSystem(n);
  cp.system.set_mass(hexio::parse_double(mass_tok, "mass"));
  cp.box_edge = hexio::parse_double(box_tok, "box edge");
  cp.step = step;
  EMDPA_REQUIRE(cp.box_edge > 0.0, "checkpoint box edge must be positive");

  if (version >= 2) {
    std::string kw_pe, pe_tok;
    if (!(in >> kw_pe >> pe_tok) || kw_pe != "pe") {
      throw RuntimeFailure("checkpoint: malformed state line (missing pe)");
    }
    cp.potential = hexio::parse_double(pe_tok, "potential energy");
    cp.has_potential = true;
  }

  // Versions 3 and 4 insert optional keyworded sections between the state
  // line and the atom records.  Token-wise reading means one token of
  // lookahead: the first non-section token is the leading coordinate of
  // atom 0.
  std::string pending;
  bool have_pending = false;
  if (version >= 3) {
    have_pending = static_cast<bool>(in >> pending);
    if (have_pending && pending == "config") {
      std::string kw_k, kernel, kw_p, precision, kw_s, simd;
      if (!(in >> kw_k >> kernel >> kw_p >> precision >> kw_s >> simd) ||
          kw_k != "kernel" || kw_p != "precision" || kw_s != "simd") {
        throw RuntimeFailure("checkpoint: malformed config line");
      }
      cp.config = CheckpointConfig{kernel, precision, simd};
      have_pending = static_cast<bool>(in >> pending);
    }
    if (have_pending && pending == "rng") {
      std::string kw, s0, s1, s2, s3, cached, flag;
      if (!(in >> kw >> s0 >> s1 >> s2 >> s3 >> cached >> flag) ||
          kw != "langevin" || (flag != "0" && flag != "1")) {
        throw RuntimeFailure("checkpoint: malformed rng line");
      }
      Rng::State state;
      state.s = {hexio::parse_u64(s0, "rng state"),
                 hexio::parse_u64(s1, "rng state"),
                 hexio::parse_u64(s2, "rng state"),
                 hexio::parse_u64(s3, "rng state")};
      state.cached_gaussian = hexio::parse_double(cached, "rng cached gaussian");
      state.has_cached_gaussian = flag == "1";
      cp.langevin_rng = state;
      have_pending = static_cast<bool>(in >> pending);
    }
    if (version >= 4 && have_pending && pending == "listref") {
      std::size_t ref_n = 0;
      std::string kw_cutoff, cutoff_tok;
      if (!(in >> ref_n >> kw_cutoff >> cutoff_tok) || kw_cutoff != "cutoff") {
        throw RuntimeFailure("checkpoint: malformed listref line");
      }
      if (ref_n != n) {
        throw RuntimeFailure("checkpoint: listref atom count mismatch");
      }
      cp.list_ref_cutoff = hexio::parse_double(cutoff_tok, "listref cutoff");
      if (!(cp.list_ref_cutoff > 0.0)) {
        throw RuntimeFailure("checkpoint: listref cutoff must be positive");
      }
      std::vector<emdpa::Vec3d> ref(ref_n);
      for (std::size_t i = 0; i < ref_n; ++i) {
        std::string x, y, z;
        if (!(in >> x >> y >> z)) {
          throw RuntimeFailure("checkpoint: truncated listref at atom " +
                               std::to_string(i));
        }
        ref[i] = {hexio::parse_double(x, "listref x"),
                  hexio::parse_double(y, "listref y"),
                  hexio::parse_double(z, "listref z")};
      }
      cp.list_ref = std::move(ref);
      have_pending = static_cast<bool>(in >> pending);
    }
  }

  auto next_token = [&](std::size_t atom) -> std::string {
    if (have_pending) {
      have_pending = false;
      return pending;
    }
    std::string token;
    if (!(in >> token)) {
      throw RuntimeFailure("checkpoint: truncated at atom " +
                           std::to_string(atom));
    }
    return token;
  };

  for (std::size_t i = 0; i < n; ++i) {
    std::string t[9];
    for (auto& tok : t) tok = next_token(i);
    cp.system.positions()[i] = {hexio::parse_double(t[0], "x"),
                                hexio::parse_double(t[1], "y"),
                                hexio::parse_double(t[2], "z")};
    cp.system.velocities()[i] = {hexio::parse_double(t[3], "vx"),
                                 hexio::parse_double(t[4], "vy"),
                                 hexio::parse_double(t[5], "vz")};
    cp.system.accelerations()[i] = {hexio::parse_double(t[6], "ax"),
                                    hexio::parse_double(t[7], "ay"),
                                    hexio::parse_double(t[8], "az")};
  }
  return cp;
}

void write_checkpoint_text(std::ostream& out, const Checkpoint& cp) {
  // Build the body first: the footer is its checksum.
  std::ostringstream body;
  body << kMagic << ' ' << kVersion << '\n';
  body << "atoms " << cp.system.size() << " mass " << hex(cp.system.mass())
       << " box " << hex(cp.box_edge) << " step " << cp.step << " pe "
       << hex(cp.potential) << '\n';
  if (cp.config) {
    body << "config kernel " << cp.config->kernel << " precision "
         << cp.config->precision << " simd " << cp.config->simd << '\n';
  }
  if (cp.langevin_rng) {
    const Rng::State& rng = *cp.langevin_rng;
    body << "rng langevin " << hexio::format_u64(rng.s[0]) << ' '
         << hexio::format_u64(rng.s[1]) << ' ' << hexio::format_u64(rng.s[2])
         << ' ' << hexio::format_u64(rng.s[3]) << ' '
         << hex(rng.cached_gaussian) << ' '
         << (rng.has_cached_gaussian ? 1 : 0) << '\n';
  }
  if (cp.list_ref) {
    EMDPA_REQUIRE(cp.list_ref->size() == cp.system.size(),
                  "checkpoint listref must cover every atom");
    body << "listref " << cp.list_ref->size() << " cutoff "
         << hex(cp.list_ref_cutoff) << '\n';
    for (const auto& p : *cp.list_ref) {
      body << hex(p.x) << ' ' << hex(p.y) << ' ' << hex(p.z) << '\n';
    }
  }
  for (std::size_t i = 0; i < cp.system.size(); ++i) {
    const auto& p = cp.system.positions()[i];
    const auto& v = cp.system.velocities()[i];
    const auto& a = cp.system.accelerations()[i];
    body << hex(p.x) << ' ' << hex(p.y) << ' ' << hex(p.z) << ' ' << hex(v.x)
         << ' ' << hex(v.y) << ' ' << hex(v.z) << ' ' << hex(a.x) << ' '
         << hex(a.y) << ' ' << hex(a.z) << '\n';
  }
  out << with_crc_footer(body.str());
  if (!out) throw RuntimeFailure("checkpoint: write failed");
}

}  // namespace

void save_checkpoint(std::ostream& out, const ParticleSystem& system,
                     const PeriodicBox& box, long step, double potential) {
  Checkpoint cp;
  cp.system = system;
  cp.box_edge = box.edge();
  cp.step = step;
  cp.potential = potential;
  write_checkpoint_text(out, cp);
}

void save_checkpoint(std::ostream& out, const Checkpoint& cp) {
  write_checkpoint_text(out, cp);
}

Checkpoint load_checkpoint(std::istream& in) {
  std::string content{std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>()};
  std::istringstream header(content);
  std::string magic;
  int version = 0;
  if (!(header >> magic >> version)) {
    throw RuntimeFailure("checkpoint: missing header");
  }
  if (magic != kMagic) {
    throw RuntimeFailure("checkpoint: bad magic '" + magic + "'");
  }
  if (version < 1 || version > kVersion) {
    throw RuntimeFailure("checkpoint: unsupported version " +
                         std::to_string(version));
  }

  if (version >= 2) {
    // Verify the CRC footer before trusting any field.
    content = strip_crc_footer(content, "checkpoint");
  }

  std::istringstream body(content);
  std::string skip_magic;
  int skip_version = 0;
  body >> skip_magic >> skip_version;
  return parse_body(body, content.size(), version);
}

}  // namespace emdpa::md
