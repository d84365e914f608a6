// Byte-level goldens for the host SIMD force kernels and the simulations
// they drive.  The ISA-parity and precision suites compare kernels against
// each other inside one binary, and the trajectory goldens carry
// tolerances, so neither notices a kernel whose sp or mixed results move by
// one ulp.  This file pins the exact bits against constants recorded from a
// reference build:
//
//  * one force evaluation of SoaKernelT and NeighborListKernelT in dp, sp
//    and mixed precision, at 171 and 2048 lattice atoms: an FNV-1a digest
//    of the accelerations, the potential energy, the virial and both
//    PairStats counts, under every available ISA, serially and on the
//    global pool (EMDPA_THREADS sets its size);
//  * the final state of a 40-step Simulation for every kernel and
//    precision it accepts: positions, velocities, accelerations, energies
//    and neighbour-list rebuilds.
//
// Every kernel faces the double ForceKernel interface, so each case feeds
// the same double positions.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>

#include "core/thread_pool.h"
#include "md/parallel_neighbor.h"
#include "md/simd_kernels.h"
#include "md/simulation.h"
#include "md/soa_kernel.h"
#include "md/workload.h"

#if __has_include("md/single_precision.h")
// A tree that still ships the narrowing adapters runs sp through them; the
// digests below pin that design and the double-facing sp kernels alike.
#include "md/single_precision.h"
#define EMDPA_GOLDEN_SP_SOA SingleSoaKernel
#define EMDPA_GOLDEN_SP_LIST SingleNeighborListKernel
#else
#define EMDPA_GOLDEN_SP_SOA SoaKernelF
#define EMDPA_GOLDEN_SP_LIST NeighborListKernelF
#endif

namespace emdpa::md {
namespace {

/// FNV-1a over the little-endian bytes of each value, so the digest does not
/// depend on the host byte order.
class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (v >> (8 * b)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const Vec3d& v) {
    add(v.x);
    add(v.y);
    add(v.z);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::uint64_t force_digest(const ForceResult& r) {
  Fnv1a h;
  h.add(static_cast<std::uint64_t>(r.accelerations.size()));
  for (const Vec3d& a : r.accelerations) h.add(a);
  h.add(r.potential_energy);
  h.add(r.virial);
  h.add(r.stats.candidates);
  h.add(r.stats.interacting);
  return h.value();
}

std::uint64_t state_digest(const Simulation& sim) {
  Fnv1a h;
  const ParticleSystem& s = sim.system();
  h.add(static_cast<std::uint64_t>(s.size()));
  for (const Vec3d& p : s.positions()) h.add(p);
  for (const Vec3d& v : s.velocities()) h.add(v);
  for (const Vec3d& a : s.accelerations()) h.add(a);
  h.add(sim.last_energies().kinetic);
  h.add(sim.last_energies().potential);
  h.add(static_cast<std::uint64_t>(sim.current_step()));
  h.add(sim.list_rebuilds());
  return h.value();
}

/// Lattice sites displaced along their thermal velocities, so every atom
/// feels a generic force (the bare fcc lattice is balanced by symmetry).
/// The displacement is one rounded multiply-add per coordinate; the engine
/// and its tests compile with -ffp-contract=off, so it is the same bits
/// under any flags.
Workload displaced_lattice(std::size_t n) {
  WorkloadSpec spec;
  spec.n_atoms = n;
  Workload w = make_lattice_workload(spec);
  auto& positions = w.system.positions();
  const auto& velocities = w.system.velocities();
  for (std::size_t i = 0; i < n; ++i) {
    positions[i] = positions[i] + velocities[i] * 0.05;
  }
  return w;
}

using KernelFactory = std::function<std::unique_ptr<ForceKernel>(
    ThreadPool* pool, simd::SimdType isa)>;

template <typename Kernel>
std::unique_ptr<ForceKernel> make_kernel(ThreadPool* pool,
                                         simd::SimdType isa) {
  typename Kernel::Options options;
  options.pool = pool;
  options.isa = isa;
  return std::make_unique<Kernel>(options);
}

struct ForceCase {
  const char* name;
  KernelFactory make;
  std::map<std::size_t, std::uint64_t> golden;  ///< digest by atom count
};

void PrintTo(const ForceCase& c, std::ostream* os) { *os << c.name; }

const ForceCase kForceCases[] = {
    {"soa_dp", make_kernel<SoaKernel>,
     {{171, 0x14449b66930f2777ull}, {2048, 0xaa9f884d5050bc10ull}}},
    {"soa_sp", make_kernel<EMDPA_GOLDEN_SP_SOA>,
     {{171, 0x6ce9385e9739ba9bull}, {2048, 0x269b9ad72295a236ull}}},
    {"soa_mixed", make_kernel<SoaKernelMixed>,
     {{171, 0x1959a777757ce6f6ull}, {2048, 0x5abf3dfe919021bcull}}},
    {"list_dp", make_kernel<NeighborListKernel>,
     {{171, 0x5e849feba546eb39ull}, {2048, 0x72ebe2c7f220338dull}}},
    {"list_sp", make_kernel<EMDPA_GOLDEN_SP_LIST>,
     {{171, 0xca755c2d13e54b41ull}, {2048, 0xb155eca6f079af92ull}}},
    {"list_mixed", make_kernel<NeighborListKernelMixed>,
     {{171, 0xb6d33096d1aa870aull}, {2048, 0xa2d20807b6114e38ull}}},
};

class ForceKernelGolden : public ::testing::TestWithParam<ForceCase> {};

TEST_P(ForceKernelGolden, OneEvaluationMatchesTheRecordedDigest) {
  const ForceCase& c = GetParam();
  const LjParams lj;
  for (const auto& [n, want] : c.golden) {
    const Workload w = displaced_lattice(n);
    for (const simd::SimdType isa : simd_kernels::available_isas()) {
      for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr),
                               &ThreadPool::global()}) {
        // A fresh kernel per evaluation, so the list kernels build.
        const std::unique_ptr<ForceKernel> kernel = c.make(pool, isa);
        const ForceResult r = kernel->compute(
            w.system.positions(), w.box, lj, w.system.mass());
        const std::uint64_t got = force_digest(r);
        EXPECT_EQ(got, want)
            << c.name << " at " << n << " atoms, " << simd::to_string(isa)
            << (pool != nullptr ? ", pooled" : ", serial") << ": digest 0x"
            << std::hex << got;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, ForceKernelGolden,
                         ::testing::ValuesIn(kForceCases),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

struct SimulationCase {
  const char* name;
  SimKernel kernel;
  PrecisionMode precision;
  std::uint64_t golden;
};

void PrintTo(const SimulationCase& c, std::ostream* os) { *os << c.name; }

constexpr int kSimulationSteps = 40;
constexpr std::size_t kSimulationAtoms = 500;

const SimulationCase kSimulationCases[] = {
    {"reference_dp", SimKernel::kReference, PrecisionMode::kDouble,
     0xa8bee19fc39f8882ull},
    {"cell_list_dp", SimKernel::kCellList, PrecisionMode::kDouble,
     0xa09ebfc26a9cc387ull},
    {"soa_dp", SimKernel::kSoaN2, PrecisionMode::kDouble,
     0x6acf3e73a1ff08b9ull},
    {"soa_sp", SimKernel::kSoaN2, PrecisionMode::kSingle,
     0xeac8292df41b5d53ull},
    {"soa_mixed", SimKernel::kSoaN2, PrecisionMode::kMixed,
     0x047c91ef0994414eull},
    {"list_dp", SimKernel::kNeighborList, PrecisionMode::kDouble,
     0x7e0dffe16619e5e1ull},
    {"list_sp", SimKernel::kNeighborList, PrecisionMode::kSingle,
     0xcb6b9e8118d5ae41ull},
    {"list_mixed", SimKernel::kNeighborList, PrecisionMode::kMixed,
     0x772b38c71e071930ull},
};

class SimulationGolden : public ::testing::TestWithParam<SimulationCase> {};

TEST_P(SimulationGolden, FinalStateMatchesTheRecordedDigest) {
  const SimulationCase& c = GetParam();
  Simulation::Options options;
  options.workload.n_atoms = kSimulationAtoms;
  options.kernel = c.kernel;
  options.precision = c.precision;
  options.pool = &ThreadPool::global();
  Simulation sim(options);
  sim.run(kSimulationSteps);
  const std::uint64_t got = state_digest(sim);
  EXPECT_EQ(got, c.golden) << c.name << ": digest 0x" << std::hex << got;
}

INSTANTIATE_TEST_SUITE_P(KernelsAndPrecisions, SimulationGolden,
                         ::testing::ValuesIn(kSimulationCases),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace emdpa::md
