// Runtime ISA dispatch at the force level: the registry knows which tables
// this binary carries, every available ISA produces BITWISE identical
// forces/energies (the fixed 64-byte accumulation block of kernel_rows.h),
// and the precision seam behaves — sp/mixed stay within the expected drift
// of dp while being exactly reproducible themselves.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/error.h"
#include "core/simd_dispatch.h"
#include "md/parallel_neighbor.h"
#include "md/simd_kernels.h"
#include "md/soa_kernel.h"
#include "md/workload.h"

namespace emdpa::md {
namespace {

Workload melt_workload(std::size_t n_atoms = 128) {
  WorkloadSpec spec;
  spec.n_atoms = n_atoms;
  return make_lattice_workload(spec);
}

void expect_bitwise_equal(const ForceResult& a, const ForceResult& b,
                          const char* what) {
  ASSERT_EQ(a.accelerations.size(), b.accelerations.size());
  for (std::size_t i = 0; i < a.accelerations.size(); ++i) {
    EXPECT_EQ(a.accelerations[i].x, b.accelerations[i].x) << what << " atom " << i;
    EXPECT_EQ(a.accelerations[i].y, b.accelerations[i].y) << what << " atom " << i;
    EXPECT_EQ(a.accelerations[i].z, b.accelerations[i].z) << what << " atom " << i;
  }
  EXPECT_EQ(a.potential_energy, b.potential_energy) << what;
  EXPECT_EQ(a.virial, b.virial) << what;
  EXPECT_EQ(a.stats.interacting, b.stats.interacting) << what;
}

TEST(SimdKernelRegistry, ScalarTableIsAlwaysCompiledIn) {
  EXPECT_NE(simd_kernels::compiled_mask() & simd::isa_bit(simd::SimdType::kScalar),
            0u);
  EXPECT_NE(simd_kernels::rows_for(simd::SimdType::kScalar), nullptr);
}

TEST(SimdKernelRegistry, AvailableIsasAreRankedAndExecutable) {
  const auto available = simd_kernels::available_isas();
  ASSERT_FALSE(available.empty());  // scalar at minimum
  EXPECT_EQ(available.back(), simd::SimdType::kScalar);
  for (const simd::SimdType isa : available) {
    EXPECT_TRUE(simd_kernels::isa_available(isa));
    const simd_kernels::KernelRows& table = simd_kernels::rows(isa);
    EXPECT_EQ(table.isa, isa);
    // Every table carries all six precision variants.
    EXPECT_NE(table.soa_dd, nullptr);
    EXPECT_NE(table.soa_ff, nullptr);
    EXPECT_NE(table.soa_fd, nullptr);
    EXPECT_NE(table.list_dd, nullptr);
    EXPECT_NE(table.list_ff, nullptr);
    EXPECT_NE(table.list_fd, nullptr);
    // Pack widths fill the 64-byte block a whole number of times.
    EXPECT_EQ(simd::block_lanes<double>() % table.width_double, 0u);
    EXPECT_EQ(simd::block_lanes<float>() % table.width_float, 0u);
  }
  // resolve_isa with no request returns the ranking winner.  EMDPA_SIMD may
  // legitimately force something slower (the CI matrix legs do exactly
  // that), in which case the resolved ISA must still be available.
  const simd::SimdType resolved = simd_kernels::resolve_isa();
  EXPECT_TRUE(simd_kernels::isa_available(resolved));
  if (!simd::env_simd_override()) {
    EXPECT_EQ(resolved, available.front());
  }
}

TEST(SimdKernelRegistry, KernelNameReportsDispatchedIsaWidthAndPrecision) {
  for (const simd::SimdType isa : simd_kernels::available_isas()) {
    SoaKernel::Options options;
    options.isa = isa;
    SoaKernel kernel(options);
    EXPECT_EQ(kernel.isa(), isa);
    EXPECT_EQ(kernel.simd_width(),
              simd_kernels::width<double>(simd_kernels::rows(isa)));
    const std::string name = kernel.name();
    EXPECT_NE(name.find(simd::to_string(isa)), std::string::npos) << name;
    EXPECT_NE(name.find("w" + std::to_string(kernel.simd_width())),
              std::string::npos)
        << name;
    EXPECT_NE(name.find("fp64"), std::string::npos) << name;
  }
}

TEST(SimdKernelRegistry, RequestingUnavailableIsaThrowsAtConstruction) {
  // Only meaningful when some ranked ISA is missing here (not compiled in,
  // or CPU too narrow); on a machine with everything this loop is empty.
  for (const simd::SimdType isa : simd::kIsaRanking) {
    if (simd_kernels::isa_available(isa)) continue;
    SoaKernel::Options options;
    options.isa = isa;
    EXPECT_THROW(SoaKernel{options}, RuntimeFailure) << simd::to_string(isa);
  }
}

TEST(SimdIsaParity, SoaForcesBitwiseIdenticalAcrossIsasDp) {
  Workload w = melt_workload();
  LjParams lj;
  const auto available = simd_kernels::available_isas();
  SoaKernel::Options base_options;
  base_options.isa = available.front();
  SoaKernel reference(base_options);
  const ForceResult expected =
      reference.compute(w.system.positions(), w.box, lj, 1.0);
  EXPECT_GT(expected.stats.interacting, 0u);
  for (const simd::SimdType isa : available) {
    SoaKernel::Options options;
    options.isa = isa;
    SoaKernel kernel(options);
    const ForceResult actual =
        kernel.compute(w.system.positions(), w.box, lj, 1.0);
    expect_bitwise_equal(expected, actual, simd::to_string(isa));
  }
}

TEST(SimdIsaParity, ListForcesBitwiseIdenticalAcrossIsasDp) {
  Workload w = melt_workload();
  LjParams lj;
  const auto available = simd_kernels::available_isas();
  NeighborListKernel::Options base_options;
  base_options.isa = available.front();
  NeighborListKernel reference(base_options);
  const ForceResult expected =
      reference.compute(w.system.positions(), w.box, lj, 1.0);
  EXPECT_GT(expected.stats.interacting, 0u);
  for (const simd::SimdType isa : available) {
    NeighborListKernel::Options options;
    options.isa = isa;
    NeighborListKernel kernel(options);
    const ForceResult actual =
        kernel.compute(w.system.positions(), w.box, lj, 1.0);
    expect_bitwise_equal(expected, actual, simd::to_string(isa));
  }
}

TEST(SimdIsaParity, SingleAndMixedAlsoBitwiseIdenticalAcrossIsas) {
  // The block-accumulation argument is type-agnostic: it must hold for the
  // float lane paths too (16 lanes per block instead of 8).
  Workload w = melt_workload();
  LjParams lj;

  const auto available = simd_kernels::available_isas();
  SoaKernelF::Options sp_base;
  sp_base.isa = available.front();
  SoaKernelF sp_reference(sp_base);
  const ForceResult sp_expected =
      sp_reference.compute(w.system.positions(), w.box, lj, 1.0);
  SoaKernelMixed::Options mx_base;
  mx_base.isa = available.front();
  SoaKernelMixed mx_reference(mx_base);
  const ForceResult mx_expected =
      mx_reference.compute(w.system.positions(), w.box, lj, 1.0);

  for (const simd::SimdType isa : available) {
    SoaKernelF::Options sp_options;
    sp_options.isa = isa;
    SoaKernelF sp(sp_options);
    expect_bitwise_equal(sp_expected,
                         sp.compute(w.system.positions(), w.box, lj, 1.0),
                         simd::to_string(isa));
    SoaKernelMixed::Options mx_options;
    mx_options.isa = isa;
    SoaKernelMixed mx(mx_options);
    expect_bitwise_equal(mx_expected,
                         mx.compute(w.system.positions(), w.box, lj, 1.0),
                         simd::to_string(isa));
  }
}

TEST(PrecisionSeam, MixedAndSingleTrackDoubleWithinFloatError) {
  // One evaluation: sp/mixed forces must agree with dp to single-precision
  // relative accuracy.  (Trajectory-level drift bounds live in
  // tests/trajectory/trajectory_precision_test.cpp.)
  Workload w = melt_workload(256);
  LjParams lj;
  SoaKernel dp;
  SoaKernelF sp;
  SoaKernelMixed mixed;
  const ForceResult r_dp = dp.compute(w.system.positions(), w.box, lj, 1.0);
  const ForceResult r_sp = sp.compute(w.system.positions(), w.box, lj, 1.0);
  const ForceResult r_mx = mixed.compute(w.system.positions(), w.box, lj, 1.0);

  // Max |a| sets the scale for the absolute comparison (LJ forces near the
  // cutoff are tiny; relative-per-atom would be needlessly strict there).
  double scale = 0.0;
  for (const auto& a : r_dp.accelerations) {
    scale = std::max({scale, std::fabs(a.x), std::fabs(a.y), std::fabs(a.z)});
  }
  ASSERT_GT(scale, 0.0);
  double worst_sp = 0.0, worst_mx = 0.0;
  for (std::size_t i = 0; i < r_dp.accelerations.size(); ++i) {
    const auto ds = r_dp.accelerations[i] - r_sp.accelerations[i];
    const auto dm = r_dp.accelerations[i] - r_mx.accelerations[i];
    worst_sp = std::max(
        {worst_sp, std::fabs(ds.x), std::fabs(ds.y), std::fabs(ds.z)});
    worst_mx = std::max(
        {worst_mx, std::fabs(dm.x), std::fabs(dm.y), std::fabs(dm.z)});
  }
  // ~2^-24 is one float ulp; the r^-14 force amplifies coordinate rounding,
  // so allow a few hundred ulp of headroom while staying far below any
  // physically meaningful error.
  const double bound = 1e-4 * scale;
  EXPECT_LT(worst_sp, bound);
  EXPECT_LT(worst_mx, bound);
  EXPECT_NEAR(r_sp.potential_energy, r_dp.potential_energy,
              1e-4 * std::fabs(r_dp.potential_energy));
  EXPECT_NEAR(r_mx.potential_energy, r_dp.potential_energy,
              1e-4 * std::fabs(r_dp.potential_energy));
  // Same coordinates, same cutoff: the interacting-pair count may differ
  // only by pairs within float rounding of the cutoff shell.
  EXPECT_NEAR(static_cast<double>(r_sp.stats.interacting),
              static_cast<double>(r_dp.stats.interacting),
              std::max(2.0, 1e-3 * static_cast<double>(r_dp.stats.interacting)));
}

TEST(PrecisionSeam, ListKernelsAgreeWithSoaPerPrecision) {
  // The neighbour-list path must compute the same physics as the N^2 sweep
  // at every precision (dp exactly; sp/mixed to accumulation-order rounding
  // — the list walks fewer, differently-ordered j columns).
  Workload w = melt_workload(256);
  LjParams lj;
  {
    SoaKernel n2;
    NeighborListKernel list;
    const ForceResult a = n2.compute(w.system.positions(), w.box, lj, 1.0);
    const ForceResult b = list.compute(w.system.positions(), w.box, lj, 1.0);
    EXPECT_EQ(a.stats.interacting, b.stats.interacting);
    EXPECT_NEAR(b.potential_energy, a.potential_energy,
                1e-12 * std::fabs(a.potential_energy));
  }
  {
    SoaKernelF n2;
    NeighborListKernelF list;
    const ForceResult a = n2.compute(w.system.positions(), w.box, lj, 1.0);
    const ForceResult b = list.compute(w.system.positions(), w.box, lj, 1.0);
    EXPECT_EQ(a.stats.interacting, b.stats.interacting);
    EXPECT_NEAR(b.potential_energy, a.potential_energy,
                1e-5 * std::fabs(a.potential_energy));
  }
  {
    SoaKernelMixed n2;
    NeighborListKernelMixed list;
    const ForceResult a = n2.compute(w.system.positions(), w.box, lj, 1.0);
    const ForceResult b = list.compute(w.system.positions(), w.box, lj, 1.0);
    EXPECT_EQ(a.stats.interacting, b.stats.interacting);
    EXPECT_NEAR(b.potential_energy, a.potential_energy,
                1e-5 * std::fabs(a.potential_energy));
  }
}

}  // namespace
}  // namespace emdpa::md
