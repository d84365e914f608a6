#include <gtest/gtest.h>

#include <cmath>

#include "md/cell_list_kernel.h"
#include "md/observables.h"
#include "md/parallel_neighbor.h"
#include "md/reference_kernel.h"
#include "md/workload.h"

namespace emdpa::md {
namespace {

TEST(Pressure, IdealGasLawWithZeroVirial) {
  // Non-interacting atoms: P = rho * T exactly (with the 3N convention).
  WorkloadSpec spec;
  spec.n_atoms = 256;
  spec.density = 0.5;
  spec.temperature = 1.3;
  Workload w = make_lattice_workload(spec);
  const double volume = w.box.volume();
  const double p = pressure_of(w.system, volume, 0.0);
  EXPECT_NEAR(p, 0.5 * 1.3, 1e-9);
}

TEST(Pressure, TwoRepulsiveAtomsHavePositiveVirial) {
  LjParams lj;
  ReferenceKernel kernel;
  std::vector<Vec3d> pos = {{5, 5, 5}, {6.0, 5, 5}};  // r = 1 < minimum
  const auto r = kernel.compute(pos, PeriodicBox(20), lj, 1.0);
  EXPECT_GT(r.virial, 0.0);
  // W = r . f for the single pair.
  const double f = lj.pair_force_over_r(1.0) * 1.0;
  EXPECT_NEAR(r.virial, f * 1.0, 1e-10);
}

TEST(Pressure, TwoAttractiveAtomsHaveNegativeVirial) {
  LjParams lj;
  ReferenceKernel kernel;
  std::vector<Vec3d> pos = {{5, 5, 5}, {6.5, 5, 5}};  // r = 1.5 > minimum
  const auto r = kernel.compute(pos, PeriodicBox(20), lj, 1.0);
  EXPECT_LT(r.virial, 0.0);
}

TEST(Pressure, AllKernelsAgreeOnVirial) {
  WorkloadSpec spec;
  spec.n_atoms = 256;
  Workload w = make_lattice_workload(spec);
  LjParams lj;
  ReferenceKernel ref;
  CellListKernel cells;
  NeighborListKernel list;  // serial: pool = nullptr
  const double a = ref.compute(w.system.positions(), w.box, lj, 1.0).virial;
  const double b = cells.compute(w.system.positions(), w.box, lj, 1.0).virial;
  const double c = list.compute(w.system.positions(), w.box, lj, 1.0).virial;
  EXPECT_NEAR(a, b, 1e-8 * std::fabs(a));
  EXPECT_NEAR(a, c, 1e-8 * std::fabs(a));
}

TEST(Pressure, DenseLjLiquidPressureIsPhysical) {
  // At rho* = 0.8442 near T* = 1.44 the LJ fluid has a moderate positive
  // pressure (a few epsilon/sigma^3) — a loose physical sanity band.
  WorkloadSpec spec;
  spec.n_atoms = 512;
  Workload w = make_lattice_workload(spec);
  LjParams lj;
  ReferenceKernel kernel;
  const auto r = kernel.compute(w.system.positions(), w.box, lj, 1.0);
  const double p = pressure_of(w.system, w.box.volume(), r.virial);
  EXPECT_GT(p, -2.0);
  EXPECT_LT(p, 15.0);
}

TEST(Pressure, CompressionRaisesPressure) {
  LjParams lj;
  ReferenceKernel kernel;
  auto pressure_at_density = [&](double rho) {
    WorkloadSpec spec;
    spec.n_atoms = 343;
    spec.density = rho;
    spec.temperature = 1.5;
    Workload w = make_lattice_workload(spec);
    const auto r = kernel.compute(w.system.positions(), w.box, lj, 1.0);
    return pressure_of(w.system, w.box.volume(), r.virial);
  };
  EXPECT_GT(pressure_at_density(1.0), pressure_at_density(0.7));
}

}  // namespace
}  // namespace emdpa::md
