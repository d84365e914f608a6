// Edge cases for the parallel neighbour-list binning pass: exact cell-edge
// coordinates, pathological occupancy (every atom in one cell), and the
// empty / single-atom systems where off-by-ones in the histogram-merge or
// scratch-offset arithmetic would first show.  Each scenario is checked for
// physics agreement with the scalar reference AND for bitwise list
// stability across thread counts.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/random.h"
#include "core/thread_pool.h"
#include "md/parallel_neighbor.h"
#include "md/reference_kernel.h"
#include "md/workload.h"

namespace emdpa::md {
namespace {

/// Compare list kernel vs the scalar reference on an explicit configuration
/// and assert the built CSR is bitwise thread-invariant.
void expect_list_matches_reference(const std::vector<Vec3d>& positions,
                                   const PeriodicBox& box, double skin = 0.3) {
  LjParams lj;
  ReferenceKernel ref;
  const auto expected = ref.compute(positions, box, lj, 1.0);

  NeighborListKernel::Options options;
  options.skin = skin;
  NeighborListKernel serial(options);
  const auto got = serial.compute(positions, box, lj, 1.0);

  EXPECT_EQ(got.stats.interacting, expected.stats.interacting);
  const double scale = std::fabs(expected.potential_energy) + 1.0;
  EXPECT_NEAR(got.potential_energy, expected.potential_energy, 1e-10 * scale);
  ASSERT_EQ(got.accelerations.size(), expected.accelerations.size());
  for (std::size_t i = 0; i < expected.accelerations.size(); ++i) {
    const double fscale = length(expected.accelerations[i]) + 1.0;
    EXPECT_LT(length(got.accelerations[i] - expected.accelerations[i]),
              1e-10 * fscale)
        << "atom " << i;
  }

  ParallelNeighborListT<double> reference_list(skin);
  reference_list.build(positions, box, lj.cutoff);
  for (const std::size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    ParallelNeighborListT<double> list(skin, &pool);
    list.build(positions, box, lj.cutoff);
    ASSERT_EQ(list.row_begin(), reference_list.row_begin()) << threads;
    ASSERT_EQ(list.entries(), reference_list.entries()) << threads;
    EXPECT_EQ(list.build_distance_tests(),
              reference_list.build_distance_tests())
        << threads;
  }
}

TEST(NeighborBinning, AtomsExactlyOnCellBoundaries) {
  // Box sized so the cell edge is exactly 1.4: every atom below sits on an
  // exact multiple of it, the worst case for the coord*inv_cell truncation
  // (an atom rounding into the wrong cell is still found — the stencil
  // over-covers by a full cell — but a clamp bug would crash or drop pairs).
  const double edge = 14.0;
  const PeriodicBox box(edge);
  std::vector<Vec3d> positions;
  for (int x = 0; x < 10; ++x) {
    for (int y = 0; y < 10; ++y) {
      positions.push_back({1.4 * x, 1.4 * y, 1.4 * (x + y) / 2.0});
    }
  }
  // Include coordinates at the box edge itself (wraps to 0; z offset keeps
  // the wrapped image clear of the lattice atom at the origin) and just
  // under the edge.
  positions.push_back({edge, edge, edge + 0.7});
  positions.push_back({std::nextafter(edge, 0.0), 0.35, 7.0});
  expect_list_matches_reference(positions, box);
}

TEST(NeighborBinning, AllAtomsInOneCell) {
  // 32 atoms jammed into one corner cell of a big, otherwise-empty box:
  // every histogram count lands in a single bin and every row's scratch
  // range is the full cluster.
  const PeriodicBox box(20.0);
  Rng rng(7);
  std::vector<Vec3d> positions;
  for (int i = 0; i < 32; ++i) {
    positions.push_back(
        {rng.uniform(0.0, 1.2), rng.uniform(0.0, 1.2), rng.uniform(0.0, 1.2)});
  }
  expect_list_matches_reference(positions, box);
}

TEST(NeighborBinning, EmptySystem) {
  // 10.0 bins on a full cell grid; 3.0 is below the stencil width, so the
  // build runs on a single cell.
  for (const double edge : {10.0, 3.0}) {
    SCOPED_TRACE(edge);
    const PeriodicBox box(edge);
    LjParams lj;
    NeighborListKernel kernel;
    const auto result = kernel.compute({}, box, lj, 1.0);
    EXPECT_TRUE(result.accelerations.empty());
    EXPECT_EQ(result.potential_energy, 0.0);
    EXPECT_EQ(result.stats.candidates, 0u);
    EXPECT_EQ(result.stats.interacting, 0u);

    ParallelNeighborListT<double> list(0.3);
    list.build({}, box, lj.cutoff);
    EXPECT_EQ(list.size(), 0u);
    EXPECT_EQ(list.directed_entries(), 0u);
    EXPECT_EQ(list.build_distance_tests(), 0u);
    ASSERT_EQ(list.row_begin().size(), 1u);
    EXPECT_TRUE(list.entries().empty());
  }
}

TEST(NeighborBinning, SingleAtom) {
  // As EmptySystem: a full cell grid, then a single-cell box.
  for (const double edge : {10.0, 3.0}) {
    SCOPED_TRACE(edge);
    const PeriodicBox box(edge);
    const Vec3d at{edge / 2, edge / 2, edge / 2};
    LjParams lj;
    NeighborListKernel kernel;
    const auto result = kernel.compute({at}, box, lj, 1.0);
    ASSERT_EQ(result.accelerations.size(), 1u);
    EXPECT_EQ(result.accelerations[0], Vec3d{});
    EXPECT_EQ(result.potential_energy, 0.0);
    EXPECT_EQ(result.stats.interacting, 0u);

    ParallelNeighborListT<double> list(0.3);
    list.build({at}, box, lj.cutoff);
    EXPECT_EQ(list.directed_entries(), 0u);
    EXPECT_EQ(list.build_distance_tests(), 0u);
    // The single row may still carry SIMD padding slots; all must
    // self-refer.
    ASSERT_EQ(list.row_begin().size(), 2u);
    for (const std::uint32_t e : list.entries()) EXPECT_EQ(e, 0u);
  }
}

TEST(NeighborBinning, NegativeAndFarOutOfBoxPositions) {
  // Unwrapped inputs several boxes away must bin like their wrapped images.
  const PeriodicBox box(8.0);
  std::vector<Vec3d> near = {{1.0, 1.0, 1.0}, {2.0, 1.5, 1.2}, {7.5, 7.5, 7.5}};
  std::vector<Vec3d> far = {{1.0 - 16.0, 1.0 + 24.0, 1.0},
                            {2.0 + 8.0, 1.5 - 8.0, 1.2 + 80.0},
                            {7.5, 7.5 - 32.0, 7.5}};
  LjParams lj;
  NeighborListKernel a, b;
  const auto ra = a.compute(near, box, lj, 1.0);
  const auto rb = b.compute(far, box, lj, 1.0);
  // Same cells, same pairs — but minimum-image on coordinates of very
  // different magnitude (1.2 vs 81.2) rounds at the last ulp, so the match
  // is near-exact rather than bitwise.
  EXPECT_EQ(ra.stats.interacting, rb.stats.interacting);
  EXPECT_NEAR(ra.potential_energy, rb.potential_energy,
              1e-12 * (std::fabs(ra.potential_energy) + 1.0));
  for (std::size_t i = 0; i < near.size(); ++i) {
    EXPECT_LT(length(ra.accelerations[i] - rb.accelerations[i]),
              1e-12 * (length(ra.accelerations[i]) + 1.0))
        << i;
  }
}

TEST(NeighborBinning, DistanceTestAccountingIsExact) {
  // build_distance_tests must equal the directed stencil candidate count:
  // for a uniformly filled grid it is bounded below by the directed entry
  // count and above by N * (stencil population).  Pin an exact small case:
  // two atoms alone in a big box test exactly each other (1 directed test
  // each) when they share a stencil, zero entries when out of range.
  const PeriodicBox box(20.0);
  ParallelNeighborListT<double> list(0.3);
  list.build({{1.0, 1.0, 1.0}, {2.0, 1.0, 1.0}}, box, 2.5);
  EXPECT_EQ(list.build_distance_tests(), 2u);
  EXPECT_EQ(list.directed_entries(), 2u);

  list.invalidate();
  list.build({{1.0, 1.0, 1.0}, {15.0, 15.0, 15.0}}, box, 2.5);
  EXPECT_EQ(list.build_distance_tests(), 0u);  // disjoint stencils
  EXPECT_EQ(list.directed_entries(), 0u);
}

}  // namespace
}  // namespace emdpa::md
