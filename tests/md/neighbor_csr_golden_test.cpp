// Byte-level goldens for the neighbour-list CSR.  The invariance suites
// compare builds within one binary and the trajectory goldens carry
// tolerances, so neither notices a build that returns the same pairs in a
// different order, or flips one near-cutoff pair.  This file pins the exact
// bytes: an FNV-1a digest of row_begin() + entries(), plus
// directed_entries() and build_distance_tests(), against constants recorded
// from a reference build, for dp and sp lists built serially and on 1, 2,
// 3 and 8-thread pools.
//
// Every coordinate is an integer draw times 2^-12, computed in integer
// arithmetic and converted once, so the inputs are the same bits under any
// compiler flags (no expression here can be contracted into an FMA) and are
// exact in float too.  The box edges are chosen around the stencil width
// (5 cells at cutoff 2.5 + skin 0.3): 7.5 gives cells == width, 9.0 width+1,
// 10.5 width+2, and 6.25 falls below it, so it builds on a one-cell grid
// (every atom tests every other, in index order).
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/random.h"
#include "core/thread_pool.h"
#include "md/parallel_neighbor.h"

namespace emdpa::md {
namespace {

constexpr double kUnit = 1.0 / 4096.0;  // 2^-12: every coordinate is k * kUnit
constexpr double kCutoff = 2.5;
constexpr double kSkin = 0.3;

struct Golden {
  std::uint64_t digest;
  std::uint64_t directed_entries;
  std::uint64_t distance_tests;
};

/// FNV-1a over the little-endian bytes of each value, so the digest does not
/// depend on the host byte order.
class Fnv1a {
 public:
  void add(std::uint32_t v) {
    for (int b = 0; b < 4; ++b) {
      hash_ ^= (v >> (8 * b)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

template <typename Real>
std::uint64_t csr_digest(const ParallelNeighborListT<Real>& list) {
  Fnv1a h;
  for (const std::uint32_t v : list.row_begin()) h.add(v);
  for (const std::uint32_t v : list.entries()) h.add(v);
  return h.value();
}

Vec3d at_units(std::int64_t x, std::int64_t y, std::int64_t z) {
  return {static_cast<double>(x) * kUnit, static_cast<double>(y) * kUnit,
          static_cast<double>(z) * kUnit};
}

/// Uniform integer in [lo, hi].
std::int64_t draw(SplitMix64& rng, std::int64_t lo, std::int64_t hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo + 1);
  return lo + static_cast<std::int64_t>(rng.next() % span);
}

/// fcc lattice of `k`^3 unit cells (lattice constant 6880 units, ~1.68, a
/// liquid-like density of ~0.84), each site jittered by up to +-1024 units
/// (+-0.25), enough to spread pairs across the list radius.
std::vector<Vec3d> jittered_fcc(int k, std::uint64_t seed) {
  constexpr std::int64_t a = 6880;
  constexpr std::int64_t basis[4][3] = {
      {0, 0, 0}, {a / 2, a / 2, 0}, {a / 2, 0, a / 2}, {0, a / 2, a / 2}};
  SplitMix64 rng(seed);
  std::vector<Vec3d> positions;
  for (int x = 0; x < k; ++x) {
    for (int y = 0; y < k; ++y) {
      for (int z = 0; z < k; ++z) {
        for (const auto& b : basis) {
          positions.push_back(at_units(x * a + b[0] + draw(rng, -1024, 1024),
                                       y * a + b[1] + draw(rng, -1024, 1024),
                                       z * a + b[2] + draw(rng, -1024, 1024)));
        }
      }
    }
  }
  return positions;
}

/// `n` atoms drawn uniformly in [lo, hi) units on each axis.
std::vector<Vec3d> uniform_gas(std::size_t n, std::int64_t lo, std::int64_t hi,
                               std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<Vec3d> positions;
  for (std::size_t i = 0; i < n; ++i) {
    positions.push_back(at_units(draw(rng, lo, hi - 1), draw(rng, lo, hi - 1),
                                 draw(rng, lo, hi - 1)));
  }
  return positions;
}

std::int64_t edge_units(double edge) {
  return static_cast<std::int64_t>(edge / kUnit);
}

template <typename Real>
void expect_golden_at_precision(const std::vector<Vec3d>& positions,
                                double edge, const Golden& want,
                                const char* precision) {
  std::vector<Vec3<Real>> narrowed;
  for (const auto& p : positions) {
    narrowed.push_back({static_cast<Real>(p.x), static_cast<Real>(p.y),
                        static_cast<Real>(p.z)});
  }
  const PeriodicBoxT<Real> box(static_cast<Real>(edge));
  for (const std::size_t threads : {0u, 1u, 2u, 3u, 8u}) {
    std::optional<ThreadPool> pool;
    if (threads != 0) pool.emplace(threads);
    ParallelNeighborListT<Real> list(static_cast<Real>(kSkin),
                                     pool ? &*pool : nullptr);
    list.build(narrowed, box, static_cast<Real>(kCutoff));
    const std::string where = std::string(precision) + ", " +
                              (threads == 0 ? std::string("serial")
                                            : std::to_string(threads) +
                                                  "-thread pool");
    EXPECT_EQ(csr_digest(list), want.digest) << where;
    EXPECT_EQ(list.directed_entries(), want.directed_entries) << where;
    EXPECT_EQ(list.build_distance_tests(), want.distance_tests) << where;
  }
}

void expect_golden(const std::vector<Vec3d>& positions, double edge,
                   const Golden& dp, const Golden& sp) {
  expect_golden_at_precision<double>(positions, edge, dp, "dp");
  expect_golden_at_precision<float>(positions, edge, sp, "sp");
}

TEST(NeighborCsrGolden, JitteredLattice2048) {
  // 8^3 fcc cells: edge 55040 units = 13.4375, 9 cells per axis.
  expect_golden(jittered_fcc(8, 11), 8 * 6880 * kUnit,
                /*dp=*/{0x97fa065d861570e6ull, 154496, 715784},
                /*sp=*/{0x3472a5b6188d6e3full, 154496, 715784});
}

TEST(NeighborCsrGolden, JitteredLattice19652) {
  // 17^3 fcc cells: edge 28.5546875, 20 cells per axis.
  expect_golden(jittered_fcc(17, 12), 17 * 6880 * kUnit,
                /*dp=*/{0x4226b8059ad38a65ull, 1481186, 5959854},
                /*sp=*/{0xc7db873f100541f0ull, 1481186, 5959854});
}

TEST(NeighborCsrGolden, FarOutOfBoxAndBoundaryGas) {
  // Edge 9.0 (cells 6, cell edge exactly 1.5).  Most atoms lie up to four
  // boxes away on either side; the rest sit exactly on box faces, on cell
  // faces, or at whole multiples of the edge.
  const double edge = 9.0;
  const std::int64_t e = edge_units(edge);
  std::vector<Vec3d> positions = uniform_gas(320, -4 * e, 5 * e, 13);
  const std::int64_t cell = e / 6;
  const std::int64_t special[] = {0,        e,        -e,       2 * e,
                                  -3 * e,   cell,     2 * cell, 5 * cell,
                                  -cell,    e + cell, e - 1,    1};
  SplitMix64 rng(14);
  for (const std::int64_t x : special) {
    for (const std::int64_t y : special) {
      if (draw(rng, 0, 2) != 0) continue;
      positions.push_back(at_units(x, y, special[draw(rng, 0, 11)]));
    }
  }
  expect_golden(positions, edge,
                /*dp=*/{0xda7df1d5aa8adc3eull, 17154, 76080},
                /*sp=*/{0xd9a880276b2978a7ull, 17154, 76080});
}

TEST(NeighborCsrGolden, CellsEqualStencilWidth) {
  const double edge = 7.5;
  expect_golden(uniform_gas(340, 0, edge_units(edge), 15), edge,
                /*dp=*/{0x888408c2eb40b959ull, 25258, 115260},
                /*sp=*/{0x5d4b4ded72ebedd4ull, 25258, 115260});
}

TEST(NeighborCsrGolden, CellsOneAboveStencilWidth) {
  const double edge = 9.0;
  expect_golden(uniform_gas(600, 0, edge_units(edge), 16), edge,
                /*dp=*/{0x13e3c5057dd5f26full, 45030, 208232},
                /*sp=*/{0x6619a4295f565ad6ull, 45030, 208232});
}

TEST(NeighborCsrGolden, CellsTwoAboveStencilWidth) {
  const double edge = 10.5;
  expect_golden(uniform_gas(950, 0, edge_units(edge), 17), edge,
                /*dp=*/{0x3f7aad8de11672d1ull, 71370, 328230},
                /*sp=*/{0x8d5ed3d4fe8d1ac5ull, 71370, 328230});
}

TEST(NeighborCsrGolden, CellsBelowStencilWidthBuildsAllPairs) {
  const double edge = 6.25;
  expect_golden(uniform_gas(200, 0, edge_units(edge), 18), edge,
                /*dp=*/{0x6e329e6650742233ull, 14902, 39800},
                /*sp=*/{0x036956eb0cbf5023ull, 14902, 39800});
}

}  // namespace
}  // namespace emdpa::md
