#include <gtest/gtest.h>

#include <cmath>

#include "core/error.h"
#include "core/random.h"
#include "md/box.h"

namespace emdpa::md {
namespace {

TEST(PeriodicBox, RejectsNonPositiveEdge) {
  EXPECT_THROW(PeriodicBox(0.0), ContractViolation);
  EXPECT_THROW(PeriodicBox(-1.0), ContractViolation);
}

TEST(PeriodicBox, BasicGeometry) {
  PeriodicBox box(4.0);
  EXPECT_DOUBLE_EQ(box.edge(), 4.0);
  EXPECT_DOUBLE_EQ(box.half_edge(), 2.0);
  EXPECT_DOUBLE_EQ(box.volume(), 64.0);
}

TEST(PeriodicBox, WrapPutsPointsInPrimaryBox) {
  PeriodicBox box(3.0);
  const Vec3d w = box.wrap({4.5, -0.5, 3.0});
  EXPECT_DOUBLE_EQ(w.x, 1.5);
  EXPECT_DOUBLE_EQ(w.y, 2.5);
  EXPECT_DOUBLE_EQ(w.z, 0.0);
}

TEST(PeriodicBox, WrapIsIdempotent) {
  PeriodicBox box(5.0);
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const Vec3d p{rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(-20, 20)};
    const Vec3d w = box.wrap(p);
    EXPECT_EQ(box.wrap(w), w);
    EXPECT_GE(w.x, 0.0);
    EXPECT_LT(w.x, 5.0);
  }
}

TEST(PeriodicBox, MinImageIdentityInsideHalfBox) {
  PeriodicBox box(10.0);
  const Vec3d dr{1.0, -2.0, 4.9};
  EXPECT_EQ(box.min_image(dr), dr);
}

TEST(PeriodicBox, MinImageReflectsLargeSeparations) {
  PeriodicBox box(10.0);
  const Vec3d dr{6.0, -7.0, 0.0};
  const Vec3d m = box.min_image(dr);
  EXPECT_DOUBLE_EQ(m.x, -4.0);
  EXPECT_DOUBLE_EQ(m.y, 3.0);
  EXPECT_DOUBLE_EQ(m.z, 0.0);
}

TEST(PeriodicBox, MinImageNeverLongerThanHalfDiagonal) {
  PeriodicBox box(6.0);
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const Vec3d dr{rng.uniform(-6, 6), rng.uniform(-6, 6), rng.uniform(-6, 6)};
    const Vec3d m = box.min_image(dr);
    EXPECT_LE(std::fabs(m.x), 3.0 + 1e-12);
    EXPECT_LE(std::fabs(m.y), 3.0 + 1e-12);
    EXPECT_LE(std::fabs(m.z), 3.0 + 1e-12);
  }
}

/// Property: all four minimum-image strategies agree for displacements of
/// wrapped positions (the domain the kernels use them in).
class MinImageStrategyAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MinImageStrategyAgreement, AllStrategiesAgreeOnWrappedDisplacements) {
  PeriodicBox box(7.3);
  Rng rng(GetParam());
  for (int i = 0; i < 400; ++i) {
    // dr = difference of two wrapped positions: in (-edge, edge).
    const Vec3d a = box.wrap({rng.uniform(0, 7.3), rng.uniform(0, 7.3),
                              rng.uniform(0, 7.3)});
    const Vec3d b = box.wrap({rng.uniform(0, 7.3), rng.uniform(0, 7.3),
                              rng.uniform(0, 7.3)});
    const Vec3d dr = a - b;

    const Vec3d round = box.min_image(dr);
    const Vec3d branchy = box.min_image_branchy(dr);
    const Vec3d copysign = box.min_image_copysign(dr);
    const Vec3d search = box.min_image_search27(dr);

    EXPECT_NEAR(round.x, branchy.x, 1e-12);
    EXPECT_NEAR(round.y, branchy.y, 1e-12);
    EXPECT_NEAR(round.z, branchy.z, 1e-12);
    EXPECT_NEAR(round.x, copysign.x, 1e-12);
    EXPECT_NEAR(round.y, copysign.y, 1e-12);
    EXPECT_NEAR(round.z, copysign.z, 1e-12);
    EXPECT_NEAR(round.x, search.x, 1e-12);
    EXPECT_NEAR(round.y, search.y, 1e-12);
    EXPECT_NEAR(round.z, search.z, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinImageStrategyAgreement,
                         ::testing::Values(1, 2, 3, 4, 5, 99, 1234));

TEST(PeriodicBox, Search27HandlesArbitrarySeparationsWithinOneBox) {
  PeriodicBox box(4.0);
  // Separation beyond half the box in every axis.
  const Vec3d dr{3.9, -3.9, 2.1};
  const Vec3d s = box.min_image_search27(dr);
  EXPECT_NEAR(s.x, -0.1, 1e-12);
  EXPECT_NEAR(s.y, 0.1, 1e-12);
  EXPECT_NEAR(s.z, -1.9, 1e-12);
}

TEST(PeriodicBox, SinglePrecisionInstantiation) {
  PeriodicBoxF box(4.0f);
  const Vec3f m = box.min_image({3.0f, 0.0f, -3.0f});
  EXPECT_FLOAT_EQ(m.x, -1.0f);
  EXPECT_FLOAT_EQ(m.z, 1.0f);
}

TEST(PeriodicBox, MinImagePreservesLengthOrShortens) {
  PeriodicBox box(5.0);
  Rng rng(21);
  for (int i = 0; i < 300; ++i) {
    const Vec3d dr{rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-5, 5)};
    EXPECT_LE(length_squared(box.min_image(dr)), length_squared(dr) + 1e-12);
  }
}


/// round_half_threshold is the exact point where min_image's
/// round(d / edge) leaves zero: fl(t / edge) reaches 1/2, and the next
/// value down does not.
template <typename Real>
void expect_threshold_is_rounding_boundary(Real edge) {
  const PeriodicBoxT<Real> box(edge);
  const Real t = box.round_half_threshold();
  EXPECT_GE(t / edge, Real(0.5)) << edge;
  EXPECT_LT(std::nextafter(t, Real(0)) / edge, Real(0.5)) << edge;
}

TEST(PeriodicBox, RoundHalfThresholdIsTheRoundingBoundary) {
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const double edge = rng.uniform(0.1, 200.0);
    expect_threshold_is_rounding_boundary<double>(edge);
    expect_threshold_is_rounding_boundary<float>(static_cast<float>(edge));
  }
  for (const double edge : {1.0, 3.0, 7.3, 13.4375, 1e-300, 1e300}) {
    expect_threshold_is_rounding_boundary<double>(edge);
  }
}

/// The neighbour-list fill replaces min_image with the threshold select on
/// differences of wrapped coordinates.  It must give the same value (up to
/// the sign of a zero), including on the ±half ties and their neighbours.
template <typename Real>
void expect_select_matches_min_image(Real edge, std::uint64_t seed) {
  const PeriodicBoxT<Real> box(edge);
  const Real t = box.round_half_threshold();
  auto select = [&](Real d) {
    return d - (std::fabs(d) >= t ? std::copysign(edge, d) : Real(0));
  };
  auto expect_same = [&](Real d) {
    const Real want = box.min_image({d, 0, 0}).x;
    const Real got = select(d);
    EXPECT_TRUE(got == want) << "edge " << edge << " d " << d << ": " << got
                             << " vs " << want;
  };
  const Real half = edge / Real(2);
  for (const Real d : {Real(0), half, std::nextafter(half, Real(0)),
                       std::nextafter(half, edge), t,
                       std::nextafter(t, Real(0)), edge,
                       std::nextafter(edge, Real(0))}) {
    expect_same(d);
    expect_same(-d);
  }
  Rng rng(seed);
  for (int i = 0; i < 2000; ++i) {
    const Real a = box.wrap({static_cast<Real>(rng.uniform(-2.0, 2.0) * edge),
                             0, 0}).x;
    const Real b = box.wrap({static_cast<Real>(rng.uniform(-2.0, 2.0) * edge),
                             0, 0}).x;
    expect_same(a - b);
  }
}

TEST(PeriodicBox, ThresholdSelectMatchesMinImageOnWrappedDifferences) {
  Rng edges(6);
  for (int k = 0; k < 20; ++k) {
    const double edge = edges.uniform(0.5, 100.0);
    expect_select_matches_min_image<double>(edge, 100 + k);
    expect_select_matches_min_image<float>(static_cast<float>(edge), 200 + k);
  }
}

}  // namespace
}  // namespace emdpa::md
