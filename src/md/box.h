// Periodic simulation box and minimum-image computation.
//
// The paper's kernel spends most of its time finding, for each atom pair,
// the closest of the 27 periodic images ("searching the 27 neighboring unit
// cells").  The optimised Cell port replaces this search with branch-free
// reflections ("replace if with copysign", then SIMD across all three axes).
// We implement all three strategies; they must agree whenever positions are
// wrapped into the primary box, which tests assert as a property.
#pragma once

#include <cmath>

#include "core/error.h"
#include "core/vec3.h"

namespace emdpa::md {

/// A cubic periodic box with edge length `edge`, spanning [0, edge)^3.
template <typename Real>
class PeriodicBoxT {
 public:
  explicit PeriodicBoxT(Real edge) : edge_(edge) {
    EMDPA_REQUIRE(edge > Real(0), "box edge must be positive");
  }

  Real edge() const { return edge_; }
  Real half_edge() const { return edge_ / Real(2); }
  Real volume() const { return edge_ * edge_ * edge_; }

  /// Wrap a position into the primary box [0, edge)^3.
  emdpa::Vec3<Real> wrap(emdpa::Vec3<Real> p) const {
    p.x -= edge_ * std::floor(p.x / edge_);
    p.y -= edge_ * std::floor(p.y / edge_);
    p.z -= edge_ * std::floor(p.z / edge_);
    return p;
  }

  /// Minimum-image displacement via rounding — the host-reference strategy.
  /// Valid for any separation.
  emdpa::Vec3<Real> min_image(emdpa::Vec3<Real> dr) const {
    dr.x -= edge_ * std::round(dr.x / edge_);
    dr.y -= edge_ * std::round(dr.y / edge_);
    dr.z -= edge_ * std::round(dr.z / edge_);
    return dr;
  }

  /// The smallest d >= 0 with fl(d / edge) >= 1/2: where min_image's
  /// round(d / edge) first leaves zero.  It turns min_image into an exact,
  /// division-free select — per axis, whenever fl(|d| / edge) < 1.5 (true
  /// for the difference of two wrapped coordinates),
  ///   min_image(d) == d - (|d| >= t ? copysign(edge, d) : 0)
  /// up to the sign of a zero, and |d| < t on every axis means
  /// min_image(d) == d for any d.  This is min_image_copysign with the
  /// threshold placed exactly where rounding puts it instead of at half the
  /// edge, whose ties and rounded quotients can disagree with min_image.
  /// fl(x / edge) is monotone in x, so the search from edge/2 takes a step
  /// or two.
  Real round_half_threshold() const {
    const Real half = Real(1) / Real(2);
    Real t = edge_ / Real(2);
    while (t / edge_ < half) t = std::nextafter(t, edge_);
    for (Real below = std::nextafter(t, Real(0)); below / edge_ >= half;
         below = std::nextafter(t, Real(0))) {
      t = below;
    }
    return t;
  }

  /// Minimum-image displacement via a single reflection with an `if` per
  /// axis — the "original" strategy on the SPE (branchy; the SPE has no
  /// branch prediction so this is the slow path of Fig 5).  Requires the raw
  /// separation to satisfy |dr| < 1.5*edge per axis, which holds whenever
  /// both positions are wrapped.
  emdpa::Vec3<Real> min_image_branchy(emdpa::Vec3<Real> dr) const {
    const Real half = half_edge();
    if (dr.x > half) dr.x -= edge_; else if (dr.x < -half) dr.x += edge_;
    if (dr.y > half) dr.y -= edge_; else if (dr.y < -half) dr.y += edge_;
    if (dr.z > half) dr.z -= edge_; else if (dr.z < -half) dr.z += edge_;
    return dr;
  }

  /// Minimum-image displacement via branch-free copysign selection — the
  /// paper's first SPE optimisation.  Same validity domain as
  /// min_image_branchy.
  emdpa::Vec3<Real> min_image_copysign(emdpa::Vec3<Real> dr) const {
    const Real half = half_edge();
    // select(|d| > half, copysign(edge, d), 0) without a data-dependent
    // branch: the comparison produces a 0/1 mask multiplied into the shift.
    const Real mx = Real(std::fabs(dr.x) > half);
    const Real my = Real(std::fabs(dr.y) > half);
    const Real mz = Real(std::fabs(dr.z) > half);
    dr.x -= mx * std::copysign(edge_, dr.x);
    dr.y -= my * std::copysign(edge_, dr.y);
    dr.z -= mz * std::copysign(edge_, dr.z);
    return dr;
  }

  /// Minimum-image displacement by brute-force search over the 27 periodic
  /// images — the strategy of the paper's baseline kernel.  Returns the image
  /// of `dr` with the smallest length.
  emdpa::Vec3<Real> min_image_search27(const emdpa::Vec3<Real>& dr) const {
    emdpa::Vec3<Real> best = dr;
    Real best_r2 = length_squared(dr);
    for (int ix = -1; ix <= 1; ++ix) {
      for (int iy = -1; iy <= 1; ++iy) {
        for (int iz = -1; iz <= 1; ++iz) {
          const emdpa::Vec3<Real> cand{dr.x + Real(ix) * edge_,
                                       dr.y + Real(iy) * edge_,
                                       dr.z + Real(iz) * edge_};
          const Real r2 = length_squared(cand);
          if (r2 < best_r2) {
            best_r2 = r2;
            best = cand;
          }
        }
      }
    }
    return best;
  }

 private:
  Real edge_;
};

using PeriodicBox = PeriodicBoxT<double>;
using PeriodicBoxF = PeriodicBoxT<float>;

/// Closest periodic image of one displacement component, by the device
/// kernels' per-axis search: of d, d + edge and d - edge, in that order, the
/// first with the smallest magnitude.  The Cell PPE, Cell double-precision
/// and GPU shader kernels share this one definition, and the SPE kernel
/// searches in the same order, so their results agree bitwise.
template <typename Real>
Real closest_image(Real d, Real edge) {
  Real best = d;
  Real best_abs = std::fabs(d);
  for (const Real shift : {edge, -edge}) {
    const Real cand = d + shift;
    const Real cand_abs = std::fabs(cand);
    if (cand_abs < best_abs) {
      best = cand;
      best_abs = cand_abs;
    }
  }
  return best;
}

}  // namespace emdpa::md
