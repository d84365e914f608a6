// Deterministic random number generation for workload construction.
//
// We implement the generators ourselves (SplitMix64 for seeding, Xoshiro256**
// for the stream) instead of using std::mt19937 so that workloads are
// bit-reproducible across standard libraries — the benchmark harness relies
// on every backend seeing the identical initial condition.
#pragma once

#include <array>
#include <cstdint>

#include "core/vec3.h"

namespace emdpa {

/// SplitMix64: tiny, high-quality 64-bit generator used to expand a single
/// user seed into the 256-bit Xoshiro state (the construction recommended by
/// the Xoshiro authors).
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256** 1.0 — the project-wide PRNG.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Uniform 64-bit integer.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n).  n must be > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal deviate (Box–Muller, cached second value).
  double gaussian();

  /// Normal deviate with the given mean and standard deviation.
  double gaussian(double mean, double stddev);

  /// Uniform point in the axis-aligned box [0, extent) per component.
  Vec3d point_in_box(const Vec3d& extent);

 private:
  std::array<std::uint64_t, 4> s_;
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace emdpa
