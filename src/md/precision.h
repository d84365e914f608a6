// Arithmetic precision of the host force kernels (--precision dp|sp|mixed).
//
// Every SIMD kernel faces the double ForceKernel interface, and a precision
// mode is only the pair of real types its kernel templates are instantiated
// on (md/simd_force_kernel.h): `Real`, the type positions are narrowed to,
// packed in and lane math runs in, and `Acc`, the type per-row lane totals
// are reduced into before the results are widened back to double:
//
//   dp     <double, double>  the default; bit-compatible with the seed.
//   sp     <float,  float>   the paper's device precision: lane math and
//                            every accumulation in FP32.
//   mixed  <float,  double>  FP32 lane math (full SIMD width on the hot
//                            loop) with each row's lanes widened to FP64
//                            before the cross-row reduction, so the global
//                            sums do not accumulate float rounding.
#pragma once

#include <string>
#include <type_traits>

namespace emdpa::md {

enum class PrecisionMode { kDouble, kSingle, kMixed };

const char* to_string(PrecisionMode mode);

/// Parse "dp" / "sp" / "mixed" (the --precision spellings); throws
/// RuntimeFailure listing the valid values on anything else.
PrecisionMode parse_precision(const std::string& text);

/// The <Real, Acc> pair a mode instantiates, as a kernel-name tag.
template <typename Real, typename Acc>
constexpr const char* precision_tag() {
  if constexpr (std::is_same_v<Real, double>) {
    return "fp64";
  } else if constexpr (std::is_same_v<Acc, float>) {
    return "fp32";
  } else {
    return "fp32x64";
  }
}

}  // namespace emdpa::md
