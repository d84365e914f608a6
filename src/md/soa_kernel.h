// Structure-of-arrays N^2 force kernel with SIMD lanes and optional
// thread-pool row parallelism — the host-side analogue of the paper's device
// ports, running as fast as the build machine allows.
//
// Differences from ReferenceKernelT, in the order they matter:
//  * SoA layout: positions live in separate 64-byte-aligned x/y/z arrays, so
//    a SIMD lane load touches contiguous memory (no AoS gather).
//  * Batch inner loop: each atom row tests j-atoms one 64-byte block at a
//    time (simd::block_lanes lanes, a whole number of packs on every ISA);
//    the cutoff test and the force/energy accumulation are fused behind one
//    lane mask (a blend), with an any-lane early-out per pack for the ~97%
//    of batches with no interacting pair.
//  * Min-image hoisted and fused: positions are wrapped into the box once at
//    pack time, after which every ReferenceKernelT min-image strategy agrees
//    exactly (the property the reference-kernel tests assert), so the inner
//    loop is one branch-free single reflection and the kernel has no
//    strategy to choose.
//  * Self-pair exclusion by distance, not index: the lane mask requires
//    r2 > 0, which drops the i==j pair but ALSO any distinct pair of atoms
//    at exactly coincident positions.  ReferenceKernelT only skips j==i and
//    would return inf/NaN forces for such a pair, so on degenerate inputs
//    forces and stats.interacting intentionally diverge; the bitwise-parity
//    claim below is scoped to configurations with no coincident atoms.
//  * ISA dispatch, the <Real, Acc> precision pair, the pack and the ordered
//    per-row reduction are SimdForceKernelT's (md/simd_force_kernel.h):
//    results are bitwise identical across dispatched ISAs and thread counts.
#pragma once

#include "md/simd_force_kernel.h"

namespace emdpa::md {

template <typename Real, typename Acc = Real>
class SoaKernelT final : public SimdForceKernelT<Real, Acc> {
 public:
  using Options = SimdKernelOptions;

  explicit SoaKernelT(Options options = {});

  ForceResult compute(const std::vector<emdpa::Vec3d>& positions,
                      const PeriodicBox& box, const LjParams& lj,
                      double mass) override;

 private:
  simd_kernels::SoaRowsFn<Real, Acc> rows_fn_;
};

using SoaKernel = SoaKernelT<double>;
using SoaKernelF = SoaKernelT<float>;
using SoaKernelMixed = SoaKernelT<float, double>;

}  // namespace emdpa::md
