// Double-facing adapters over the fp32 kernels — the `--precision sp` path.
//
// md::Simulation (and everything above it: backends, reports, checkpoints)
// speaks double.  The sp kernels (SoaKernelT<float>, NeighborListKernelT
// <float>) speak float end to end — that is the point, ALL their math
// including the accumulation runs at single precision, reproducing the
// trade the paper's Cell port makes when it keeps the SPE pipelines in
// fp32.  These adapters sit on the seam: narrow the double interface once
// per evaluation, run the float kernel, widen the results back.  The
// rounding happens exactly where the narrowing casts are written and
// nowhere else.
//
// Contrast with the mixed kernels (<float, double>): those are natively
// double-facing (ForceKernelT<double>), narrow only the lane inputs and
// accumulate in double, so they need no adapter.
#pragma once

#include "md/force_kernel.h"
#include "md/parallel_neighbor.h"
#include "md/soa_kernel.h"

namespace emdpa::md {

/// An fp32 kernel (SoaKernelT<float>, NeighborListKernelT<float>) behind
/// the double ForceKernel interface: narrow the positions once per
/// evaluation, run the float kernel, widen the results back.
template <typename Inner>
class SingleKernel final : public ForceKernel {
 public:
  using Options = typename Inner::Options;

  explicit SingleKernel(Options options = {}) : inner_(options) {}

  std::string name() const override { return inner_.name(); }
  simd::SimdType isa() const { return inner_.isa(); }
  std::size_t simd_width() const { return inner_.simd_width(); }
  /// The float kernel; for the list kernel, the NeighborListControl seam
  /// md::Simulation checkpoints and reports through.
  Inner& inner() { return inner_; }

  ForceResult compute(const std::vector<emdpa::Vec3<double>>& positions,
                      const PeriodicBox& box, const LjParams& lj,
                      double mass) override {
    positions_f_.resize(positions.size());
    for (std::size_t i = 0; i < positions.size(); ++i) {
      positions_f_[i] = {static_cast<float>(positions[i].x),
                         static_cast<float>(positions[i].y),
                         static_cast<float>(positions[i].z)};
    }
    const PeriodicBoxF box_f(static_cast<float>(box.edge()));
    const ForceResultF inner_result = inner_.compute(
        positions_f_, box_f, lj.cast<float>(), static_cast<float>(mass));

    ForceResult result;
    result.accelerations.resize(inner_result.accelerations.size());
    for (std::size_t i = 0; i < inner_result.accelerations.size(); ++i) {
      const auto& a = inner_result.accelerations[i];
      result.accelerations[i] = emdpa::Vec3<double>{a.x, a.y, a.z};
    }
    result.potential_energy = inner_result.potential_energy;
    result.virial = inner_result.virial;
    result.stats = inner_result.stats;
    return result;
  }

 private:
  Inner inner_;
  std::vector<emdpa::Vec3<float>> positions_f_;
};

using SingleSoaKernel = SingleKernel<SoaKernelF>;
using SingleNeighborListKernel = SingleKernel<NeighborListKernelF>;

}  // namespace emdpa::md
