#include "md/soa_kernel.h"

namespace emdpa::md {

template <typename Real, typename Acc>
SoaKernelT<Real, Acc>::SoaKernelT(Options options)
    : SimdForceKernelT<Real, Acc>("soa-simd", options),
      rows_fn_(simd_kernels::soa_rows<Real, Acc>(this->table())) {}

template <typename Real, typename Acc>
ForceResult SoaKernelT<Real, Acc>::compute(
    const std::vector<emdpa::Vec3d>& positions, const PeriodicBox& box,
    const LjParams& lj, double mass) {
  const std::size_t n = positions.size();
  if (n == 0) return {};

  // Pad to whole accumulation blocks (not packs): the padded layout, and so
  // the accumulation order, is identical on every dispatched ISA.  Padding
  // columns sit far enough out that one reflection still leaves them beyond
  // the cutoff, so their lanes never pass the range mask.
  constexpr std::size_t kBlock = SoaKernelT::block_width();
  const std::size_t padded = (n + kBlock - 1) / kBlock * kBlock;
  const auto in = this->narrow(positions, box, lj, mass);
  const auto lanes =
      this->pack(in, padded, Real(4) * (in.box.edge() + in.lj.cutoff));

  ForceResult result = this->sweep(
      n, [&](std::size_t i_begin, std::size_t i_end,
             emdpa::Vec3<Acc>* accelerations, Acc* row_pe, Acc* row_virial,
             std::uint64_t* row_hits) {
        rows_fn_(lanes.xs, lanes.ys, lanes.zs, padded, in.box.edge(),
                 in.lj.cutoff_squared(), in.lj, in.inv_mass, i_begin, i_end,
                 accelerations, row_pe, row_virial, row_hits);
      });
  // The row sweep tests every pair from both ends; report unordered pairs.
  result.stats.candidates =
      static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n - 1) / 2;
  return result;
}

template class SoaKernelT<double>;
template class SoaKernelT<float>;
template class SoaKernelT<float, double>;

}  // namespace emdpa::md
