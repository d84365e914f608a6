// Reference (host) N^2 force kernel — the paper's baseline algorithm.
//
// Structure follows the paper exactly: for each atom, scan all other N-1
// atoms, find the closest periodic image, test against the cutoff, and
// accumulate force and potential energy.  No neighbour lists, no Newton's
// third law halving — every ordered pair is examined, which is also what the
// GPU and SPE ports require (each parallel instance owns one atom's output).
// Per-atom PE contributions are half the pair energy so the system total
// comes out right.
//
// The min-image strategy is dispatched ONCE per row range, not per pair: the
// inner loop is instantiated per strategy, so the scalar kernel pays no
// per-pair switch.  Optionally, atom rows run on a ThreadPool; per-row
// partials are reduced in row order afterwards, so the parallel result is
// bit-identical to the serial one at any thread count (the MTA model relies
// on this to execute its streams concurrently while staying bitwise equal to
// the sequential ground truth).
#pragma once

#include "core/thread_pool.h"
#include "md/force_kernel.h"

namespace emdpa::md {

/// Which minimum-image computation the kernel uses.  All strategies produce
/// identical physics (asserted by tests); they differ only in operation mix,
/// which is what the device timing models price.
enum class MinImageStrategy {
  kSearch27,   ///< brute-force 27-image search (paper's original kernel)
  kBranchy,    ///< per-axis if/else reflection
  kCopysign,   ///< branch-free copysign reflection (paper's first SPE opt)
  kRound,      ///< round-to-nearest-image (host shorthand, same result)
};

const char* to_string(MinImageStrategy s);

template <typename Real>
class ReferenceKernelT final : public ForceKernelT<Real> {
 public:
  explicit ReferenceKernelT(MinImageStrategy strategy = MinImageStrategy::kRound,
                            ThreadPool* pool = nullptr)
      : strategy_(strategy), pool_(pool) {}

  std::string name() const override;

  MinImageStrategy strategy() const { return strategy_; }

  ForceResultT<Real> compute(const std::vector<emdpa::Vec3<Real>>& positions,
                             const PeriodicBoxT<Real>& box,
                             const LjParamsT<Real>& lj, Real mass) override;

 private:
  template <MinImageStrategy S>
  void compute_rows(const std::vector<emdpa::Vec3<Real>>& positions,
                    const PeriodicBoxT<Real>& box, const LjParamsT<Real>& lj,
                    Real inv_mass, std::size_t i_begin, std::size_t i_end,
                    ForceResultT<Real>& result, Real* row_pe, Real* row_virial,
                    std::uint64_t* row_hits) const;

  MinImageStrategy strategy_;
  ThreadPool* pool_;
};

using ReferenceKernel = ReferenceKernelT<double>;
using ReferenceKernelF = ReferenceKernelT<float>;

}  // namespace emdpa::md
