// The force-evaluation code the host SIMD kernels share.
//
// SoaKernelT (md/soa_kernel.h) and NeighborListKernelT
// (md/parallel_neighbor.h) differ only in which j columns a row sweeps:
// every padded column, or the row's padded CSR entries.  Everything around
// that sweep is written here, once:
//  * ISA dispatch: Options::isa, else EMDPA_SIMD, else the fastest table this
//    CPU runs (md/simd_kernels.h).  Rows accumulate in fixed blocks reduced
//    in lane order, so every ISA gives BITWISE IDENTICAL results
//    (md/kernel_rows.h).
//  * Precision: every kernel faces the double ForceKernel interface, and the
//    mode is only the <Real, Acc> pair (md/precision.h).  Positions, box and
//    LJ parameters are narrowed to Real once per evaluation, here and nowhere
//    else; per-row partials and their reduction run in Acc and are widened
//    back to double exactly.
//  * The wrapped SoA pack: positions are wrapped into the box once, so the
//    row loops' single fused reflection is the exact minimum image.
//  * Per-row pe/virial/hit scratch and the ordered reduction over it: forces,
//    PE and virial are bit-identical run to run at ANY thread count.
//  * name(): "<family>[isa,w<lanes>,<precision>]" plus "[threads=N]".
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "core/aligned_buffer.h"
#include "core/simd.h"
#include "core/thread_pool.h"
#include "md/force_kernel.h"
#include "md/precision.h"
#include "md/simd_kernels.h"

namespace emdpa::md {

/// Options every SIMD kernel takes.
struct SimdKernelOptions {
  /// Pool to split atom rows (and the list build) over; nullptr runs serial
  /// on the caller.
  ThreadPool* pool = nullptr;
  /// Force this instruction set (throws at construction when it cannot run
  /// here); empty resolves EMDPA_SIMD, then the fastest available.
  std::optional<simd::SimdType> isa;
};

template <typename Real, typename Acc>
class SimdForceKernelT : public ForceKernel {
 public:
  std::string name() const final {
    std::string name = std::string(family_) + "[" + simd::to_string(isa_) +
                       ",w" + std::to_string(width_) + "," +
                       precision_tag<Real, Acc>() + "]";
    if (pool_ != nullptr) {
      name += "[threads=" + std::to_string(pool_->size()) + "]";
    }
    return name;
  }

  /// The instruction set the dispatcher selected for this instance.
  simd::SimdType isa() const { return isa_; }

  /// SIMD lane count the dispatched kernel executes per pack — a runtime
  /// property of the selected ISA, NOT the compile-time native width.
  std::size_t simd_width() const { return width_; }

  /// Lanes per accumulation block; rows are padded to this on every ISA.
  static constexpr std::size_t block_width() {
    return simd::block_lanes<Real>();
  }

 protected:
  /// One evaluation's inputs, narrowed to Real.
  struct Inputs {
    /// The caller's positions when Real is double, else their narrowed copy.
    const std::vector<emdpa::Vec3<Real>>& positions;
    PeriodicBoxT<Real> box;
    LjParamsT<Real> lj;
    Acc inv_mass;
  };

  /// Packed, wrapped coordinates.
  struct Lanes {
    const Real* xs;
    const Real* ys;
    const Real* zs;
  };

  SimdForceKernelT(const char* family, const SimdKernelOptions& options)
      : family_(family),
        pool_(options.pool),
        isa_(simd_kernels::resolve_isa(options.isa)),
        table_(simd_kernels::rows(isa_)),
        width_(simd_kernels::width<Real>(table_)) {}

  const simd_kernels::KernelRows& table() const { return table_; }

  Inputs narrow(const std::vector<emdpa::Vec3d>& positions,
                const PeriodicBox& box, const LjParams& lj, double mass) {
    const PeriodicBoxT<Real> rbox(static_cast<Real>(box.edge()));
    const LjParamsT<Real> rlj = lj.cast<Real>();
    const Acc inv_mass = Acc(1) / static_cast<Acc>(mass);
    if constexpr (std::is_same_v<Real, double>) {
      return {positions, rbox, rlj, inv_mass};
    } else {
      positions_.resize(positions.size());
      for (std::size_t i = 0; i < positions.size(); ++i) {
        positions_[i] = {static_cast<Real>(positions[i].x),
                         static_cast<Real>(positions[i].y),
                         static_cast<Real>(positions[i].z)};
      }
      return {positions_, rbox, rlj, inv_mass};
    }
  }

  /// Wrap the positions into the box and pack them into SoA lanes (on the
  /// pool, kPackGrain atoms per chunk), then fill columns [n, padded) with
  /// `pad`.
  Lanes pack(const Inputs& in, std::size_t padded, Real pad) {
    const std::size_t n = in.positions.size();
    if (!xs_ || xs_->size() < padded) {
      xs_.emplace(padded);
      ys_.emplace(padded);
      zs_.emplace(padded);
    }
    Real* xs = xs_->data();
    Real* ys = ys_->data();
    Real* zs = zs_->data();
    run(n, kPackGrain, [&](std::size_t i_begin, std::size_t i_end) {
      for (std::size_t i = i_begin; i < i_end; ++i) {
        const emdpa::Vec3<Real> p = in.box.wrap(in.positions[i]);
        xs[i] = p.x;
        ys[i] = p.y;
        zs[i] = p.z;
      }
    });
    for (std::size_t j = n; j < padded; ++j) xs[j] = ys[j] = zs[j] = pad;
    return {xs, ys, zs};
  }

  /// Run rows(i_begin, i_end, accelerations, row_pe, row_virial, row_hits)
  /// over all `n` atom rows (on the pool, kForceRowGrain rows per chunk) and
  /// reduce the per-row partials in row order.  Fills everything but
  /// stats.candidates, which only the caller knows.
  template <typename Rows>
  ForceResult sweep(std::size_t n, const Rows& rows) {
    ForceResult result;
    result.accelerations.assign(n, {});
    emdpa::Vec3<Acc>* accelerations;
    if constexpr (std::is_same_v<Acc, double>) {
      accelerations = result.accelerations.data();
    } else {
      accelerations_.resize(n);
      accelerations = accelerations_.data();
    }
    row_pe_.resize(n);
    row_virial_.resize(n);
    row_hits_.resize(n);
    run(n, kForceRowGrain, [&](std::size_t i_begin, std::size_t i_end) {
      rows(i_begin, i_end, accelerations, row_pe_.data(), row_virial_.data(),
           row_hits_.data());
    });
    if constexpr (!std::is_same_v<Acc, double>) {
      for (std::size_t i = 0; i < n; ++i) {
        const emdpa::Vec3<Acc>& a = accelerations_[i];
        result.accelerations[i] = {a.x, a.y, a.z};
      }
    }

    // Ordered reduction over the per-row partials: totals are independent of
    // thread count and chunking, bit-identical run to run.
    Acc pe{}, virial{};
    std::uint64_t hits = 0;
    for (std::size_t i = 0; i < n; ++i) {
      pe += row_pe_[i];
      virial += row_virial_[i];
      hits += row_hits_[i];
    }
    result.potential_energy = pe;
    result.virial = virial;
    result.stats.interacting = hits / 2;  // rows see each pair from both ends
    return result;
  }

 private:
  /// Atoms per chunk of the pack pass.
  static constexpr std::size_t kPackGrain = 512;

  template <typename Body>
  void run(std::size_t n, std::size_t grain, const Body& body) {
    if (pool_ != nullptr) {
      pool_->parallel_for(0, n, grain, body);
    } else {
      body(0, n);
    }
  }

  const char* family_;
  ThreadPool* pool_;
  simd::SimdType isa_;
  const simd_kernels::KernelRows& table_;
  std::size_t width_;
  // Scratch reused across evaluations (one kernel instance drives a run).
  std::vector<emdpa::Vec3<Real>> positions_;      ///< Real != double only
  std::vector<emdpa::Vec3<Acc>> accelerations_;   ///< Acc != double only
  std::optional<AlignedBuffer<Real, 64>> xs_, ys_, zs_;
  std::vector<Acc> row_pe_, row_virial_;
  std::vector<std::uint64_t> row_hits_;
};

}  // namespace emdpa::md
