// Parallel O(N) neighbour-list execution path — the standard MD optimisation
// the paper's section 3.4 notes its streaming ports had to forgo ("the
// neighboring atom pairlist construction, which is updated every few
// simulation time steps"), rebuilt here on top of the host thread-pool/SIMD
// layer so the host fast path stops paying N^2 at large atom counts.
//
// Two cooperating pieces:
//
//  * ParallelNeighborListT — a SIMD-padded CSR neighbour list built with a
//    cell-grid bin-and-sweep.  Binning is a pool-parallel stable counting
//    sort: fixed atom chunks wrap their atoms and build per-chunk cell
//    histograms, a prefix-merge pass turns the per-chunk columns into write
//    cursors, and a second chunk-parallel pass scatters atom indices AND
//    their wrapped x/y/z into cell-sorted slots, so every cell is a
//    contiguous span of SoA coordinates.  The output is the unique stable
//    sort by cell — atoms stay in index order within each cell — so the
//    list is a pure function of the inputs at any thread count (the chunk
//    decomposition depends only on N).  Cells are sized to about HALF the
//    list radius with a correspondingly wider stencil — much tighter around
//    the list sphere than a cutoff-sized 27-cell grid — and because every
//    row's distance-test count is known exactly up front (the population of
//    its cell's stencil, computed by three separable 1-D wrap-around window
//    passes, O(cells^3) instead of O(cells^3 * width^3)), a SINGLE
//    pool-parallel sweep writes hits with no counting pass.  The sweep goes
//    out in fixed chunks of cells, and each chunk writes its rows' hits
//    densely into its own buffer, which needs only one row's stencil
//    population of slack at a time: the build's storage is sized by hits,
//    not by distance tests.  A chunk reserves its atoms' expected hits up
//    front, and the buffers are kept across builds, so a fresh build
//    allocates each about once and a steady-state build not at all.
//    The grid has at most 8 cells per atom (16^3 for a few atoms), so a
//    dilute box costs memory and bin time by its atoms, not its volume;
//    beyond that cap the cells grow and the stencil range shrinks.
//    A box narrower than the stencil (2*range + 1 > cells, where wrap-around
//    would visit a cell twice) is built on a one-cell grid with range 0:
//    every atom then tests every other atom, in index order, through the
//    same sweep, so one builder serves every box size.
//    The sweep walks rows cell by cell, so a cell's rows share one stencil
//    whose z-runs are one or two contiguous slot ranges, and tests each
//    candidate with an exact, division-free minimum image (a threshold
//    select, box.h round_half_threshold) that accepts and rejects exactly
//    as min_image + length_squared would.  A serial prefix sum and a
//    copy-only compaction then produce the padded CSR.  Row slot ranges and
//    contents are a pure function of the inputs, independent of thread
//    count.  Each row is padded to the 64-byte ACCUMULATION BLOCK
//    (simd::block_lanes<Real>() — 8 doubles / 16 floats), not the hardware
//    pack width, so the padded layout is identical on every
//    runtime-dispatched ISA; padding slots hold the atom's own index, whose
//    r2 == 0 the shared lane mask (lj_simd.h) already rejects.  The build
//    reports two phase timings — "bin" (wrap + counting sort + stencil
//    tables) and "fill" (distance sweep + prefix + compaction) — which the
//    host-parallel backend surfaces as
//    RunResult::metadata keys list_build_bin_ms / list_build_fill_ms.
//
//  * NeighborListKernelT — a ForceKernel that walks each atom's neighbour
//    lanes one block at a time (hardware vgatherdpd / vgatherdps straight
//    from the fixed-stride CSR entries on AVX2+, lane loads below, then the
//    same fused min-image + masked LJ accumulation as the N^2 SoA kernel,
//    through the same runtime-dispatched per-ISA row loops).  Everything
//    around that row loop — ISA dispatch, the <Real, Acc> precision pair,
//    the pack and the ordered reduction — is SimdForceKernelT's
//    (simd_force_kernel.h), shared with the SoA kernel: forces, PE and
//    virial are bitwise identical run to run at ANY thread count, and
//    bitwise identical across dispatched ISAs.  Each quiet step (no
//    rebuild) is two pool passes: the pack, then the rows.
//
// The list is rebuilt when an atom has moved more than half the skin since
// the build, and additionally on any change of cutoff, box edge or atom
// count.  The per-step displacement scan runs on the pool for large N and
// skips min_image for the (usual) displacements below half the edge.
#pragma once

#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "core/simd.h"
#include "core/thread_pool.h"
#include "md/force_kernel.h"
#include "md/simd_force_kernel.h"

namespace emdpa::md {

/// When a built list considers itself stale.  Structural invalidation
/// (atom-count, cutoff or box-edge change) is always on — a list indexed for
/// a different configuration is memory-unsafe, not merely inaccurate — the
/// policy only governs the displacement check between structurally valid
/// configurations.
enum class SkinPolicy {
  /// Rebuild once any atom has moved more than skin/2 since the last build
  /// (two atoms approaching head-on close the gap by at most `skin`).  The
  /// correct MD policy; the default everywhere.
  kHalfSkinDisplacement,
  /// Never rebuild on displacement.  Deliberately broken: exists so the
  /// trajectory tests can prove the displacement check is load-bearing (a
  /// fast atom silently leaves its stale neighbourhood and the physics
  /// drifts).  Not exposed through any CLI.
  kNeverRebuild,
};

const char* to_string(SkinPolicy policy);

/// What the simulation seam needs from any neighbour-list kernel regardless
/// of its numeric types: rebuild statistics for the run report, and the
/// reference-position capture/reseed pair that lets checkpoints and
/// trajectory-store snapshots observe a run without perturbing it.  Every
/// NeighborListKernelT instantiation (dp, sp, mixed) implements it.
class NeighborListControl {
 public:
  virtual ~NeighborListControl() = default;
  virtual std::uint64_t list_rebuilds() const = 0;
  virtual double list_bin_seconds() const = 0;
  virtual double list_fill_seconds() const = 0;

  /// True when a built list is live (a build happened and nothing
  /// invalidated it since).
  virtual bool has_list() const = 0;
  /// The positions the live list was built from, widened to double (exact
  /// for the float lists: every float is a double).  Empty when !has_list().
  virtual std::vector<emdpa::Vec3d> list_reference_positions() const = 0;
  /// The lj cutoff the live list was built for (widened; the skin is the
  /// kernel's own configuration).  Meaningless when !has_list().
  virtual double list_build_cutoff() const = 0;
  /// Rebuild the list from `reference` (narrowed back to the kernel's Real —
  /// the exact inverse of list_reference_positions' widening).  The build is
  /// a pure function of (positions, box, cutoff), so seeding with a captured
  /// reference reproduces the captured list bit-for-bit — what lets a
  /// resume continue a run that kept its list across the save.
  virtual void seed_list(const std::vector<emdpa::Vec3d>& reference,
                         double box_edge, double cutoff) = 0;
};

/// SIMD-padded CSR neighbour list with a deterministic pool-parallel build.
template <typename Real>
class ParallelNeighborListT {
 public:
  /// `skin`: extra shell radius beyond the cutoff; `pool`: nullptr builds
  /// serially on the caller.
  explicit ParallelNeighborListT(
      Real skin, ThreadPool* pool = nullptr,
      SkinPolicy policy = SkinPolicy::kHalfSkinDisplacement);

  Real skin() const { return skin_; }
  SkinPolicy policy() const { return policy_; }
  std::uint64_t rebuilds() const { return rebuilds_; }

  /// True when the list no longer covers `positions` at `cutoff`: atom count
  /// / cutoff / box edge changed, or some atom moved more than skin/2 since
  /// the last build.
  bool needs_rebuild(const std::vector<emdpa::Vec3<Real>>& positions,
                     const PeriodicBoxT<Real>& box, Real cutoff) const;

  /// Rebuild the list for `positions` at `cutoff` (list radius cutoff+skin).
  void build(const std::vector<emdpa::Vec3<Real>>& positions,
             const PeriodicBoxT<Real>& box, Real cutoff);

  /// Call build() iff needs_rebuild(); returns true when a build happened.
  bool ensure(const std::vector<emdpa::Vec3<Real>>& positions,
              const PeriodicBoxT<Real>& box, Real cutoff);

  /// Drop the current list so the next ensure() rebuilds unconditionally.
  void invalidate() { build_positions_.clear(); build_cutoff_ = Real(-1); }

  /// True when a build is live (built and not invalidated since).
  bool valid() const {
    return build_cutoff_ >= Real(0) && !build_positions_.empty();
  }

  /// The raw input positions of the most recent build — what needs_rebuild
  /// measures displacement against, and what seed-based restores replay.
  const std::vector<emdpa::Vec3<Real>>& reference_positions() const {
    return build_positions_;
  }

  /// The lj cutoff of the most recent build (list radius is cutoff+skin);
  /// Real(-1) when invalid.
  Real build_cutoff() const { return build_cutoff_; }

  std::size_t size() const { return build_positions_.size(); }

  /// Lanes every row's entry range is padded to — the ISA-independent
  /// accumulation block, so one built list serves any dispatched ISA.
  static constexpr std::size_t padded_multiple() {
    return simd::block_lanes<Real>();
  }

  /// Row i's padded entry range in entries(): a multiple of
  /// padded_multiple(); padding slots hold i itself.
  const std::vector<std::uint32_t>& row_begin() const { return row_begin_; }
  const auto& entries() const { return entries_; }

  /// Directed (i,j) entries excluding padding, i.e. 2x the unordered pair
  /// count within cutoff+skin.
  std::uint64_t directed_entries() const { return directed_entries_; }

  /// Directed distance tests the most recent build performed — each
  /// candidate in the stencil sweep is tested exactly once, which is also
  /// what the device cost models price.
  std::uint64_t build_distance_tests() const { return build_distance_tests_; }

  /// Wall-clock seconds the most recent build spent in the binning phase
  /// (wrap + parallel counting sort + stencil tables) and in the fill phase
  /// (distance sweep + prefix + compaction).  The
  /// *_seconds_total accessors accumulate across every build since
  /// construction — what the backend metadata and benchmarks report.
  double last_bin_seconds() const { return last_bin_seconds_; }
  double last_fill_seconds() const { return last_fill_seconds_; }
  double bin_seconds_total() const { return bin_seconds_total_; }
  double fill_seconds_total() const { return fill_seconds_total_; }

 private:
  /// Grows without value-initialising.  A fill chunk's hit buffer gets one
  /// row's slack before each row and the sweep writes every slot it reads
  /// back; the compaction writes every slot of the padded entries.  Zeroing
  /// either would only touch pages for nothing.
  template <typename T>
  struct DefaultInitAllocator : std::allocator<T> {
    template <typename U>
    struct rebind {
      using other = DefaultInitAllocator<U>;
    };
    DefaultInitAllocator() = default;
    template <typename U>
    DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}
    template <typename U>
    void construct(U* p) noexcept {
      ::new (static_cast<void*>(p)) U;
    }
  };
  using IndexBuffer =
      std::vector<std::uint32_t, DefaultInitAllocator<std::uint32_t>>;

  /// Rows of the fill sweep go out in chunks of this many cells (about 75
  /// atoms at liquid density), rows of the compaction in chunks of
  /// kRowGrain atoms, and the staleness scan in chunks of kScanGrain atoms,
  /// so a 2k-atom scan stays on the caller.
  static constexpr std::size_t kCellGrain = 32;
  static constexpr std::size_t kRowGrain = 64;
  static constexpr std::size_t kScanGrain = 8192;
  /// Cells at least half the list radius wide (up to rounding) give
  /// range <= 3, and a box below the stencil width is one cell with
  /// range 0, so a cell's stencil spans fit a fixed array on the fill's
  /// stack.
  static constexpr std::size_t kMaxStencilWidth = 7;

  Real skin_;
  ThreadPool* pool_;
  SkinPolicy policy_;

  Real build_cutoff_ = Real(-1);   ///< lj cutoff the list was built for
  Real build_edge_ = Real(-1);     ///< box edge the list was built for
  Real list_cutoff_sq_ = Real(0);
  std::vector<emdpa::Vec3<Real>> build_positions_;
  std::vector<std::uint32_t> row_begin_;   ///< n+1 padded CSR offsets
  IndexBuffer entries_;                    ///< padded neighbour indices
  std::vector<std::uint32_t> row_count_;   ///< true (unpadded) counts
  std::uint64_t directed_entries_ = 0;
  std::uint64_t build_distance_tests_ = 0;
  std::uint64_t rebuilds_ = 0;

  double last_bin_seconds_ = 0;
  double last_fill_seconds_ = 0;
  double bin_seconds_total_ = 0;
  double fill_seconds_total_ = 0;

  // Cell-grid scratch reused across builds.
  std::vector<std::uint32_t> cell_start_;
  std::vector<std::uint32_t> cell_atoms_;    ///< atom index per sorted slot
  std::vector<Real> sorted_x_, sorted_y_, sorted_z_;  ///< wrapped, per slot
  std::vector<std::uint32_t> bin_hist_;      ///< per-chunk cell histograms
  std::vector<std::uint32_t> stencil_axis_;  ///< per-axis wrapped cell indices
  std::vector<std::uint32_t> stencil_pop_;   ///< atoms per cell stencil
  std::vector<std::uint32_t> stencil_tmp_;   ///< separable-pass intermediate
  std::vector<IndexBuffer> fill_hits_;  ///< per fill chunk: its rows' hits
  /// Per atom: where its row sits in fill_hits_, (chunk << 32) | offset.
  std::vector<std::uint64_t> row_handle_;
};

/// Neighbour-list force kernel: the host fast path at large N.
///
/// Same physics, determinism guarantees and coincident-atom caveat as
/// SoaKernelT (see soa_kernel.h); PairStats count unordered pairs, with
/// candidates bounded by the list size rather than N^2.  The list is built
/// from the positions narrowed to Real, the coordinates the lanes see, so sp
/// and mixed traverse identical lists.
template <typename Real, typename Acc = Real>
class NeighborListKernelT final : public SimdForceKernelT<Real, Acc>,
                                  public NeighborListControl {
 public:
  struct Options : SimdKernelOptions {
    double skin = 0.3;
    /// Displacement-staleness policy (kNeverRebuild is for tests only).
    SkinPolicy skin_policy = SkinPolicy::kHalfSkinDisplacement;
  };

  explicit NeighborListKernelT(Options options = {})
      : SimdForceKernelT<Real, Acc>("neighbor-list-soa", options),
        list_(static_cast<Real>(options.skin), options.pool,
              options.skin_policy),
        rows_fn_(simd_kernels::list_rows<Real, Acc>(this->table())) {}

  Real skin() const { return list_.skin(); }
  std::uint64_t rebuilds() const { return list_.rebuilds(); }
  std::uint64_t evaluations() const { return evaluations_; }

  /// The underlying list, for inspection (rebuild counters, entry counts —
  /// the pairlist device cost models read their workload from here).
  const ParallelNeighborListT<Real>& list() const { return list_; }

  /// Force the next compute() to rebuild the list (benchmarks use this to
  /// price the build; steady-state evaluation reuses the list).
  void invalidate() { list_.invalidate(); }

  // NeighborListControl — the type-erased seam md::Simulation drives.
  std::uint64_t list_rebuilds() const override { return list_.rebuilds(); }
  double list_bin_seconds() const override {
    return list_.bin_seconds_total();
  }
  double list_fill_seconds() const override {
    return list_.fill_seconds_total();
  }
  bool has_list() const override { return list_.valid(); }
  std::vector<emdpa::Vec3d> list_reference_positions() const override {
    std::vector<emdpa::Vec3d> out;
    out.reserve(list_.reference_positions().size());
    for (const auto& p : list_.reference_positions()) {
      out.push_back({static_cast<double>(p.x), static_cast<double>(p.y),
                     static_cast<double>(p.z)});
    }
    return out;
  }
  double list_build_cutoff() const override {
    return static_cast<double>(list_.build_cutoff());
  }
  void seed_list(const std::vector<emdpa::Vec3d>& reference, double box_edge,
                 double cutoff) override {
    // Narrowing double -> Real here is the exact inverse of the widening in
    // list_reference_positions (for Real == float the stored doubles are
    // exactly representable floats), so the rebuilt list is bit-identical to
    // the one captured.
    std::vector<emdpa::Vec3<Real>> narrowed;
    narrowed.reserve(reference.size());
    for (const auto& p : reference) {
      narrowed.push_back({static_cast<Real>(p.x), static_cast<Real>(p.y),
                          static_cast<Real>(p.z)});
    }
    list_.build(narrowed, PeriodicBoxT<Real>(static_cast<Real>(box_edge)),
                static_cast<Real>(cutoff));
  }

  ForceResult compute(const std::vector<emdpa::Vec3d>& positions,
                      const PeriodicBox& box, const LjParams& lj,
                      double mass) override {
    const std::size_t n = positions.size();
    if (n == 0) return {};

    const auto in = this->narrow(positions, box, lj, mass);
    list_.ensure(in.positions, in.box, in.lj.cutoff);
    ++evaluations_;
    const auto lanes = this->pack(in, n, Real(0));

    // The dispatched per-ISA row loop (kernel_rows.h): gather each padded
    // CSR sub-pack, masked LJ accumulate, lane-order reduce.
    const std::uint32_t* row_begin = list_.row_begin().data();
    const std::uint32_t* entries = list_.entries().data();
    ForceResult result = this->sweep(
        n, [&](std::size_t i_begin, std::size_t i_end,
               emdpa::Vec3<Acc>* accelerations, Acc* row_pe, Acc* row_virial,
               std::uint64_t* row_hits) {
          rows_fn_(lanes.xs, lanes.ys, lanes.zs, row_begin, entries,
                   in.box.edge(), in.lj.cutoff_squared(), in.lj, in.inv_mass,
                   i_begin, i_end, accelerations, row_pe, row_virial,
                   row_hits);
        });
    result.stats.candidates = list_.directed_entries() / 2;  // unordered
    return result;
  }

 private:
  ParallelNeighborListT<Real> list_;
  simd_kernels::ListRowsFn<Real, Acc> rows_fn_;
  std::uint64_t evaluations_ = 0;
};

using NeighborListKernel = NeighborListKernelT<double>;
using NeighborListKernelF = NeighborListKernelT<float>;
using NeighborListKernelMixed = NeighborListKernelT<float, double>;

}  // namespace emdpa::md
