#include "md/parallel_neighbor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <string>

#include "core/error.h"
#include "core/fault_injection.h"
#include "md/list_build_util.h"

namespace emdpa::md {

using listutil::padded_count;
using listutil::seconds_since;

const char* to_string(SkinPolicy policy) {
  switch (policy) {
    case SkinPolicy::kHalfSkinDisplacement: return "half-skin-displacement";
    case SkinPolicy::kNeverRebuild: return "never-rebuild";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// ParallelNeighborListT
// ---------------------------------------------------------------------------

template <typename Real>
ParallelNeighborListT<Real>::ParallelNeighborListT(Real skin, ThreadPool* pool,
                                                   std::size_t grain,
                                                   SkinPolicy policy)
    : skin_(skin), pool_(pool), grain_(grain), policy_(policy) {
  EMDPA_REQUIRE(skin >= Real(0), "skin must be non-negative");
}

template <typename Real>
void ParallelNeighborListT<Real>::run_rows(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t)>& body) const {
  run_span(n, grain_, body);
}

template <typename Real>
void ParallelNeighborListT<Real>::run_span(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) const {
  if (pool_ != nullptr) {
    pool_->parallel_for(0, n, grain, body);
  } else {
    body(0, n);
  }
}

template <typename Real>
bool ParallelNeighborListT<Real>::needs_rebuild(
    const std::vector<emdpa::Vec3<Real>>& positions,
    const PeriodicBoxT<Real>& box, Real cutoff) const {
  if (build_positions_.size() != positions.size()) return true;
  // A list built for one cutoff silently drops interactions at a larger one
  // — invalidate on ANY cutoff (or box) change, not just growth.
  if (cutoff != build_cutoff_ || box.edge() != build_edge_) return true;
  if (policy_ == SkinPolicy::kNeverRebuild) return false;  // broken on purpose
  // Valid while no atom moved more than half the skin since the build: two
  // atoms approaching from opposite sides close at most `skin` total.  The
  // scan is an any-reduction, so splitting it over the pool cannot change
  // the answer.  Most displacements are far below half the edge, where
  // min_image is the identity (box.h round_half_threshold): those skip its
  // three divisions and rounds; the rest still take it.
  const Real limit_sq = (skin_ / Real(2)) * (skin_ / Real(2));
  const Real half = box.round_half_threshold();
  std::atomic<bool> stale{false};
  run_span(positions.size(), kScanGrain, [&](std::size_t i_begin,
                                             std::size_t i_end) {
    if (stale.load(std::memory_order_relaxed)) return;
    for (std::size_t i = i_begin; i < i_end; ++i) {
      auto dr = positions[i] - build_positions_[i];
      if (!(std::fabs(dr.x) < half && std::fabs(dr.y) < half &&
            std::fabs(dr.z) < half)) {
        dr = box.min_image(dr);
      }
      if (length_squared(dr) > limit_sq) {
        stale.store(true, std::memory_order_relaxed);
        return;
      }
    }
  });
  return stale.load(std::memory_order_relaxed);
}

template <typename Real>
bool ParallelNeighborListT<Real>::ensure(
    const std::vector<emdpa::Vec3<Real>>& positions,
    const PeriodicBoxT<Real>& box, Real cutoff) {
  if (!needs_rebuild(positions, box, cutoff)) return false;
  build(positions, box, cutoff);
  return true;
}

template <typename Real>
void ParallelNeighborListT<Real>::build_all_pairs(
    const std::vector<emdpa::Vec3<Real>>& positions,
    const PeriodicBoxT<Real>& box) {
  std::vector<emdpa::Vec3<Real>> wrapped(positions.size());
  run_rows(positions.size(), [&](std::size_t i_begin, std::size_t i_end) {
    for (std::size_t i = i_begin; i < i_end; ++i) {
      wrapped[i] = box.wrap(positions[i]);
    }
  });
  listutil::build_all_pairs_csr<Real>(
      wrapped, box, list_cutoff_sq_,
      [this](std::size_t n,
             const std::function<void(std::size_t, std::size_t)>& body) {
        run_rows(n, body);
      },
      row_begin_, entries_, row_count_, directed_entries_,
      build_distance_tests_);
}

template <typename Real>
void ParallelNeighborListT<Real>::bin_atoms(
    const std::vector<emdpa::Vec3<Real>>& positions,
    const PeriodicBoxT<Real>& box, std::size_t cells, std::size_t n_cells,
    double inv_cell) {
  // The three passes of the stable counting sort live in list_build_util.h.
  auto run = [this](std::size_t count, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& body) {
    run_span(count, grain, body);
  };
  listutil::bin_pass_histogram(positions, box, cells, n_cells, inv_cell, run,
                               bin_hist_);
  listutil::bin_merge_scatter(positions, box, cells, n_cells, inv_cell, run,
                              bin_hist_, cell_start_, cell_atoms_, sorted_x_,
                              sorted_y_, sorted_z_);
}

template <typename Real>
void ParallelNeighborListT<Real>::populate_stencil(std::size_t cells,
                                                   std::size_t range) {
  auto run = [this](std::size_t count, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& body) {
    run_span(count, grain, body);
  };
  listutil::populate_stencil(cells, range, run, cell_start_, stencil_pop_,
                             stencil_tmp_);
}

template <typename Real>
void ParallelNeighborListT<Real>::build(
    const std::vector<emdpa::Vec3<Real>>& positions,
    const PeriodicBoxT<Real>& box, Real cutoff) {
  if (fault::injected("md.list_build")) {
    // Leave the list invalidated so a degraded-then-retried evaluation (or a
    // later healthy step) starts from a clean rebuild, not a half-built CSR.
    invalidate();
    throw RuntimeFailure("neighbour list: injected rebuild failure");
  }
  const std::size_t n = positions.size();
  const Real list_cutoff = cutoff + skin_;
  list_cutoff_sq_ = list_cutoff * list_cutoff;
  build_cutoff_ = cutoff;
  build_edge_ = box.edge();
  build_positions_ = positions;
  directed_entries_ = 0;
  build_distance_tests_ = 0;
  last_bin_seconds_ = 0;
  last_fill_seconds_ = 0;
  ++rebuilds_;

  const auto t_start = std::chrono::steady_clock::now();
  if (n == 0) {
    row_begin_.assign(1, 0);
    entries_.clear();
    return;
  }

  // Cell edge targets HALF the list radius: cutoff-sized cells sweep the
  // classic 27-cell stencil, ~16x the volume of the list sphere, while a
  // radius-2 stencil over half-sized cells sweeps ~6x — far fewer wasted
  // distance tests per build.  `range` is however many cells it takes to
  // cover the list radius at the realised cell edge.
  const double edge = static_cast<double>(box.edge());
  auto cells_ll =
      static_cast<long long>(edge / (static_cast<double>(list_cutoff) * 0.5));
  if (cells_ll < 1) cells_ll = 1;
  const auto cells = static_cast<std::size_t>(cells_ll);
  const double cell_edge = edge / static_cast<double>(cells);
  const auto range = static_cast<std::size_t>(
      std::ceil(static_cast<double>(list_cutoff) / cell_edge));
  const std::size_t width = 2 * range + 1;
  if (width > cells) {
    // Box too small for a proper stencil (wrap-around would visit a cell
    // twice and duplicate entries): O(N^2) build instead.  All of it counts
    // as fill — there is no binning phase to speak of.
    last_bin_seconds_ = seconds_since(t_start);
    bin_seconds_total_ += last_bin_seconds_;
    const auto t_fill = std::chrono::steady_clock::now();
    build_all_pairs(positions, box);
    last_fill_seconds_ = seconds_since(t_fill);
    fill_seconds_total_ += last_fill_seconds_;
    return;
  }

  // Pool-parallel stable counting sort into cells (wrap + per-chunk
  // histograms, prefix-merge, scatter into cell-sorted x/y/z).  Atoms stay
  // in index order within each cell, which makes the sweep order (and so
  // the list) independent of thread count.
  const double inv_cell = static_cast<double>(cells) / edge;
  const std::size_t n_cells = cells * cells * cells;
  bin_atoms(positions, box, cells, n_cells, inv_cell);

  // Per-axis wrapped stencil indices.
  listutil::fill_stencil_axis(cells, range, stencil_axis_);

  // Stencil population per cell.  Every atom in a cell sweeps exactly the
  // atoms of that cell's stencil (minus itself), so this is the EXACT
  // per-row distance-test count — which lets the single sweep below write
  // hits straight into disjoint scratch ranges with no counting pass.
  // Computed separably: one 1-D wrap-around window pass per axis.
  populate_stencil(cells, range);

  // Exact scratch row offsets, laid out in slot order so the sweep writes
  // its rows front to back (serial prefix — deterministic, so the layout is
  // independent of thread count).  Each row gets its tests plus one slack
  // slot: the sweep stores every candidate before deciding whether to keep
  // it, self included.
  scratch_begin_.resize(n);
  std::uint64_t scratch_size = 0;
  for (std::size_t c = 0; c < n_cells; ++c) {
    for (std::uint32_t s = cell_start_[c]; s < cell_start_[c + 1]; ++s) {
      scratch_begin_[cell_atoms_[s]] = scratch_size;
      scratch_size += stencil_pop_[c];
    }
  }
  build_distance_tests_ = scratch_size - n;  // every candidate but self
  scratch_entries_.resize(scratch_size);

  last_bin_seconds_ = seconds_since(t_start);
  bin_seconds_total_ += last_bin_seconds_;
  const auto t_fill = std::chrono::steady_clock::now();

  // The single distance sweep, walked cell by cell so a cell's rows share
  // one stencil.  For each stencil column (px, py) the `width` z-cells are
  // consecutive mod `cells`, so they are one contiguous slot range of the
  // cell-sorted coordinates, or two when the run wraps — visited in the
  // same kz order as the stencil table.  Each row's candidates therefore
  // come in one fixed order (stencil cells in table order, atoms within a
  // cell in index order) and the list is a pure function of the inputs.
  // The per-axis test is min_image as an exact select (box.h
  // round_half_threshold): no division, and the same accept/reject as
  // min_image followed by the same length_squared expression.  Hits are
  // written branch-free: every candidate is stored, and the cursor moves
  // only past the keepers.
  const Real box_edge = box.edge();
  const Real half = box.round_half_threshold();
  const Real cutoff_sq = list_cutoff_sq_;
  const Real* xs = sorted_x_.data();
  const Real* ys = sorted_y_.data();
  const Real* zs = sorted_z_.data();
  const std::uint32_t* start = cell_start_.data();
  const std::uint32_t* atoms = cell_atoms_.data();
  const std::uint32_t* axis = stencil_axis_.data();
  std::uint32_t* scratch = scratch_entries_.data();
  row_count_.resize(n);
  EMDPA_ENSURE(width <= kMaxStencilWidth, "list stencil wider than 7 cells");
  run_span(n_cells, kCellGrain, [&](std::size_t c_begin, std::size_t c_end) {
    // [begin, end) slot ranges of one cell's stencil: up to two z-runs per
    // (px, py) column.
    std::uint32_t spans[4 * kMaxStencilWidth * kMaxStencilWidth];
    for (std::size_t c = c_begin; c < c_end; ++c) {
      if (start[c] == start[c + 1]) continue;
      const std::size_t cx = c / (cells * cells);
      const std::size_t cy = (c / cells) % cells;
      const std::size_t z_first = (c % cells + cells - range) % cells;
      const std::size_t z_last = z_first + width;  // may pass `cells`: wraps
      std::size_t n_spans = 0;
      for (std::size_t kx = 0; kx < width; ++kx) {
        const std::size_t px = axis[cx * width + kx];
        for (std::size_t ky = 0; ky < width; ++ky) {
          const std::size_t py = axis[cy * width + ky];
          const std::size_t column = (px * cells + py) * cells;
          spans[n_spans++] = start[column + z_first];
          spans[n_spans++] = start[column + std::min(z_last, cells)];
          if (z_last > cells) {
            spans[n_spans++] = start[column];
            spans[n_spans++] = start[column + z_last - cells];
          }
        }
      }
      for (std::uint32_t self = start[c]; self < start[c + 1]; ++self) {
        const Real xi = xs[self];
        const Real yi = ys[self];
        const Real zi = zs[self];
        const std::uint32_t i = atoms[self];
        std::uint32_t* out = scratch + scratch_begin_[i];
        std::uint32_t kept = 0;
        for (std::size_t k = 0; k < n_spans; k += 2) {
          for (std::uint32_t s = spans[k]; s < spans[k + 1]; ++s) {
            Real dx = xi - xs[s];
            Real dy = yi - ys[s];
            Real dz = zi - zs[s];
            dx -= std::fabs(dx) >= half ? std::copysign(box_edge, dx) : Real(0);
            dy -= std::fabs(dy) >= half ? std::copysign(box_edge, dy) : Real(0);
            dz -= std::fabs(dz) >= half ? std::copysign(box_edge, dz) : Real(0);
            const Real r2 = dx * dx + dy * dy + dz * dz;
            out[kept] = atoms[s];
            kept += static_cast<std::uint32_t>(r2 < cutoff_sq) &
                    static_cast<std::uint32_t>(s != self);
          }
        }
        row_count_[i] = kept;
      }
    }
  });

  // Serial prefix sum over SIMD-padded row extents.
  row_begin_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    row_begin_[i + 1] = row_begin_[i] + padded_count<Real>(row_count_[i]);
    directed_entries_ += row_count_[i];
  }

  // Compaction: copy each scratch row into its padded slot range.  Pure
  // data movement, no distance math.
  entries_.resize(row_begin_[n]);
  run_rows(n, [&](std::size_t i_begin, std::size_t i_end) {
    for (std::size_t i = i_begin; i < i_end; ++i) {
      const std::uint32_t* src = scratch_entries_.data() + scratch_begin_[i];
      std::uint32_t slot = row_begin_[i];
      for (std::uint32_t k = 0; k < row_count_[i]; ++k) {
        entries_[slot++] = src[k];
      }
      for (; slot < row_begin_[i + 1]; ++slot) {
        entries_[slot] = static_cast<std::uint32_t>(i);  // self pad, r2 == 0
      }
    }
  });

  last_fill_seconds_ = seconds_since(t_fill);
  fill_seconds_total_ += last_fill_seconds_;
}

template class ParallelNeighborListT<double>;
template class ParallelNeighborListT<float>;

}  // namespace emdpa::md
