#include "md/parallel_neighbor.h"

#include <algorithm>
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
  // atoms approaching from opposite sides close at most `skin` total.
  const Real limit_sq = (skin_ / Real(2)) * (skin_ / Real(2));
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const auto dr = box.min_image(positions[i] - build_positions_[i]);
    if (length_squared(dr) > limit_sq) return true;
  }
  return false;
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
    const std::vector<emdpa::Vec3<Real>>& wrapped,
    const PeriodicBoxT<Real>& box) {
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
void ParallelNeighborListT<Real>::bin_atoms(std::size_t n, std::size_t cells,
                                            std::size_t n_cells,
                                            double inv_cell) {
  // The three passes of the stable counting sort live in list_build_util.h.
  (void)n;
  auto run = [this](std::size_t count, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& body) {
    run_span(count, grain, body);
  };
  listutil::bin_pass_histogram(wrapped_, cells, n_cells, inv_cell, run,
                               cell_of_atom_, bin_hist_);
  listutil::bin_merge_scatter(wrapped_.size(), n_cells, run, cell_of_atom_,
                              bin_hist_, cell_start_, cell_atoms_);
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
  wrapped_.resize(n);
  run_rows(n, [&](std::size_t i_begin, std::size_t i_end) {
    for (std::size_t i = i_begin; i < i_end; ++i) {
      wrapped_[i] = box.wrap(positions[i]);
    }
  });

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
  const auto range = static_cast<long long>(
      std::ceil(static_cast<double>(list_cutoff) / cell_edge));
  const std::size_t width = static_cast<std::size_t>(2 * range + 1);
  if (width > cells) {
    // Box too small for a proper stencil (wrap-around would visit a cell
    // twice and duplicate entries): O(N^2) build instead.  All of it counts
    // as fill — there is no binning phase to speak of.
    last_bin_seconds_ = seconds_since(t_start);
    bin_seconds_total_ += last_bin_seconds_;
    const auto t_fill = std::chrono::steady_clock::now();
    build_all_pairs(wrapped_, box);
    last_fill_seconds_ = seconds_since(t_fill);
    fill_seconds_total_ += last_fill_seconds_;
    return;
  }

  // Pool-parallel stable counting sort into cells (per-chunk histograms +
  // prefix-merge + scatter).  Atoms stay in index order within each cell,
  // which makes the sweep order (and so the list) independent of thread
  // count.
  const double inv_cell = static_cast<double>(cells) / edge;
  const std::size_t n_cells = cells * cells * cells;
  bin_atoms(n, cells, n_cells, inv_cell);

  // Per-axis wrapped stencil indices.
  listutil::fill_stencil_axis(cells, static_cast<std::size_t>(range),
                              stencil_axis_);

  // Stencil population per cell.  Every atom in a cell sweeps exactly the
  // atoms of that cell's stencil (minus itself), so this is the EXACT
  // per-row distance-test count — which lets the single sweep below write
  // hits straight into disjoint scratch ranges with no counting pass.
  // Computed separably: one 1-D wrap-around window pass per axis.
  populate_stencil(cells, static_cast<std::size_t>(range));

  // Exact scratch CSR offsets (serial prefix — deterministic, so the sweep's
  // output layout is independent of thread count).
  scratch_begin_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    scratch_begin_[i + 1] =
        scratch_begin_[i] + stencil_pop_[cell_of_atom_[i]] - 1;  // minus self
  }
  build_distance_tests_ = scratch_begin_[n];
  scratch_entries_.resize(scratch_begin_[n]);

  last_bin_seconds_ = seconds_since(t_start);
  bin_seconds_total_ += last_bin_seconds_;
  const auto t_fill = std::chrono::steady_clock::now();

  // The single distance sweep: unlike the classic count-then-fill scheme it
  // pays each distance test exactly once (matching what the device cost
  // models price), writing hits into the row's scratch range in one fixed
  // order — stencil cells in table order, atoms within a cell in index
  // order — so the list contents are a pure function of the inputs.
  row_count_.assign(n, 0);
  run_rows(n, [&](std::size_t i_begin, std::size_t i_end) {
    for (std::size_t i = i_begin; i < i_end; ++i) {
      const std::size_t cx = listutil::axis_cell(wrapped_[i].x, inv_cell, cells);
      const std::size_t cy = listutil::axis_cell(wrapped_[i].y, inv_cell, cells);
      const std::size_t cz = listutil::axis_cell(wrapped_[i].z, inv_cell, cells);
      std::uint64_t slot = scratch_begin_[i];
      for (std::size_t kx = 0; kx < width; ++kx) {
        const std::size_t px = stencil_axis_[cx * width + kx];
        for (std::size_t ky = 0; ky < width; ++ky) {
          const std::size_t py = stencil_axis_[cy * width + ky];
          const std::size_t row = (px * cells + py) * cells;
          for (std::size_t kz = 0; kz < width; ++kz) {
            const std::size_t c = row + stencil_axis_[cz * width + kz];
            for (std::uint32_t s = cell_start_[c]; s < cell_start_[c + 1];
                 ++s) {
              const std::uint32_t j = cell_atoms_[s];
              if (j == static_cast<std::uint32_t>(i)) continue;
              const auto dr = box.min_image(wrapped_[i] - wrapped_[j]);
              if (length_squared(dr) < list_cutoff_sq_) {
                scratch_entries_[slot++] = j;
              }
            }
          }
        }
      }
      row_count_[i] = static_cast<std::uint32_t>(slot - scratch_begin_[i]);
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
