#include "md/parallel_neighbor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <numbers>
#include <string>

#include "core/error.h"
#include "core/fault_injection.h"

namespace emdpa::md {

const char* to_string(SkinPolicy policy) {
  switch (policy) {
    case SkinPolicy::kHalfSkinDisplacement: return "half-skin-displacement";
    case SkinPolicy::kNeverRebuild: return "never-rebuild";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Build passes.  Everything here is part of the determinism contract: the
// padding unit, the stable counting sort and the sweep's candidate order fix
// the bytes of the CSR, which must not depend on the thread count.
// ---------------------------------------------------------------------------

namespace {

/// How every pass splits [0, n): over `pool` in chunks of `grain`, or on the
/// caller when there is no pool.
void run_span(ThreadPool* pool, std::size_t n, std::size_t grain,
              const std::function<void(std::size_t, std::size_t)>& body) {
  if (pool != nullptr) {
    pool->parallel_for(0, n, grain, body);
  } else {
    body(0, n);
  }
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Round `count` up to a whole number of 64-byte accumulation blocks — the
/// ISA-independent padding unit (see parallel_neighbor.h).
template <typename Real>
constexpr std::uint32_t padded_count(std::uint32_t count) {
  constexpr auto w = static_cast<std::uint32_t>(simd::block_lanes<Real>());
  return (count + w - 1) / w * w;
}

/// The minimum-image shift of one axis difference `d` as an exact select
/// (box.h round_half_threshold): subtracting it accepts and rejects exactly
/// as min_image would, with no division.
template <typename Real>
Real image_shift(Real d, Real half, Real edge) {
  return std::fabs(d) >= half ? std::copysign(edge, d) : Real(0);
}

/// A fill chunk reserves this multiple of its atoms' expected hits, which
/// at liquid density also covers the last row's candidates.
constexpr double kHitReserveMargin = 1.1;

/// The cell grid holds at most max(kCellsPerAtom * n, kMinCellCap) cells:
/// without a cap a dilute box sizes the grid, its tables and the bin phase
/// by the box volume.  The floor keeps a few-atom system on a real stencil;
/// its tables stay tiny.
constexpr std::size_t kCellsPerAtom = 8;
constexpr std::size_t kMinCellCap = 4096;  // 16^3

/// Largest per-axis cell count whose cube stays within the cap for n atoms.
std::size_t max_cells_per_axis(std::size_t n) {
  const std::size_t cap = std::max(kMinCellCap, kCellsPerAtom * n);
  auto c = static_cast<std::size_t>(std::cbrt(static_cast<double>(cap)));
  while (c * c * c > cap) --c;
  while ((c + 1) * (c + 1) * (c + 1) <= cap) ++c;
  return c;
}

/// Histogram chunks of the parallel counting sort.  Within a chunk atoms are
/// counted and scattered in index order and chunk cursors are ordered by
/// chunk id, so every chunking yields the same unique stable sort; the
/// decomposition is a function of (N, cells) only, never the thread count.
/// A chunk holds at least kBinChunkAtoms atoms, and the per-chunk histograms
/// (chunks * cells entries) stay within kBinHistPerAtom entries per atom, so
/// a fine grid does not multiply its size by the chunk count.
constexpr std::size_t kBinChunkAtoms = 2048;
constexpr std::size_t kBinHistPerAtom = 8;

std::size_t bin_chunk_size(std::size_t n, std::size_t n_cells) {
  const std::size_t by_atoms = (n + kBinChunkAtoms - 1) / kBinChunkAtoms;
  const std::size_t by_hist =
      std::max<std::size_t>(1, kBinHistPerAtom * n / n_cells);
  const std::size_t chunks = std::min(by_atoms, by_hist);
  return (n + chunks - 1) / chunks;
}

/// Clamp one wrapped coordinate to its axis cell.  The clamp guards the
/// exact-edge case (coord * inv_cell landing on `cells` after rounding).
std::size_t axis_cell(double coord, double inv_cell, std::size_t cells) {
  auto c = static_cast<long long>(coord * inv_cell);
  if (c < 0) c = 0;
  if (c >= static_cast<long long>(cells)) {
    c = static_cast<long long>(cells) - 1;
  }
  return static_cast<std::size_t>(c);
}

/// Cell id of a wrapped position.
template <typename Real>
std::size_t cell_index(const emdpa::Vec3<Real>& p, double inv_cell,
                       std::size_t cells) {
  return (axis_cell(static_cast<double>(p.x), inv_cell, cells) * cells +
          axis_cell(static_cast<double>(p.y), inv_cell, cells)) *
             cells +
         axis_cell(static_cast<double>(p.z), inv_cell, cells);
}

/// Pool-parallel stable counting sort of the atoms into cells, in three
/// passes over fixed atom chunks:
///  1. wrap each position and count it into its chunk's cell histogram (each
///     chunk owns a disjoint row of bin_hist, so chunks are independent);
///  2. prefix-merge the per-chunk histograms into write cursors;
///  3. scatter.  Within a chunk atoms are visited in index order and chunk
///     cursors are ordered by chunk id, so cell_atoms is the stable counting
///     sort by cell — the unique order a serial sort would produce,
///     independent of thread count and chunk execution order.  The scatter
///     wraps and bins each atom again (same bits as pass 1, so no per-atom
///     cell array is kept) and also writes its wrapped coordinates into
///     sorted_x/y/z at its sorted slot, so every cell is a contiguous span of
///     coordinates.
template <typename Real>
void sort_into_cells(ThreadPool* pool,
                     const std::vector<emdpa::Vec3<Real>>& positions,
                     const PeriodicBoxT<Real>& box, std::size_t cells,
                     double inv_cell, std::vector<std::uint32_t>& bin_hist,
                     std::vector<std::uint32_t>& cell_start,
                     std::vector<std::uint32_t>& cell_atoms,
                     std::vector<Real>& sorted_x, std::vector<Real>& sorted_y,
                     std::vector<Real>& sorted_z) {
  const std::size_t n = positions.size();
  const std::size_t n_cells = cells * cells * cells;
  const std::size_t chunk = bin_chunk_size(n, n_cells);
  const std::size_t n_chunks = (n + chunk - 1) / chunk;

  bin_hist.assign(n_chunks * n_cells, 0);
  run_span(pool, n_chunks, 1, [&](std::size_t k_begin, std::size_t k_end) {
    for (std::size_t k = k_begin; k < k_end; ++k) {
      std::uint32_t* hist = bin_hist.data() + k * n_cells;
      const std::size_t i_end = std::min(n, (k + 1) * chunk);
      for (std::size_t i = k * chunk; i < i_end; ++i) {
        ++hist[cell_index(box.wrap(positions[i]), inv_cell, cells)];
      }
    }
  });

  cell_start.assign(n_cells + 1, 0);
  run_span(pool, n_cells, 4096, [&](std::size_t c_begin, std::size_t c_end) {
    for (std::size_t c = c_begin; c < c_end; ++c) {
      std::uint32_t total = 0;
      for (std::size_t k = 0; k < n_chunks; ++k) {
        total += bin_hist[k * n_cells + c];
      }
      cell_start[c + 1] = total;
    }
  });
  for (std::size_t c = 0; c < n_cells; ++c) {
    cell_start[c + 1] += cell_start[c];
  }
  run_span(pool, n_cells, 4096, [&](std::size_t c_begin, std::size_t c_end) {
    for (std::size_t c = c_begin; c < c_end; ++c) {
      std::uint32_t cursor = cell_start[c];
      for (std::size_t k = 0; k < n_chunks; ++k) {
        std::uint32_t& h = bin_hist[k * n_cells + c];
        const std::uint32_t count = h;
        h = cursor;
        cursor += count;
      }
    }
  });

  cell_atoms.resize(n);
  sorted_x.resize(n);
  sorted_y.resize(n);
  sorted_z.resize(n);
  run_span(pool, n_chunks, 1, [&](std::size_t k_begin, std::size_t k_end) {
    for (std::size_t k = k_begin; k < k_end; ++k) {
      std::uint32_t* cursor = bin_hist.data() + k * n_cells;
      const std::size_t i_end = std::min(n, (k + 1) * chunk);
      for (std::size_t i = k * chunk; i < i_end; ++i) {
        const emdpa::Vec3<Real> p = box.wrap(positions[i]);
        const std::uint32_t slot = cursor[cell_index(p, inv_cell, cells)]++;
        cell_atoms[slot] = static_cast<std::uint32_t>(i);
        sorted_x[slot] = p.x;
        sorted_y[slot] = p.y;
        sorted_z[slot] = p.z;
      }
    }
  });
}

/// Per-axis wrapped stencil indices: row a lists the `width` cell indices
/// covering [a-range, a+range] on one axis.  Precomputing them keeps the
/// modulo arithmetic out of the sweep's inner loops.
void fill_stencil_axis(std::size_t cells, std::size_t range,
                       std::vector<std::uint32_t>& stencil_axis) {
  const std::size_t width = 2 * range + 1;
  stencil_axis.resize(cells * width);
  for (std::size_t a = 0; a < cells; ++a) {
    for (std::size_t k = 0; k < width; ++k) {
      stencil_axis[a * width + k] =
          static_cast<std::uint32_t>((a + k + cells - range) % cells);
    }
  }
}

/// Stencil population per cell, computed separably: one 1-D wrap-around
/// sliding-window pass per axis (add the entering cell, drop the leaving
/// one) — O(cells) per line instead of O(cells * width).  Valid because
/// width <= cells (a box below the stencil width is built on one cell), so
/// the window never visits a cell twice.  Three passes flip between the two
/// buffers and land in stencil_pop:
///   populations (tmp) --z--> pop --y--> tmp --x--> pop.
void populate_stencil(ThreadPool* pool, std::size_t cells, std::size_t range,
                      const std::vector<std::uint32_t>& cell_start,
                      std::vector<std::uint32_t>& stencil_pop,
                      std::vector<std::uint32_t>& stencil_tmp) {
  const std::size_t n_cells = cells * cells * cells;
  const std::size_t n_lines = cells * cells;
  const std::size_t width = 2 * range + 1;
  stencil_pop.resize(n_cells);
  stencil_tmp.resize(n_cells);

  // A line costs `cells` adds, so chunks of about 4096 cells like the other
  // per-cell passes: a small grid's pass stays on the caller instead of
  // paying a fork/join for microseconds of work.
  const std::size_t line_grain = std::max<std::size_t>(16, 4096 / cells);
  auto window_pass = [&](const std::uint32_t* in, std::uint32_t* out,
                         std::size_t stride,
                         const std::function<std::size_t(std::size_t)>& base) {
    run_span(pool, n_lines, line_grain,
             [&](std::size_t l_begin, std::size_t l_end) {
      for (std::size_t l = l_begin; l < l_end; ++l) {
        const std::size_t b = base(l);
        std::uint32_t window = 0;
        for (std::size_t k = 0; k < width; ++k) {
          window += in[b + ((k + cells - range) % cells) * stride];
        }
        out[b] = window;
        for (std::size_t a = 1; a < cells; ++a) {
          window += in[b + ((a + range) % cells) * stride];
          window -= in[b + ((a + cells - range - 1) % cells) * stride];
          out[b + a * stride] = window;
        }
      }
    });
  };

  run_span(pool, n_cells, 4096, [&](std::size_t c_begin, std::size_t c_end) {
    for (std::size_t c = c_begin; c < c_end; ++c) {
      stencil_tmp[c] = cell_start[c + 1] - cell_start[c];
    }
  });
  window_pass(stencil_tmp.data(), stencil_pop.data(), 1,
              [&](std::size_t l) { return l * cells; });  // lines over (x, y)
  window_pass(stencil_pop.data(), stencil_tmp.data(), cells,
              [&](std::size_t l) {  // lines over (x, z)
                return (l / cells) * n_lines + (l % cells);
              });
  window_pass(stencil_tmp.data(), stencil_pop.data(), n_lines,
              [&](std::size_t l) { return l; });  // lines over (y, z)
}

}  // namespace

// ---------------------------------------------------------------------------
// ParallelNeighborListT
// ---------------------------------------------------------------------------

template <typename Real>
ParallelNeighborListT<Real>::ParallelNeighborListT(Real skin, ThreadPool* pool,
                                                   SkinPolicy policy)
    : skin_(skin), pool_(pool), policy_(policy) {
  EMDPA_REQUIRE(skin >= Real(0), "skin must be non-negative");
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
  run_span(pool_, positions.size(), kScanGrain, [&](std::size_t i_begin,
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
  // distance tests per build.  A dilute box is capped at kCellsPerAtom cells
  // per atom instead, with larger cells.  `range` is however many cells it
  // takes to cover the list radius at the realised cell edge.
  const double edge = static_cast<double>(box.edge());
  const double cells_by_edge =
      std::floor(edge / (static_cast<double>(list_cutoff) * 0.5));
  auto cells = static_cast<std::size_t>(std::clamp(
      cells_by_edge, 1.0, static_cast<double>(max_cells_per_axis(n))));
  const double cell_edge = edge / static_cast<double>(cells);
  auto range = static_cast<std::size_t>(
      std::ceil(static_cast<double>(list_cutoff) / cell_edge));
  if (2 * range + 1 > cells) {
    // Box below the stencil width (wrap-around would visit a cell twice and
    // duplicate entries): build on ONE cell instead, so every atom tests
    // every other atom, in index order, through the same sweep.
    cells = 1;
    range = 0;
  }
  const std::size_t width = 2 * range + 1;

  // Pool-parallel stable counting sort into cells (wrap + per-chunk
  // histograms, prefix-merge, scatter into cell-sorted x/y/z).  Atoms stay
  // in index order within each cell, which makes the sweep order (and so
  // the list) independent of thread count.
  const double inv_cell = static_cast<double>(cells) / edge;
  const std::size_t n_cells = cells * cells * cells;
  sort_into_cells(pool_, positions, box, cells, inv_cell, bin_hist_,
                  cell_start_, cell_atoms_, sorted_x_, sorted_y_, sorted_z_);

  // Per-axis wrapped stencil indices.
  fill_stencil_axis(cells, range, stencil_axis_);

  // Stencil population per cell.  Every atom in a cell sweeps exactly the
  // atoms of that cell's stencil (minus itself), so this is the EXACT
  // per-row distance-test count — the one row's slack the sweep below
  // reserves before writing a row, with no counting pass.  Computed
  // separably: one 1-D wrap-around window pass per axis.
  populate_stencil(pool_, cells, range, cell_start_, stencil_pop_,
                   stencil_tmp_);
  std::uint64_t candidates = 0;
  for (std::size_t c = 0; c < n_cells; ++c) {
    candidates += std::uint64_t{cell_start_[c + 1] - cell_start_[c]} *
                  stencil_pop_[c];
  }
  build_distance_tests_ = candidates - n;  // every candidate but self

  last_bin_seconds_ = seconds_since(t_start);
  bin_seconds_total_ += last_bin_seconds_;
  const auto t_fill = std::chrono::steady_clock::now();

  // The single distance sweep, walked cell by cell so a cell's rows share
  // one stencil.  It goes out in fixed chunks of kCellGrain cells (a
  // function of the grid only), and each chunk appends its rows, in slot
  // order, to its own hit buffer.  The chunk first reserves its atoms'
  // expected hits: density x list-sphere volume each (at most n - 1), what
  // an atom of a uniform system holds, so a fresh build allocates a buffer
  // about once and a reused one not at all.  Before a row the buffer grows
  // by the row's candidate count, after it shrinks back to the hits kept,
  // so it ends the size of the chunk's hits; capacity the sweep never
  // writes is never touched.
  // For each stencil column (px, py) the `width` z-cells are consecutive
  // mod `cells`, so they are one contiguous slot range of the cell-sorted
  // coordinates, or two when the run wraps — visited in the same kz order
  // as the stencil table.  Each row's candidates therefore come in one
  // fixed order (stencil cells in table order, atoms within a cell in index
  // order) and the list is a pure function of the inputs.  The per-axis
  // test is min_image as an exact select (image_shift): no division, and
  // the same accept/reject as min_image followed by the same length_squared
  // expression.  Hits are written branch-free: every candidate is stored,
  // and the cursor moves only past the keepers.
  const Real box_edge = box.edge();
  const Real half = box.round_half_threshold();
  const Real cutoff_sq = list_cutoff_sq_;
  const Real* xs = sorted_x_.data();
  const Real* ys = sorted_y_.data();
  const Real* zs = sorted_z_.data();
  const std::uint32_t* start = cell_start_.data();
  const std::uint32_t* atoms = cell_atoms_.data();
  const std::uint32_t* axis = stencil_axis_.data();
  const std::uint32_t* pop = stencil_pop_.data();
  row_count_.resize(n);
  row_handle_.resize(n);
  const std::size_t n_fill_chunks = (n_cells + kCellGrain - 1) / kCellGrain;
  fill_hits_.resize(n_fill_chunks);
  const double r = static_cast<double>(list_cutoff);
  const double sphere = 4.0 / 3.0 * std::numbers::pi * r * r * r;
  const double density = static_cast<double>(n) / (edge * edge * edge);
  const double hits_per_atom =
      std::min(static_cast<double>(n - 1), density * sphere);
  EMDPA_ENSURE(width <= kMaxStencilWidth, "list stencil wider than 7 cells");
  run_span(pool_, n_fill_chunks, 1, [&](std::size_t k_begin,
                                        std::size_t k_end) {
    // [begin, end) slot ranges of one cell's stencil: up to two z-runs per
    // (px, py) column.
    std::uint32_t spans[4 * kMaxStencilWidth * kMaxStencilWidth];
    for (std::size_t chunk = k_begin; chunk < k_end; ++chunk) {
      HitBuffer& hits = fill_hits_[chunk];
      const std::size_t c_begin = chunk * kCellGrain;
      const std::size_t c_end = std::min(n_cells, c_begin + kCellGrain);
      hits.clear();
      hits.reserve(static_cast<std::size_t>(
          kHitReserveMargin * hits_per_atom * (start[c_end] - start[c_begin])));
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
          const std::size_t used = hits.size();
          hits.resize(used + pop[c]);
          std::uint32_t* out = hits.data() + used;
          std::uint32_t kept = 0;
          for (std::size_t k = 0; k < n_spans; k += 2) {
            for (std::uint32_t s = spans[k]; s < spans[k + 1]; ++s) {
              Real dx = xi - xs[s];
              Real dy = yi - ys[s];
              Real dz = zi - zs[s];
              dx -= image_shift(dx, half, box_edge);
              dy -= image_shift(dy, half, box_edge);
              dz -= image_shift(dz, half, box_edge);
              const Real r2 = dx * dx + dy * dy + dz * dz;
              out[kept] = atoms[s];
              kept += static_cast<std::uint32_t>(r2 < cutoff_sq) &
                      static_cast<std::uint32_t>(s != self);
            }
          }
          hits.resize(used + kept);
          row_count_[i] = kept;
          row_handle_[i] = (std::uint64_t{chunk} << 32) | used;
        }
      }
    }
  });

  // Serial prefix sum over SIMD-padded row extents.
  row_begin_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    row_begin_[i + 1] = row_begin_[i] + padded_count<Real>(row_count_[i]);
    directed_entries_ += row_count_[i];
  }

  // Compaction: copy each row's hits into its padded slot range.  Pure
  // data movement, no distance math.
  entries_.resize(row_begin_[n]);
  run_span(pool_, n, kRowGrain, [&](std::size_t i_begin,
                                    std::size_t i_end) {
    for (std::size_t i = i_begin; i < i_end; ++i) {
      const std::uint64_t handle = row_handle_[i];
      const std::uint32_t* src =
          fill_hits_[handle >> 32].data() + (handle & 0xffffffffu);
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
