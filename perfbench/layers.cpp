// Per-layer probes: each times one layer's public call from outside, on the
// workload's own state, and reports a median over repetitions.
#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "core/aligned_buffer.h"
#include "md/batch_journal.h"
#include "md/checkpoint_manager.h"
#include "md/parallel_neighbor.h"
#include "md/simd_kernels.h"
#include "md/workload.h"
#include "perfbench.h"

namespace fs = std::filesystem;

namespace perfbench {

using emdpa::ThreadPool;
using emdpa::md::LjParams;
using emdpa::md::NeighborListKernel;
using emdpa::md::ParallelNeighborListT;
using emdpa::md::PeriodicBox;
using emdpa::md::Simulation;

namespace {

/// The simulation's list skin and row grain (Simulation::Options::skin,
/// NeighborListKernelT::Options::grain), so probes time the loop's calls.
constexpr double kSkin = 0.3;
constexpr std::size_t kRowGrain = 16;

/// Call `body` until `budget_s` has passed (at least `min_reps`, at most
/// `max_reps` times) and return each call's wall time in ms.
template <typename Body>
std::vector<double> repeat_ms(double budget_s, int min_reps, int max_reps,
                              Body&& body) {
  std::vector<double> out;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(out.size()) < min_reps ||
         (static_cast<int>(out.size()) < max_reps &&
          seconds_since(start) < budget_s)) {
    const Clock::time_point t0 = Clock::now();
    body();
    out.push_back(ms_since(t0));
  }
  return out;
}

/// Single-thread pairs/s of the dispatched dp list-row kernel on a block
/// small enough to stay in L1: the first 32 rows of a 256-atom liquid's
/// list (~11 KB of CSR entries, 6 KB of coordinates), swept repeatedly.
double l1_peak_pairs_per_s() {
  emdpa::md::WorkloadSpec spec;
  spec.n_atoms = 256;
  const emdpa::md::Workload liquid = emdpa::md::make_lattice_workload(spec);
  const LjParams lj{};
  ParallelNeighborListT<double> list(kSkin);
  list.build(liquid.system.positions(), liquid.box, lj.cutoff);

  const std::size_t n = liquid.system.size();
  emdpa::AlignedBuffer<double, 64> xs(n), ys(n), zs(n);
  for (std::size_t i = 0; i < n; ++i) {
    const emdpa::Vec3d p = liquid.box.wrap(liquid.system.positions()[i]);
    xs.data()[i] = p.x;
    ys.data()[i] = p.y;
    zs.data()[i] = p.z;
  }
  constexpr std::size_t kRows = 32;
  const auto& row_begin = list.row_begin();
  const auto& entries = list.entries();
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < kRows; ++i) {
    for (std::uint32_t k = row_begin[i]; k < row_begin[i + 1]; ++k) {
      if (entries[k] != i) ++pairs;  // padding slots hold the row's own atom
    }
  }
  const auto rows_fn = emdpa::md::simd_kernels::list_rows<double, double>(
      emdpa::md::simd_kernels::rows(emdpa::md::simd_kernels::resolve_isa()));
  std::vector<emdpa::Vec3d> acc(n);
  std::vector<double> pe(n), virial(n);
  std::vector<std::uint64_t> hits(n);
  constexpr int kSweeps = 200;
  const std::vector<double> ms = repeat_ms(0.3, 5, 200, [&] {
    for (int s = 0; s < kSweeps; ++s) {
      rows_fn(xs.data(), ys.data(), zs.data(), row_begin.data(),
              entries.data(), liquid.box.edge(), lj.cutoff_squared(), lj, 1.0,
              0, kRows, acc.data(), pe.data(), virial.data(), hits.data());
    }
  });
  // The fastest repetition is the peak: nothing but the kernel competes.
  return static_cast<double>(pairs) * kSweeps /
         (1e-3 * *std::min_element(ms.begin(), ms.end()));
}

}  // namespace

void probe_compute_layers(const emdpa::md::ParticleSystem& system,
                          double box_edge, ThreadPool& pool, Result& result) {
  const auto& positions = system.positions();
  const std::size_t n = positions.size();
  const PeriodicBox box(box_edge);
  const LjParams lj{};
  const bool large = n > 10000;
  auto& layers = result.layers;

  // Fork/join: an empty parallel_for over the atoms at the row grain.
  const std::vector<double> fork_join = repeat_ms(0.2, 50, 5000, [&] {
    pool.parallel_for(0, n, kRowGrain, [](std::size_t, std::size_t) {});
  });
  layers["pool.fork_join_us"] = 1e3 * median(fork_join);

  // List build on the pool, then serially for the parallel efficiency.
  // Each probe object lives in its own scope, so at 100k atoms only one
  // list's scratch is resident at a time.
  double build = 0;
  {
    ParallelNeighborListT<double> list(kSkin, &pool);
    std::vector<double> bin_ms, fill_ms;
    const std::vector<double> build_ms =
        repeat_ms(0.5, large ? 3 : 10, 200, [&] {
          list.build(positions, box, lj.cutoff);
          bin_ms.push_back(1e3 * list.last_bin_seconds());
          fill_ms.push_back(1e3 * list.last_fill_seconds());
        });
    build = median(build_ms);
    const double tests = static_cast<double>(list.build_distance_tests());
    layers["neighbor.build_ms"] = build;
    layers["neighbor.bin_ms"] = median(bin_ms);
    layers["neighbor.fill_ms"] = median(fill_ms);
    layers["neighbor.distance_tests"] = tests;
    layers["neighbor.tests_per_s"] = tests / (1e-3 * build);
    layers["neighbor.hit_ratio"] =
        static_cast<double>(list.directed_entries()) / tests;
  }
  {
    ParallelNeighborListT<double> serial_list(kSkin);
    const std::vector<double> serial_build_ms =
        repeat_ms(0.3, large ? 2 : 5, 100,
                  [&] { serial_list.build(positions, box, lj.cutoff); });
    layers["neighbor.parallel_eff"] =
        median(serial_build_ms) / (static_cast<double>(pool.size()) * build);
  }

  // Force sweep on a valid list: the first compute builds it, the timed
  // ones reuse it (the displacement check finds nothing moved).
  NeighborListKernel::Options kernel_options;
  kernel_options.skin = kSkin;
  kernel_options.pool = &pool;
  NeighborListKernel kernel(kernel_options);
  const auto first = kernel.compute(positions, box, lj, system.mass());
  const double sweep = median(repeat_ms(0.5, 10, 500, [&] {
    kernel.compute(positions, box, lj, system.mass());
  }));
  double serial_sweep = 0;
  {
    kernel_options.pool = nullptr;
    NeighborListKernel serial_kernel(kernel_options);
    serial_kernel.compute(positions, box, lj, system.mass());
    serial_sweep = median(repeat_ms(0.3, 3, 200, [&] {
      serial_kernel.compute(positions, box, lj, system.mass());
    }));
  }
  // Directed pair evaluations: every row walks all its list neighbours.
  const double pairs = 2.0 * static_cast<double>(first.stats.candidates);
  const double pairs_per_s = pairs / (1e-3 * sweep);
  const double peak = l1_peak_pairs_per_s();
  layers["force.sweep_ms"] = sweep;
  layers["force.pairs_per_s"] = pairs_per_s;
  layers["force.interact_ratio"] =
      static_cast<double>(first.stats.interacting) /
      static_cast<double>(first.stats.candidates);
  layers["force.parallel_eff"] =
      serial_sweep / (static_cast<double>(pool.size()) * sweep);
  layers["force.peak_pairs_per_s"] = peak;
  layers["force.peak_frac"] =
      pairs_per_s / (static_cast<double>(pool.size()) * peak);
  // Bytes one sweep touches, computed from the array sizes with every
  // neighbour gather counted as a miss (no bandwidth is measured): per
  // padded entry a 4-byte index and a 24-byte coordinate gather; per atom
  // the AoS read and SoA write of the pack pass, its own coordinates, two
  // row offsets, the acceleration and the pe/virial/hit partials.
  const double padded = static_cast<double>(kernel.list().entries().size());
  const double bytes =
      padded * (4 + 24) + static_cast<double>(n) * (24 + 24 + 24 + 8 + 24 + 24);
  layers["force.bytes_per_pair"] = bytes / pairs;
}

void probe_checkpoint_layers(Simulation& sim,
                             const Simulation::Options& options,
                             const std::string& workdir, Result& result) {
  std::string encoded;
  const std::vector<double> encode_ms = repeat_ms(0.3, 5, 50, [&] {
    std::ostringstream out;
    sim.save(out);
    encoded = out.str();
  });
  const std::vector<double> decode_ms = repeat_ms(0.3, 5, 50, [&] {
    std::istringstream in(encoded);
    Simulation restored = Simulation::resume(in, options);
  });
  emdpa::md::CheckpointManager manager(
      (fs::path(workdir) / "probe.ckpt").string());
  const std::vector<double> commit_ms = repeat_ms(0.3, 5, 50, [&] {
    manager.save([&](std::ostream& out) { sim.save(out); });
  });
  const std::vector<double> load_ms =
      repeat_ms(0.3, 5, 50, [&] { (void)manager.load(); });
  result.layers["ckpt.bytes"] = static_cast<double>(encoded.size());
  result.layers["ckpt.encode_ms"] = median(encode_ms);
  result.layers["ckpt.decode_ms"] = median(decode_ms);
  result.layers["ckpt.commit_ms"] = median(commit_ms);
  result.layers["ckpt.load_ms"] = median(load_ms);
}

void probe_journal_layer(const std::string& workdir, Result& result) {
  emdpa::md::BatchJournal journal((fs::path(workdir) / "probe.wal").string());
  journal.open_for_append();
  emdpa::md::JournalRecord record;
  record.event = emdpa::md::JournalEvent::kSlice;
  record.job = "job0";
  const std::vector<double> append_ms = repeat_ms(0.3, 50, 2000, [&] {
    record.steps += 10;
    journal.record(record);
  });
  result.layers["journal.append_us"] = 1e3 * median(append_ms);
}

}  // namespace perfbench
