// Ablation A2: on-the-fly distances (the paper's kernel) vs a cell-list
// neighbour search — the cache-friendly technique the paper deliberately
// does NOT use ("We do not employ any optimization technique that has been
// proposed for cache-based systems").
//
// Both kernels produce identical physics (asserted by the test suite); this
// bench contrasts (a) the candidate-pair work each examines and (b) native
// wall-clock on this host, showing what the brute-force choice costs on a
// cache-based machine — context for why the paper's N^2 kernel is the
// interesting porting target in the first place.
#include "bench_util.h"

#include <chrono>
#include <functional>

#include "cellsim/cell_pairlist.h"
#include "core/string_util.h"
#include "core/thread_pool.h"
#include "cpu/opteron_pairlist.h"
#include "gpusim/gpu_pairlist.h"
#include "md/cell_list_kernel.h"
#include "md/pairlist_cost.h"
#include "md/parallel_neighbor.h"
#include "md/reference_kernel.h"
#include "md/simulation.h"
#include "md/workload.h"
#include "mtasim/mta_pairlist.h"

namespace {

double wall_seconds(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main() {
  using namespace emdpa;
  namespace eb = emdpa::bench;

  eb::print_banner("Ablation A2",
                   "Brute-force N^2 kernel vs cell-list neighbour search",
                   "One force evaluation per row; 'candidates' is the number\n"
                   "of distance tests performed.");

  Table table({"atoms", "N^2 cand", "cell-list cand", "list cand",
               "N^2 (ms)", "cell-list (ms)", "list (ms)"});
  std::vector<std::vector<std::string>> csv = {
      {"atoms", "n2_candidates", "cl_candidates", "list_candidates", "n2_ms",
       "cl_ms", "list_ms"}};

  md::LjParams lj;
  for (const std::size_t n : {512u, 1024u, 2048u, 4096u}) {
    md::WorkloadSpec spec;
    spec.n_atoms = n;
    md::Workload w = md::make_lattice_workload(spec);

    md::ReferenceKernel brute;
    md::CellListKernel cells;
    md::NeighborListKernel list;  // serial: pool = nullptr
    // Warm the neighbour list (the build is amortised over many steps in a
    // real run; time the steady-state evaluation).
    list.compute(w.system.positions(), w.box, lj, 1.0);

    md::ForceResult rb, rc, rl;
    const double t_brute = wall_seconds(
        [&] { rb = brute.compute(w.system.positions(), w.box, lj, 1.0); });
    const double t_cells = wall_seconds(
        [&] { rc = cells.compute(w.system.positions(), w.box, lj, 1.0); });
    const double t_list = wall_seconds(
        [&] { rl = list.compute(w.system.positions(), w.box, lj, 1.0); });

    table.add_row({std::to_string(n), std::to_string(rb.stats.candidates),
                   std::to_string(rc.stats.candidates),
                   std::to_string(rl.stats.candidates),
                   format_fixed(t_brute * 1e3, 2),
                   format_fixed(t_cells * 1e3, 2),
                   format_fixed(t_list * 1e3, 2)});
    csv.push_back({std::to_string(n), std::to_string(rb.stats.candidates),
                   std::to_string(rc.stats.candidates),
                   std::to_string(rl.stats.candidates),
                   format_fixed(t_brute * 1e3, 3),
                   format_fixed(t_cells * 1e3, 3),
                   format_fixed(t_list * 1e3, 3)});
  }

  eb::print_table(table);
  std::cout << "The cell list turns O(N^2) distance tests into O(N); the\n"
               "pairlist ('updated every few simulation time steps',\n"
               "section 3.4) trims the candidates further, to the cutoff+skin\n"
               "shell.  Both trade the brute-force kernel's streaming access\n"
               "for the irregular, cache-unfriendly pattern the paper\n"
               "describes — the trade the emerging architectures attack from\n"
               "the other side.\n\n";
  eb::print_csv_block("ablation_neighbor_list", csv);

  // ---- The section-3.4 trade-off, priced on each modelled device ----
  //
  // Each device family exposes an analytic pairlist variant of its force
  // loop next to the on-the-fly N^2 price (see *_pairlist.h).  All consume
  // one measured workload description, so the speedups are comparable.
  std::cout << "\n";
  eb::print_banner(
      "Ablation A2b", "Pairlist vs on-the-fly N^2 on the modelled devices",
      "Per-step force time (ms); 'x' columns are N^2 / pairlist speedup.\n"
      "Work measured from the real neighbour-list kernel (skin 0.3).");

  Table model_table({"atoms", "entries/cand", "rebuild per", "Opteron x",
                     "MTA-2 x", "Cell x", "GPU x"});
  std::vector<std::vector<std::string>> model_csv = {
      {"atoms", "list_entries_directed", "candidates_directed",
       "rebuild_period", "opteron_n2_ms", "opteron_list_ms", "mta_n2_ms",
       "mta_list_ms", "cell_n2_ms", "cell_list_ms", "gpu_n2_ms",
       "gpu_list_ms"}};

  const opteron::OpteronConfig opteron_cfg;
  const mta::MtaConfig mta_cfg;
  const cell::CellConfig cell_cfg;
  const gpu::GpuDeviceConfig gpu_cfg;
  const gpu::PcieConfig pcie_cfg;

  for (const std::size_t n : {512u, 1024u, 2048u, 4096u}) {
    md::WorkloadSpec spec;
    spec.n_atoms = n;
    const md::PairlistStepWork work =
        md::measure_pairlist_step_work(spec, lj, /*skin=*/0.3, /*dt=*/0.005,
                                       /*steps=*/20);

    const ModelTime opt_n2 = opteron::n2_step_time(opteron_cfg, work);
    const ModelTime opt_pl = opteron::pairlist_step_time(opteron_cfg, work);
    const ModelTime mta_n2 = mta::mta_n2_step_time(mta_cfg, work);
    const ModelTime mta_pl = mta::mta_pairlist_step_time(mta_cfg, work);
    const ModelTime cell_n2 = cell::cell_n2_step_time(cell_cfg, work);
    const ModelTime cell_pl = cell::cell_pairlist_step_time(cell_cfg, work);
    const ModelTime gpu_n2 = gpu::gpu_n2_step_time(gpu_cfg, pcie_cfg, work);
    const ModelTime gpu_pl =
        gpu::gpu_pairlist_step_time(gpu_cfg, pcie_cfg, work);

    model_table.add_row(
        {std::to_string(n),
         format_fixed(work.list_entries_directed / work.candidates_directed,
                      3),
         format_fixed(work.rebuild_period_steps, 1),
         format_fixed(opt_n2 / opt_pl, 2), format_fixed(mta_n2 / mta_pl, 2),
         format_fixed(cell_n2 / cell_pl, 2), format_fixed(gpu_n2 / gpu_pl, 2)});
    model_csv.push_back(
        {std::to_string(n), format_fixed(work.list_entries_directed, 0),
         format_fixed(work.candidates_directed, 0),
         format_fixed(work.rebuild_period_steps, 2),
         format_fixed(opt_n2.to_milliseconds(), 3),
         format_fixed(opt_pl.to_milliseconds(), 3),
         format_fixed(mta_n2.to_milliseconds(), 3),
         format_fixed(mta_pl.to_milliseconds(), 3),
         format_fixed(cell_n2.to_milliseconds(), 3),
         format_fixed(cell_pl.to_milliseconds(), 3),
         format_fixed(gpu_n2.to_milliseconds(), 3),
         format_fixed(gpu_pl.to_milliseconds(), 3)});
  }

  eb::print_table(model_table);
  std::cout << "The MTA-2 banks the full instruction reduction (irregular\n"
               "gather is free on the flat network); the Opteron keeps most\n"
               "of it while the gather fits in cache; the Cell forfeits its\n"
               "SIMD win to the scalar gather; the GPU's dependent fetches\n"
               "and PCIe floor leave it the least to gain — why the paper's\n"
               "streaming ports recompute distances instead (section 3.4).\n\n";
  eb::print_csv_block("ablation_neighbor_list_model", model_csv);

  // ---- A2c: the 100k-atom build/simulate path on the real host ----
  //
  // The parallel neighbour-list build at scale: per-chunk histogram binning
  // + separable stencil tables ("bin") and the single distance sweep +
  // compaction ("fill"), serial vs the machine's thread pool.  The list
  // entries are bitwise identical either way (asserted by the md test
  // label); only the wall clock may differ.
  std::cout << "\n";
  eb::print_banner("Ablation A2c",
                   "Parallel neighbour-list build + simulate at 100k atoms",
                   "Build phases in ms, 1 thread vs the host pool; 'sim' is\n"
                   "wall ms/step of a 10-step neighbour-list simulation.");

  ThreadPool serial_pool(1);
  ThreadPool& pool = ThreadPool::global();
  Table build_table({"atoms", "bin@1 (ms)", "fill@1 (ms)", "bin@T (ms)",
                     "fill@T (ms)", "build x", "sim ms/step"});
  std::vector<std::vector<std::string>> build_csv = {
      {"atoms", "threads", "bin1_ms", "fill1_ms", "binT_ms", "fillT_ms",
       "build_speedup", "sim_ms_per_step"}};

  for (const std::size_t n : {16384u, 100000u}) {
    md::WorkloadSpec spec;
    spec.n_atoms = n;
    md::Workload w = md::make_lattice_workload(spec);

    auto timed_build = [&](ThreadPool* p, double& bin_ms, double& fill_ms) {
      md::ParallelNeighborListT<double> list(0.3, p);
      // Two builds, report the second: the first pays scratch allocation.
      list.build(w.system.positions(), w.box, lj.cutoff);
      list.invalidate();
      list.build(w.system.positions(), w.box, lj.cutoff);
      bin_ms = list.last_bin_seconds() * 1e3;
      fill_ms = list.last_fill_seconds() * 1e3;
    };
    double bin1 = 0, fill1 = 0, bin_t = 0, fill_t = 0;
    timed_build(&serial_pool, bin1, fill1);
    timed_build(&pool, bin_t, fill_t);

    md::Simulation::Options options;
    options.workload.n_atoms = n;
    options.kernel = md::SimKernel::kNeighborList;
    options.pool = &pool;
    const int sim_steps = 10;
    md::Simulation sim(options);
    const double t_sim = wall_seconds([&] { sim.run(sim_steps); });
    const double sim_ms_step = t_sim * 1e3 / sim_steps;

    const double speedup = (bin1 + fill1) / (bin_t + fill_t);
    build_table.add_row({std::to_string(n), format_fixed(bin1, 2),
                         format_fixed(fill1, 2), format_fixed(bin_t, 2),
                         format_fixed(fill_t, 2), format_fixed(speedup, 2),
                         format_fixed(sim_ms_step, 2)});
    build_csv.push_back({std::to_string(n), std::to_string(pool.size()),
                         format_fixed(bin1, 3), format_fixed(fill1, 3),
                         format_fixed(bin_t, 3), format_fixed(fill_t, 3),
                         format_fixed(speedup, 3),
                         format_fixed(sim_ms_step, 3)});
  }

  eb::print_table(build_table);
  std::cout << "Binning is a stable counting sort (per-chunk histograms +\n"
               "prefix-merge), the stencil population table is three 1-D\n"
               "window passes, and the distance sweep writes disjoint exact\n"
               "scratch ranges — every phase parallelises, so the build no\n"
               "longer caps the atom count the list path can serve.\n\n";
  eb::print_csv_block("ablation_neighbor_list_build", build_csv);
  return 0;
}
