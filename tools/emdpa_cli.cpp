// emdpa command-line driver: run any modelled architecture on any workload
// from the shell.
//
//   $ emdpa list
//   $ emdpa run --backend cell-8spe --atoms 2048 --steps 10
//   $ emdpa compare --atoms 1024 --csv
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "core/error.h"
#include "core/interrupt.h"
#include "core/string_util.h"
#include "core/table.h"
#include "core/thread_pool.h"
#include "driver/backend_factory.h"
#include "driver/bisect.h"
#include "driver/cli_options.h"
#include "driver/manifest.h"
#include "driver/report.h"
#include "md/job_scheduler.h"

namespace {

using namespace emdpa;

int run_one(const driver::CliOptions& options) {
  auto backend = driver::make_backend(options.backend);
  md::RunConfig config = options.run_config;
  if (!config.watch.empty()) config.watch_stream = &std::cout;
  const md::RunResult result = backend->run(config);
  std::cout << (options.csv ? driver::render_run_csv(result, config)
                            : driver::render_run_report(result, config));
  return 0;
}

int run_bisect(const driver::CliOptions& options) {
  driver::BisectOptions bisect{options.bisect_a, options.bisect_b,
                               options.run_config.store_dir};
  for (driver::BisectSide* side : {&bisect.a, &bisect.b}) {
    if (!side->config.watch.empty()) side->config.watch_stream = &std::cout;
  }
  const driver::BisectReport report = driver::run_bisect(bisect);
  std::cout << driver::render_bisect_report(report);
  return 0;  // a located divergence is a successful bisection, not an error
}

int run_compare(const driver::CliOptions& options) {
  // Host rows execute for real (device_time is zero there): report their
  // wall clock and which kernel the simulation seam selected, so the
  // parallel path is visible next to the modelled devices.
  Table table({"backend", "precision", "model time (s)", "wall (s)", "kernel",
               "final total E"});
  std::vector<std::string> csv_lines = {
      "backend,precision,model_seconds,wall_seconds,host_kernel,final_total_e"};

  for (const auto& info : driver::available_backends()) {
    auto backend = driver::make_backend(info.key);
    std::string time_cell, wall_cell = "-", kernel_cell = "-", energy_cell;
    std::string precision_cell = backend->precision();
    try {
      const md::RunResult result = backend->run(options.run_config);
      time_cell = format_auto(result.device_time.to_seconds());
      energy_cell = format_fixed(result.energies.back().total(), 4);
      // Host rows report the precision mode the run actually used (dp, sp,
      // mixed) rather than the backend's static default.
      const auto precision = result.labels.find("precision");
      if (precision != result.labels.end()) {
        precision_cell = precision->second;
      }
      const auto wall = result.breakdown.find("host_wall");
      if (wall != result.breakdown.end()) {
        wall_cell = format_auto(wall->second.to_seconds());
      }
      const auto kernel_list = result.metadata.find("kernel_list");
      if (kernel_list != result.metadata.end()) {
        kernel_cell = kernel_list->second != 0.0 ? "list" : "n2";
        const auto threads = result.metadata.find("threads");
        if (threads != result.metadata.end()) {
          kernel_cell +=
              "@" + std::to_string(static_cast<long>(threads->second)) + "t";
        }
        const auto rebuilds = result.metadata.find("list_rebuilds");
        if (rebuilds != result.metadata.end()) {
          kernel_cell += "," +
                         std::to_string(static_cast<long>(rebuilds->second)) +
                         "rb";
        }
      }
    } catch (const std::exception& e) {
      time_cell = "error";
      energy_cell = e.what();
      if (energy_cell.size() > 40) energy_cell.resize(40);
    }
    table.add_row({info.key, precision_cell, time_cell, wall_cell,
                   kernel_cell, energy_cell});
    csv_lines.push_back(info.key + "," + precision_cell + "," + time_cell +
                        "," + wall_cell + "," + kernel_cell + "," +
                        energy_cell);
  }

  if (options.csv) {
    for (const auto& line : csv_lines) std::cout << line << "\n";
  } else {
    std::cout << table.to_string();
  }
  return 0;
}

int run_batch(const driver::CliOptions& options) {
  std::vector<md::JobSpec> jobs = driver::load_manifest(options.manifest_path);

  md::SchedulerOptions scheduler_options;
  scheduler_options.slice_steps = options.slice_steps;
  scheduler_options.max_in_flight = options.max_in_flight;
  scheduler_options.checkpoint_dir = options.checkpoint_dir;
  scheduler_options.retry.max_retries = options.max_retries;
  scheduler_options.retry.deadline_wall_seconds = options.job_deadline;
  scheduler_options.retry.slice_budget = options.job_slice_budget;
  scheduler_options.journal_path = options.journal_path;
  scheduler_options.pool = &ThreadPool::global();
  // SIGINT/SIGTERM latch (armed in main); polled between time slices, so a
  // signal drains the batch at the next slice boundary — every resident
  // job's suspend checkpoint is already on disk by then.
  scheduler_options.stop_requested = [] { return interrupt_requested(); };

  md::JobScheduler scheduler(std::move(jobs), scheduler_options);
  const md::BatchResult batch = scheduler.run();

  std::cout << (options.csv ? driver::render_batch_csv(batch)
                            : driver::render_batch_report(batch));

  if (batch.interrupted) {
    std::fprintf(stderr,
                 "emdpa: batch interrupted by %s; rerun the same command to "
                 "resume from the per-job checkpoints in %s\n",
                 interrupt_signal_name(interrupt_signal()),
                 options.checkpoint_dir.c_str());
    return 4;
  }
  // Quarantine means "this job could not be saved by its retry budget" —
  // operationally the same verdict as an isolated failure.
  return batch.count(md::JobStatus::kFailed) +
                 batch.count(md::JobStatus::kQuarantined) >
                 0
             ? 3
             : 0;
}

/// "emdpa: <what> [step 412, kernel neighbor-list, backend host-parallel]" —
/// the structured context layers attached while the failure unwound, when
/// there is any.
void print_failure(const char* prefix, const std::exception& e) {
  const ErrorContext* ctx = error_context(e);
  if (ctx != nullptr) {
    std::fprintf(stderr, "emdpa: %s%s [%s]\n", prefix, e.what(),
                 ctx->to_string().c_str());
  } else {
    std::fprintf(stderr, "emdpa: %s%s\n", prefix, e.what());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  std::string checkpoint_path;  // for the abort-path hint
  // Trap SIGINT/SIGTERM into the cooperative latch before any run starts:
  // runs and batches drain at the next step/slice boundary with their state
  // checkpointed, instead of dying mid-write (exit code 4, resumable).
  arm_interrupt_handlers();
  try {
    const driver::CliOptions options = driver::parse_cli(args);
    checkpoint_path = options.run_config.checkpoint_path;
    if (options.threads > 0 &&
        !ThreadPool::configure_global(options.threads)) {
      // Fail loudly if anything constructed the global pool before we got
      // here (e.g. a future static initializer) instead of silently running
      // with the wrong thread count.
      std::fprintf(stderr,
                   "emdpa: --threads ignored: the global thread pool was "
                   "already created\n");
      return 1;
    }
    switch (options.command) {
      case driver::CliCommand::kHelp:
        std::cout << driver::cli_usage();
        return 0;
      case driver::CliCommand::kList:
        for (const auto& info : driver::available_backends()) {
          std::printf("%-18s %s\n", info.key.c_str(), info.description.c_str());
        }
        return 0;
      case driver::CliCommand::kRun:
        return run_one(options);
      case driver::CliCommand::kCompare:
        return run_compare(options);
      case driver::CliCommand::kBatch:
        return run_batch(options);
      case driver::CliCommand::kBisect:
        return run_bisect(options);
    }
  } catch (const Interrupted& e) {
    // The backend checkpointed before unwinding (when a --checkpoint path
    // was configured); exit code 4 tells orchestrators "stopped on request,
    // resumable" — distinct from a crash (1) or bad physics (3).
    print_failure("", e);
    if (!checkpoint_path.empty()) {
      std::fprintf(stderr,
                   "emdpa: resume with --resume %s\n", checkpoint_path.c_str());
    }
    return 4;
  } catch (const NumericalFailure& e) {
    // The backend already attempted an emergency checkpoint (when a
    // --checkpoint path was configured and the state was still finite);
    // exit code 3 distinguishes "the physics went bad" from usage errors.
    print_failure("numerical failure: ", e);
    if (!checkpoint_path.empty()) {
      std::fprintf(stderr,
                   "emdpa: resume from the last good checkpoint with "
                   "--resume %s\n",
                   checkpoint_path.c_str());
    }
    return 3;
  } catch (const std::exception& e) {
    print_failure("", e);
    return 1;
  }
  return 0;
}
