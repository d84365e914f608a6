// Command-line parsing for the emdpa CLI — kept in the driver library so
// the parsing logic is unit-testable away from main().  The flags are rows
// of the knob table (driver/knobs.h); `emdpa help` lists them.
#pragma once

#include <string>
#include <vector>

#include "driver/bisect.h"
#include "md/backend.h"

namespace emdpa::driver {

enum class CliCommand { kList, kRun, kCompare, kBatch, kBisect, kHelp };

struct CliOptions {
  CliCommand command = CliCommand::kHelp;
  std::string backend;        ///< for kRun
  md::RunConfig run_config;   ///< populated from the flags
  bool csv = false;           ///< machine-readable output
  /// Host execution threads (0 = EMDPA_THREADS / hardware default).  Only
  /// affects backends that really execute in parallel (host-parallel, the
  /// Cell SPE workers, the MTA streams).
  std::size_t threads = 0;

  // kBatch: cooperative ensemble scheduling (md/job_scheduler.h).
  std::string manifest_path;     ///< --manifest (required)
  std::string checkpoint_dir;    ///< --checkpoint-dir (required)
  int slice_steps = 100;         ///< --slice: steps per time slice
  std::size_t max_in_flight = 4; ///< --max-in-flight: resident job cap
  int max_retries = 0;           ///< --max-retries: batch-wide retry budget
  double job_deadline = 0.0;     ///< --job-deadline: per-job wall budget (s)
  std::uint64_t job_slice_budget = 0;  ///< --job-slice-budget: slice cap
  std::string journal_path;      ///< --journal (default DIR/batch.wal)

  // kBisect: the shared run_config and threads with each side's --a-* /
  // --b-* overrides applied (store_dir cleared: run_bisect derives it).
  BisectSide bisect_a;
  BisectSide bisect_b;
};

/// Parse argv (excluding argv[0]).  Throws RuntimeFailure with a
/// user-actionable message on bad input.
CliOptions parse_cli(const std::vector<std::string>& args);

/// The --help text.
std::string cli_usage();

}  // namespace emdpa::driver
