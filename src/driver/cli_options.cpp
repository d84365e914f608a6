#include "driver/cli_options.h"

#include "core/error.h"
#include "driver/backend_factory.h"
#include "driver/knobs.h"

namespace emdpa::driver {

std::string cli_usage() {
  std::string usage =
      "emdpa — MD on modelled emerging architectures (IPPS 2007 reproduction)\n"
      "\n"
      "Usage:\n"
      "  emdpa list                         list available backends\n"
      "  emdpa run --backend <key> [opts]   run one backend\n"
      "  emdpa compare [opts]               run every backend on one workload\n"
      "  emdpa batch --manifest FILE --checkpoint-dir DIR [opts]\n"
      "                                     run a job manifest cooperatively\n"
      "  emdpa bisect --store-dir DIR [opts] [--a-* --b-* overrides]\n"
      "                                     localise the first diverging step\n"
      "                                     between two run configurations\n"
      "\n"
      "Options (with defaults):\n" +
      knob_usage(KnobGroup::kRun) +
      "\n"
      "Resilience (host-parallel backend):\n" +
      knob_usage(KnobGroup::kResilience) +
      "  (fault injection is armed via the EMDPA_FAULTS environment variable;\n"
      "   see src/core/fault_injection.h for the site list and spec grammar)\n"
      "  SIGINT/SIGTERM drain cooperatively: the current step (or batch time\n"
      "  slice) finishes, an emergency checkpoint is written, exit code 4.\n"
      "\n"
      "Time travel & bisection (host-parallel backend; `run` and `bisect`):\n" +
      knob_usage(KnobGroup::kStore) +
      "  bisect runs the shared workload twice — side a and side b — then\n"
      "  binary-searches the stored snapshots and replays one window to report\n"
      "  the first step, atom and component where the two trajectories'\n"
      "  positions/velocities differ (abs and ulp deltas), in at most\n"
      "  ceil(log2(steps/stride)) + 1 replays per side.  Each side inherits\n"
      "  the shared flags unless overridden:\n" +
      side_knob_usage() +
      "  exit code 0 whether or not a divergence exists; the report line\n"
      "  'bisect: first divergence at step N' / 'bisect: no divergence' is\n"
      "  grep-stable\n"
      "\n"
      "Batch mode (supervised ensemble over one shared thread pool):\n" +
      knob_usage(KnobGroup::kBatch) + manifest_key_usage() +
      "  exit codes: 0 all jobs completed; 3 at least one job failed or was\n"
      "  quarantined (isolated, the rest ran to completion); 4 interrupted by\n"
      "  SIGINT/SIGTERM after a drain — rerun the same command to resume\n"
      "\n"
      "Backends:\n";
  for (const auto& info : available_backends()) {
    usage += "  " + info.key;
    usage.append(info.key.size() < 18 ? 18 - info.key.size() : 1, ' ');
    usage += info.description + "\n";
  }
  return usage;
}

CliOptions parse_cli(const std::vector<std::string>& args) {
  CliOptions options;
  if (args.empty()) return options;  // kHelp

  std::size_t i = 0;
  const std::string& command = args[i++];
  if (command == "list") {
    options.command = CliCommand::kList;
  } else if (command == "run") {
    options.command = CliCommand::kRun;
  } else if (command == "compare") {
    options.command = CliCommand::kCompare;
  } else if (command == "batch") {
    options.command = CliCommand::kBatch;
  } else if (command == "bisect") {
    options.command = CliCommand::kBisect;
  } else if (command == "help" || command == "--help" || command == "-h") {
    options.command = CliCommand::kHelp;
    return options;
  } else {
    throw RuntimeFailure("unknown command '" + command + "' (try 'help')");
  }

  const bool side_overrides = parse_flags(args, i, options);
  if (options.command == CliCommand::kRun && options.backend.empty()) {
    throw RuntimeFailure("'run' needs --backend <key>; see 'emdpa list'");
  }
  if (options.run_config.checkpoint_every > 0 &&
      options.run_config.checkpoint_path.empty()) {
    throw RuntimeFailure("--checkpoint-every needs --checkpoint <path>");
  }
  if (options.run_config.resume_force &&
      options.run_config.resume_path.empty() &&
      options.command != CliCommand::kBatch) {
    throw RuntimeFailure("--resume-force needs --resume <path>");
  }
  if (options.command == CliCommand::kBatch) {
    if (options.manifest_path.empty()) {
      throw RuntimeFailure("'batch' needs --manifest <file>");
    }
    if (options.checkpoint_dir.empty()) {
      throw RuntimeFailure(
          "'batch' needs --checkpoint-dir <dir> (suspend state lives there)");
    }
  } else if (options.max_retries != 0 || options.job_deadline != 0.0 ||
             options.job_slice_budget != 0 || !options.journal_path.empty()) {
    throw RuntimeFailure(
        "--max-retries/--job-deadline/--job-slice-budget/--journal only "
        "apply to the 'batch' command");
  }
  if (options.run_config.store_every > 0 &&
      options.run_config.store_dir.empty()) {
    throw RuntimeFailure("--snapshot-every needs --store-dir <dir>");
  }
  if (options.command == CliCommand::kBisect) {
    if (options.run_config.store_dir.empty()) {
      throw RuntimeFailure(
          "'bisect' needs --store-dir <dir> (both sides record their "
          "snapshot stores under it)");
    }
  } else if (side_overrides) {
    throw RuntimeFailure(
        "--a-*/--b-* side overrides only apply to the 'bisect' command");
  }
  return options;
}

}  // namespace emdpa::driver
