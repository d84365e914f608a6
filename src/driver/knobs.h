// The run knobs: one table row per command-line flag and manifest key.
//
// A row (driver/knobs.cpp) holds the flag spelling (`--atoms`), the
// manifest key (`atoms`), the accepted range, the target field, from whose
// type the value kind follows, and the help line.  Command-line and
// manifest parsing look every spelling up there, the usage text is
// generated from it, and one formatter words every value error:
//
//   flag --dt needs a positive finite number, got '0'
//   jobs.txt:3: key dt needs a positive finite number, got '0'
//
// Integers are checked against the target field's type range before the
// cast, and reals must be finite.
#pragma once

#include <string>
#include <vector>

#include "md/job_scheduler.h"

namespace emdpa::driver {

struct CliOptions;

/// Parse the flags args[first..] into `options`: the shared flags in any
/// order, then each bisect side override (--a-x / --b-x) onto that side's
/// copy of the shared run config and thread count.  Returns whether any
/// side override was given.  Throws RuntimeFailure on an unknown flag or a
/// value out of range.
bool parse_flags(const std::vector<std::string>& args, std::size_t first,
                 CliOptions& options);

/// Apply the manifest pair `key`=`text` to `job`.  Throws RuntimeFailure
/// prefixed with `where` ("jobs.txt:3: ") on an unknown key or a value out
/// of range.
void apply_manifest_key(md::JobSpec& job, const std::string& key,
                        const std::string& text, const std::string& where);

/// The usage-text section a row is listed in.
enum class KnobGroup { kRun, kResilience, kStore, kBatch, kJob };

/// Generated usage lines: one section's options, the bisect side
/// overrides, and the manifest keys.
std::string knob_usage(KnobGroup group);
std::string side_knob_usage();
std::string manifest_key_usage();

}  // namespace emdpa::driver
