// Batch manifest parsing for `emdpa batch` — one job per line, each a full
// per-job run configuration for the cooperative scheduler
// (md/job_scheduler.h).
//
// Grammar (text, line-oriented):
//
//   # comment (blank lines ignored)
//   <name> [key=value ...]
//
// `name` is the unique job identifier (also its checkpoint file stem, so
// [A-Za-z0-9._-] only).  The keys, their accepted values and defaults are
// the manifest rows of the knob table (driver/knobs.h; `emdpa help` lists
// them): every run flag with a manifest spelling (atoms=, dt=, kernel=, ...)
// plus the per-job priority=, max_retries=, deadline= and slice_budget=.
//
// Errors carry the manifest line number and are raised before any job is
// admitted; duplicate names and duplicate keys on one line are rejected
// here (names again by the scheduler, for callers that build specs
// directly).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "md/job_scheduler.h"

namespace emdpa::driver {

/// Parse a manifest stream.  Throws RuntimeFailure with `source` and the
/// line number on malformed input.
std::vector<md::JobSpec> parse_manifest(std::istream& in,
                                        const std::string& source = "manifest");

/// Read and parse a manifest file; throws RuntimeFailure if unreadable.
std::vector<md::JobSpec> load_manifest(const std::string& path);

}  // namespace emdpa::driver
