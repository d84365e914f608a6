// The knob table: one row per flag and manifest key, with ranges checked
// before anything reaches the library.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/error.h"
#include "driver/cli_options.h"
#include "driver/manifest.h"

namespace emdpa::driver {
namespace {

struct BadValue {
  const char* flag;  ///< nullptr: manifest only
  const char* key;   ///< nullptr: command line only
  const char* value;
};

// Each of these once reached the library (a ContractViolation, an int wrap,
// an undefined cast, a thread-spawn abort) or ran garbage physics.
const BadValue kOutOfRange[] = {
    {"--steps", "steps", "3000000000"},
    {"--dt", "dt", "0"},
    {"--dt", "dt", "nan"},
    {"--density", "density", "0"},
    {"--density", "density", "inf"},
    {"--temperature", "temperature", "-1"},
    {"--cutoff", "cutoff", "-1"},
    {"--cutoff", "cutoff", "nan"},
    {"--atoms", "atoms", "1e20"},
    {"--drift-tol", "drift_tol", "inf"},
    {"--threads", nullptr, "100000"},
    {"--a-threads", nullptr, "100000"},
    {"--b-threads", nullptr, "100000"},
    {nullptr, "priority", "3e9"},
};

std::string message_of(const std::vector<std::string>& args) {
  try {
    parse_cli(args);
  } catch (const RuntimeFailure& e) {
    return e.what();
  }
  return "";
}

std::string manifest_message_of(const std::string& text) {
  std::istringstream in(text);
  try {
    parse_manifest(in, "jobs.txt");
  } catch (const RuntimeFailure& e) {
    return e.what();
  }
  return "";
}

TEST(KnobTable, OutOfRangeFlagsFailNamingTheFlag) {
  for (const BadValue& bad : kOutOfRange) {
    if (bad.flag == nullptr) continue;
    const std::string flag = bad.flag;
    const std::string what =
        message_of({"bisect", "--store-dir", "d", flag, bad.value});
    EXPECT_EQ(what.rfind("flag " + flag + " needs ", 0), 0u)
        << flag << " " << bad.value << ": " << what;
    EXPECT_NE(what.find(std::string("got '") + bad.value + "'"),
              std::string::npos)
        << what;
    EXPECT_EQ(what.find(".cpp"), std::string::npos) << what;
  }
}

TEST(KnobTable, OutOfRangeManifestKeysFailOnTheirLineBeforeAnyJob) {
  for (const BadValue& bad : kOutOfRange) {
    if (bad.key == nullptr) continue;
    const std::string key = bad.key;
    const std::string what = manifest_message_of(
        "good atoms=64 steps=20\nbad seed=7 " + key + "=" + bad.value + "\n");
    EXPECT_EQ(what.rfind("jobs.txt:2: key " + key + " needs ", 0), 0u)
        << key << "=" << bad.value << ": " << what;
    EXPECT_EQ(what.find(".cpp"), std::string::npos) << what;
  }
}

TEST(KnobTable, BoundaryValuesStayValid) {
  const CliOptions options = parse_cli(
      {"run", "--backend", "host-parallel", "--temperature", "0", "--seed",
       "-1", "--atoms", "1e3", "--threads", "1024", "--steps", "2147483647",
       "--dt", "1e-9"});
  EXPECT_EQ(options.run_config.workload.temperature, 0.0);
  EXPECT_EQ(options.run_config.workload.seed,
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(options.run_config.workload.n_atoms, 1000u);
  EXPECT_EQ(options.threads, 1024u);
  EXPECT_EQ(options.run_config.steps, std::numeric_limits<int>::max());
  EXPECT_EQ(options.run_config.dt, 1e-9);

  std::istringstream in(
      "edge temperature=0 seed=-1 deadline=0 max_retries=0 slice_budget=0 "
      "priority=-5 degrade=0\n");
  const std::vector<md::JobSpec> jobs = parse_manifest(in, "jobs.txt");
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].config.workload.temperature, 0.0);
  EXPECT_EQ(jobs[0].config.workload.seed,
            std::numeric_limits<std::uint64_t>::max());
  ASSERT_TRUE(jobs[0].deadline_seconds.has_value());
  EXPECT_EQ(*jobs[0].deadline_seconds, 0.0);  // overrides to "no limit"
  EXPECT_EQ(jobs[0].max_retries, 0);
  EXPECT_EQ(jobs[0].slice_budget, 0u);
  EXPECT_EQ(jobs[0].priority, -5);
  EXPECT_FALSE(jobs[0].config.degrade);
}

TEST(KnobTable, KnobsOnDifferentFieldsKeepTheirOwnRanges) {
  // The batch-wide deadline must be positive; a job's may be 0 ("no limit").
  EXPECT_NE(message_of({"batch", "--manifest", "m", "--checkpoint-dir", "c",
                        "--job-deadline", "0"}),
            "");
  EXPECT_EQ(manifest_message_of("job deadline=0\n"), "");
  EXPECT_NE(message_of({"batch", "--manifest", "m", "--checkpoint-dir", "c",
                        "--job-slice-budget", "0"}),
            "");
  EXPECT_EQ(manifest_message_of("job slice_budget=0\n"), "");
}

TEST(KnobTable, SideOverridesApplyToACopyOfTheSharedConfig) {
  // Flag order does not matter: the override wins over a later shared flag,
  // and the other side inherits the shared value.
  const CliOptions options =
      parse_cli({"bisect", "--store-dir", "d", "--a-kernel", "n2", "--kernel",
                 "list", "--atoms", "64", "--threads", "2"});
  EXPECT_EQ(options.bisect_a.config.host_kernel, md::HostKernel::kN2);
  EXPECT_EQ(options.bisect_b.config.host_kernel, md::HostKernel::kList);
  EXPECT_EQ(options.bisect_a.config.workload.n_atoms, 64u);
  EXPECT_EQ(options.bisect_a.threads, 2u);
  EXPECT_EQ(options.bisect_a.label, "a");
  EXPECT_EQ(options.bisect_b.label, "b");
  EXPECT_TRUE(options.bisect_a.config.store_dir.empty());
  // Only the per-side rows have --a-/--b- spellings, and --faults has no
  // shared one.
  EXPECT_THROW(parse_cli({"bisect", "--store-dir", "d", "--a-atoms", "64"}),
               RuntimeFailure);
  EXPECT_THROW(parse_cli({"bisect", "--store-dir", "d", "--faults", "x"}),
               RuntimeFailure);
}

}  // namespace
}  // namespace emdpa::driver
