#include "driver/knobs.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <type_traits>
#include <utility>

#include "core/error.h"
#include "core/simd_dispatch.h"
#include "core/thread_pool.h"
#include "driver/cli_options.h"
#include "md/precision.h"
#include "md/watch.h"

namespace emdpa::driver {

namespace {

enum class KnobRange {
  kAny,          ///< the target field's type range
  kPositive,     ///< > 0
  kNonNegative,  ///< >= 0
  kAnyInt64,     ///< any 64-bit integer; negatives wrap modulo 2^64 (seed)
};

enum class KnobSides {
  kShared,       ///< --x
  kAlsoPerSide,  ///< --x, and --a-x / --b-x for one bisect side
  kPerSideOnly,  ///< --a-x / --b-x only
};

/// The fields one parse may write: the shared options or one bisect side
/// for a command line, a job and its config for a manifest line.
struct KnobTarget {
  md::RunConfig* run = nullptr;
  std::size_t* threads = nullptr;
  std::string* faults = nullptr;
  CliOptions* cli = nullptr;
  md::JobSpec* job = nullptr;
};

struct Knob;

/// How a row's target field is parsed, derived from the field's type.
struct KnobField {
  bool is_bool = false;  ///< a command-line bool is set by its presence
  /// Parse, range-check and store `text`; false when it is not accepted.
  bool (*store)(const Knob&, KnobTarget&, const std::string& text) = nullptr;
  /// The accepted values, as messages word them ("a positive integer").
  std::string (*accepted)(const Knob&) = nullptr;
};

struct Knob {
  const char* flag = nullptr;     ///< nullptr: manifest only
  const char* key = nullptr;      ///< nullptr: command line only
  const char* metavar = nullptr;  ///< nullptr for bools
  KnobRange range = KnobRange::kAny;
  std::int64_t max = 0;           ///< integer cap below the type max; 0 = none
  KnobSides sides = KnobSides::kShared;
  const char* choices = nullptr;  ///< accepted spellings, for messages
  bool (*check)(const std::string&) = nullptr;  ///< extra string validation
  KnobGroup group = KnobGroup::kRun;
  const char* help = "";
  KnobField field;
};

using enum KnobRange;
using enum KnobSides;
using enum KnobGroup;

constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();

/// True when `parse` (which throws RuntimeFailure on bad input) accepts
/// `text`; its result lands in `out`.
template <typename Parse, typename Out>
bool parses(Parse parse, const std::string& text, Out& out) {
  try {
    out = parse(text);
    return true;
  } catch (const RuntimeFailure&) {
    return false;
  }
}

md::HostKernel parse_host_kernel(const std::string& text) {
  for (const auto kernel :
       {md::HostKernel::kN2, md::HostKernel::kList, md::HostKernel::kAuto}) {
    if (text == md::to_string(kernel)) return kernel;
  }
  throw RuntimeFailure("unknown kernel '" + text + "'");
}

/// std::stod over the whole text, so "1e3" and hex floats parse as before.
std::optional<double> parse_number(const std::string& text) {
  try {
    std::size_t consumed = 0;
    const double value = std::stod(text, &consumed);
    if (consumed == text.size()) return value;
  } catch (const std::exception&) {  // not a number, or beyond double range
  }
  return std::nullopt;
}

template <typename T>
constexpr bool kIsOptional = false;
template <typename T>
constexpr bool kIsOptional<std::optional<T>> = true;

/// The accepted [lo, hi] of an integer knob that writes a T.
template <typename T>
std::pair<std::int64_t, std::int64_t> integer_range(const Knob& knob) {
  std::int64_t hi = static_cast<std::int64_t>(
      std::min<std::uint64_t>(std::numeric_limits<T>::max(), kInt64Max));
  if (knob.max != 0) hi = std::min(hi, knob.max);
  switch (knob.range) {
    case kPositive: return {1, hi};
    case kNonNegative: return {0, hi};
    case kAnyInt64: return {std::numeric_limits<std::int64_t>::min(), hi};
    case kAny: break;
  }
  return {std::numeric_limits<T>::min(), hi};  // every field is <= 64 bits
}

template <typename T>
std::string accepted(const Knob& knob) {
  const std::string sign = knob.range == kPositive      ? "a positive "
                           : knob.range == kNonNegative ? "a non-negative "
                                                        : "a ";
  if constexpr (kIsOptional<T>) {
    return accepted<typename T::value_type>(knob);
  } else if constexpr (std::is_same_v<T, bool>) {
    return "0 or 1";
  } else if constexpr (std::is_integral_v<T>) {
    const auto [lo, hi] = integer_range<T>(knob);
    if (knob.range == kAnyInt64) return "a 64-bit integer";
    if (knob.range == kAny) {
      return "an integer from " + std::to_string(lo) + " to " +
             std::to_string(hi);
    }
    return sign + "integer" +
           (hi < kInt64Max ? " up to " + std::to_string(hi) : "");
  } else if constexpr (std::is_floating_point_v<T>) {
    return sign + "finite number";
  } else {
    return knob.choices != nullptr ? knob.choices : "a value";
  }
}

/// Parse `text` as a T, range-check it and store it; false if it fails.
template <typename T>
bool store(const Knob& knob, T& field, const std::string& text) {
  if constexpr (kIsOptional<T>) {
    typename T::value_type value{};
    if (!store(knob, value, text)) return false;
    field = value;
  } else if constexpr (std::is_same_v<T, bool>) {
    if (text != "0" && text != "1") return false;
    field = text == "1";
  } else if constexpr (std::is_integral_v<T>) {
    const std::optional<double> v = parse_number(text);
    // [-2^63, 2^63) is the int64 range and both ends are exact doubles, so
    // the cast is defined; NaN fails the first test.
    if (!v || *v != std::floor(*v) || *v < -0x1p63 || *v >= 0x1p63) {
      return false;
    }
    const auto n = static_cast<std::int64_t>(*v);
    const auto [lo, hi] = integer_range<T>(knob);
    if (n < lo || n > hi) return false;
    field = static_cast<T>(n);
  } else if constexpr (std::is_floating_point_v<T>) {
    const std::optional<double> v = parse_number(text);
    if (!v || !std::isfinite(*v) || (knob.range == kPositive && *v <= 0.0) ||
        (knob.range == kNonNegative && *v < 0.0)) {
      return false;
    }
    field = *v;
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (knob.check != nullptr && !knob.check(text)) return false;
    field = text;
  } else if constexpr (std::is_same_v<T, md::HostKernel>) {
    return parses(parse_host_kernel, text, field);
  } else if constexpr (std::is_same_v<T, md::PrecisionMode>) {
    return parses(md::parse_precision, text, field);
  } else {
    return parses(simd::parse_simd_type, text, field);
  }
  return true;
}

/// The field `Get` (a captureless lambda from KnobTarget& to a field
/// pointer) selects; how its value is parsed follows from its type.
template <typename Get>
KnobField field(Get) {
  using T = std::remove_pointer_t<decltype(Get{}(std::declval<KnobTarget&>()))>;
  return {.is_bool = std::is_same_v<T, bool>,
          .store = [](const Knob& knob, KnobTarget& target,
                      const std::string& text) {
            return store(knob, *Get{}(target), text);
          },
          .accepted = accepted<T>};
}

bool valid_watch(const std::string& spec) {
  std::vector<std::string> names;
  return parses(md::WatchEmitter::parse_spec, spec, names);
}

const Knob kKnobs[] = {
    {.flag = "--backend", .metavar = "KEY",
     .help = "backend 'run' executes (see 'emdpa list')",
     .field = field([](KnobTarget& t) { return &t.cli->backend; })},
    {.flag = "--atoms", .key = "atoms", .metavar = "N", .range = kPositive,
     .help = "atom count (256)",
     .field = field([](KnobTarget& t) { return &t.run->workload.n_atoms; })},
    {.flag = "--steps", .key = "steps", .metavar = "K", .range = kPositive,
     .help = "velocity-Verlet steps (10; total when resuming)",
     .field = field([](KnobTarget& t) { return &t.run->steps; })},
    {.flag = "--density", .key = "density", .metavar = "D", .range = kPositive,
     .help = "reduced number density (0.8442)",
     .field = field([](KnobTarget& t) { return &t.run->workload.density; })},
    {.flag = "--temperature", .key = "temperature", .metavar = "T",
     .range = kNonNegative, .help = "initial reduced temperature (1.44)",
     .field =
         field([](KnobTarget& t) { return &t.run->workload.temperature; })},
    {.flag = "--dt", .key = "dt", .metavar = "DT", .range = kPositive,
     .help = "time step (0.005)",
     .field = field([](KnobTarget& t) { return &t.run->dt; })},
    {.flag = "--cutoff", .key = "cutoff", .metavar = "C", .range = kPositive,
     .help = "LJ cutoff (2.5)",
     .field = field([](KnobTarget& t) { return &t.run->lj.cutoff; })},
    {.flag = "--seed", .key = "seed", .metavar = "S", .range = kAnyInt64,
     .help = "workload seed (20070326)",
     .field = field([](KnobTarget& t) { return &t.run->workload.seed; })},
    {.flag = "--threads", .metavar = "N", .range = kPositive,
     .max = ThreadPool::kMaxThreads, .sides = kAlsoPerSide,
     .help = "host threads (EMDPA_THREADS, else all cores)",
     .field = field([](KnobTarget& t) { return t.threads; })},
    {.flag = "--kernel", .key = "kernel", .metavar = "MODE",
     .sides = kAlsoPerSide, .choices = "n2, list or auto",
     .help = "host force kernel: n2, list or auto (by size)",
     .field = field([](KnobTarget& t) { return &t.run->host_kernel; })},
    {.flag = "--simd", .key = "simd", .metavar = "ISA", .sides = kAlsoPerSide,
     .choices = "scalar, sse2, avx2 or avx512",
     .help = "host kernel ISA (EMDPA_SIMD, else the fastest)",
     .field = field([](KnobTarget& t) { return &t.run->simd_isa; })},
    {.flag = "--precision", .key = "precision", .metavar = "MODE",
     .sides = kAlsoPerSide, .choices = "dp, sp or mixed",
     .help = "host kernel numerics: dp (default), sp or mixed",
     .field = field([](KnobTarget& t) { return &t.run->precision; })},
    {.flag = "--csv", .help = "machine-readable output",
     .field = field([](KnobTarget& t) { return &t.cli->csv; })},

    {.flag = "--checkpoint", .metavar = "PATH", .group = kResilience,
     .help = "atomic checkpoint file (previous kept as PATH.prev)",
     .field = field([](KnobTarget& t) { return &t.run->checkpoint_path; })},
    {.flag = "--checkpoint-every", .metavar = "N", .range = kPositive,
     .group = kResilience,
     .help = "save every N steps (never changes the trajectory)",
     .field = field([](KnobTarget& t) { return &t.run->checkpoint_every; })},
    {.flag = "--resume", .metavar = "PATH", .group = kResilience,
     .help = "resume from a checkpoint (PATH.prev if corrupt)",
     .field = field([](KnobTarget& t) { return &t.run->resume_path; })},
    {.flag = "--resume-force", .group = kResilience,
     .help = "resume despite a kernel/precision mismatch",
     .field = field([](KnobTarget& t) { return &t.run->resume_force; })},
    {.flag = "--degrade", .key = "degrade", .group = kResilience,
     .help = "fall back to the reference kernel on a list failure",
     .field = field([](KnobTarget& t) { return &t.run->degrade; })},
    {.flag = "--drift-tol", .key = "drift_tol", .metavar = "X",
     .range = kPositive, .group = kResilience,
     .help = "exit 3 when relative energy drift exceeds X",
     .field = field([](KnobTarget& t) { return &t.run->drift_tolerance; })},

    {.flag = "--store-dir", .metavar = "DIR", .group = kStore,
     .help = "record a bit-exact snapshot store (pure observer)",
     .field = field([](KnobTarget& t) { return &t.run->store_dir; })},
    {.flag = "--snapshot-every", .metavar = "N", .range = kPositive,
     .group = kStore, .help = "snapshot stride (default: endpoints only)",
     .field = field([](KnobTarget& t) { return &t.run->store_every; })},
    {.flag = "--keyframe-every", .metavar = "K", .range = kPositive,
     .group = kStore, .help = "every K-th snapshot is a full keyframe (8)",
     .field =
         field([](KnobTarget& t) { return &t.run->store_keyframe_every; })},
    {.flag = "--store-max-bytes", .metavar = "B", .range = kPositive,
     .group = kStore, .help = "store disk budget (oldest chains evicted)",
     .field = field([](KnobTarget& t) { return &t.run->store_max_bytes; })},
    {.flag = "--watch", .metavar = "LIST",
     .choices = "a comma-separated list of energy, ke, pe, max_disp",
     .check = valid_watch, .group = kStore,
     .help = "stream 'watch step=N k=v' lines of these observables",
     .field = field([](KnobTarget& t) { return &t.run->watch; })},
    {.flag = "--watch-every", .metavar = "N", .range = kPositive,
     .group = kStore, .help = "watch emission stride (1)",
     .field = field([](KnobTarget& t) { return &t.run->watch_every; })},
    {.flag = "--faults", .metavar = "S", .sides = kPerSideOnly,
     .group = kStore,
     .help = "faults armed for that side only: md.step_perturb:STEP",
     .field = field([](KnobTarget& t) { return t.faults; })},

    {.flag = "--manifest", .metavar = "FILE", .group = kBatch,
     .help = "one '<name> key=value ...' line per job (keys below)",
     .field = field([](KnobTarget& t) { return &t.cli->manifest_path; })},
    {.flag = "--checkpoint-dir", .metavar = "DIR", .group = kBatch,
     .help = "per-job checkpoints; rerun with it to resume",
     .field = field([](KnobTarget& t) { return &t.cli->checkpoint_dir; })},
    {.flag = "--slice", .metavar = "N", .range = kPositive, .group = kBatch,
     .help = "steps per time slice and checkpoint (100)",
     .field = field([](KnobTarget& t) { return &t.cli->slice_steps; })},
    {.flag = "--max-in-flight", .metavar = "N", .range = kPositive,
     .group = kBatch, .help = "jobs resident in memory at once (4)",
     .field = field([](KnobTarget& t) { return &t.cli->max_in_flight; })},
    {.flag = "--max-retries", .metavar = "N", .range = kNonNegative,
     .group = kBatch,
     .help = "retries per job (0), then QUARANTINED, batch goes on",
     .field = field([](KnobTarget& t) { return &t.cli->max_retries; })},
    {.flag = "--job-deadline", .metavar = "S", .range = kPositive,
     .group = kBatch,
     .help = "per-job wall-clock seconds, then quarantine",
     .field = field([](KnobTarget& t) { return &t.cli->job_deadline; })},
    {.flag = "--job-slice-budget", .metavar = "N", .range = kPositive,
     .group = kBatch, .help = "per-job cap on time slices, across reruns",
     .field = field([](KnobTarget& t) { return &t.cli->job_slice_budget; })},
    {.flag = "--journal", .metavar = "PATH", .group = kBatch,
     .help = "write-ahead journal (DIR/batch.wal) replayed on rerun",
     .field = field([](KnobTarget& t) { return &t.cli->journal_path; })},

    {.key = "priority", .metavar = "N", .group = kJob,
     .help = "scheduling priority, higher first (0)",
     .field = field([](KnobTarget& t) { return &t.job->priority; })},
    {.key = "max_retries", .metavar = "N", .range = kNonNegative,
     .group = kJob, .help = "overrides --max-retries",
     .field = field([](KnobTarget& t) { return &t.job->max_retries; })},
    {.key = "deadline", .metavar = "S", .range = kNonNegative, .group = kJob,
     .help = "overrides --job-deadline; 0 = no limit",
     .field = field([](KnobTarget& t) { return &t.job->deadline_seconds; })},
    {.key = "slice_budget", .metavar = "N", .range = kNonNegative,
     .group = kJob, .help = "overrides --job-slice-budget; 0 = no limit",
     .field = field([](KnobTarget& t) { return &t.job->slice_budget; })},
};

constexpr std::size_t kHelpColumn = 25;

/// "  <spelling>   <help>", the help on the next line if the spelling is long.
std::string usage_line(const std::string& spelling, const std::string& help) {
  std::string line = "  " + spelling;
  if (line.size() >= kHelpColumn) line += '\n';
  const std::size_t used = line.size() - (line.rfind('\n') + 1);
  return line + std::string(kHelpColumn - used, ' ') + help + '\n';
}

/// "--atoms N", or "atoms=N" as a manifest key (bools: "degrade=0|1").
std::string spelled(const std::string& name, const Knob& knob, bool as_key) {
  if (as_key) {
    return name + "=" + (knob.field.is_bool ? "0|1" : knob.metavar);
  }
  return knob.metavar != nullptr ? name + " " + knob.metavar : name;
}

/// The row spelled `flag` on the shared command line or, when `per_side`,
/// after a bisect side's prefix ("--kernel" for "--a-kernel").
const Knob* find_flag(const std::string& flag, bool per_side) {
  for (const Knob& knob : kKnobs) {
    if (knob.flag == nullptr || flag != knob.flag) continue;
    const bool allowed =
        per_side ? knob.sides != kShared : knob.sides != kPerSideOnly;
    return allowed ? &knob : nullptr;
  }
  return nullptr;
}

/// Store `text` into the knob's field, or throw the one error wording:
/// "<subject> needs <accepted>, got '<text>'" ("... needs <accepted>" when
/// the value is missing).
void apply(const Knob& knob, KnobTarget target, const std::string* text,
           const std::string& subject) {
  if (text == nullptr || !knob.field.store(knob, target, *text)) {
    throw RuntimeFailure(subject + " needs " + knob.field.accepted(knob) +
                         (text != nullptr ? ", got '" + *text + "'" : ""));
  }
}

}  // namespace

bool parse_flags(const std::vector<std::string>& args, std::size_t first,
                 CliOptions& options) {
  struct SideOverride {
    const Knob* knob;
    BisectSide* side;
    std::string flag;
    std::string value;
  };
  std::vector<SideOverride> side_overrides;
  for (std::size_t i = first; i < args.size();) {
    const std::string& flag = args[i++];
    BisectSide* side = flag.starts_with("--a-")   ? &options.bisect_a
                       : flag.starts_with("--b-") ? &options.bisect_b
                                                  : nullptr;
    const Knob* knob = side != nullptr
                           ? find_flag("--" + flag.substr(4), /*per_side=*/true)
                           : find_flag(flag, /*per_side=*/false);
    if (knob == nullptr) {
      throw RuntimeFailure("unknown flag '" + flag + "' (try 'help')");
    }
    std::string value = "1";  // a bool flag is set by its presence
    if (!knob->field.is_bool) {
      if (i == args.size()) apply(*knob, {}, nullptr, "flag " + flag);
      value = args[i++];
    }
    if (side != nullptr) {
      side_overrides.push_back({knob, side, flag, value});
    } else {
      apply(*knob,
            {.run = &options.run_config, .threads = &options.threads,
             .cli = &options},
            &value, "flag " + flag);
    }
  }
  // Bisect sides are copies of the finished shared configuration, so flag
  // order does not matter; they record under <store-dir>/a and /b.
  for (auto [side, label] : {std::pair{&options.bisect_a, "a"},
                             std::pair{&options.bisect_b, "b"}}) {
    side->config = options.run_config;
    side->config.store_dir.clear();
    side->threads = options.threads;
    side->label = label;
  }
  for (const SideOverride& o : side_overrides) {
    apply(*o.knob,
          {.run = &o.side->config, .threads = &o.side->threads,
           .faults = &o.side->faults},
          &o.value, "flag " + o.flag);
  }
  return !side_overrides.empty();
}

void apply_manifest_key(md::JobSpec& job, const std::string& key,
                        const std::string& text, const std::string& where) {
  for (const Knob& knob : kKnobs) {
    if (knob.key != nullptr && key == knob.key) {
      return apply(knob, {.run = &job.config, .job = &job}, &text,
                   where + "key " + key);
    }
  }
  throw RuntimeFailure(where + "unknown key '" + key + "'");
}

std::string knob_usage(KnobGroup group) {
  std::string out;
  for (const Knob& knob : kKnobs) {
    if (knob.group != group || knob.sides == kPerSideOnly) continue;
    const bool as_key = knob.flag == nullptr;
    out += usage_line(spelled(as_key ? knob.key : knob.flag, knob, as_key),
                      knob.help);
  }
  return out;
}

std::string side_knob_usage() {
  std::string out;
  for (const Knob& knob : kKnobs) {
    if (knob.sides == kShared) continue;
    const std::string name = std::string(knob.flag).substr(2);
    out += usage_line(spelled("--a-" + name, knob, false) + " / " +
                          spelled("--b-" + name, knob, false),
                      knob.choices != nullptr ? knob.choices : knob.help);
  }
  return out;
}

std::string manifest_key_usage() {
  std::string out = "  manifest keys, as the flags, then per job:\n";
  std::string line = "   ";
  for (const Knob& knob : kKnobs) {
    if (knob.flag == nullptr || knob.key == nullptr) continue;
    const std::string pair = spelled(knob.key, knob, true);
    if (line.size() + 1 + pair.size() > 78) {
      out += line + '\n';
      line = "   ";
    }
    line += ' ';
    line += pair;
  }
  out += line + '\n';
  return out + knob_usage(kJob);
}

}  // namespace emdpa::driver
