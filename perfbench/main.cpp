// emdpa benchmark program: runs one named workload for a time budget and
// prints one JSON object of raw measurements on the last line of stdout.
//
//   perfbench --workload liquid-2k|liquid-100k
//             --seed N --seconds S --trace 0|1 --workdir DIR
//
// perfbench/run.py builds this program, runs it, and derives the reported
// metrics from its output; see perfbench/README.md for what each workload
// measures and why.
#include <unistd.h>

#include <algorithm>
#include <cpuid.h>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "md/simd_kernels.h"
#include "perfbench.h"

namespace fs = std::filesystem;

namespace {

constexpr const char* kUsage =
    "usage: perfbench --workload liquid-2k|liquid-100k "
    "--seed N --seconds S --trace 0|1 --workdir DIR";

// JSON string escaping for the few free-text fields (check details, CPU
// brand); everything else printed is numeric.
std::string quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

// CPU brand string from CPUID leaves 0x80000002..4 (no file reads).
std::string cpu_model() {
  unsigned regs[12] = {};
  for (unsigned leaf = 0; leaf < 3; ++leaf) {
    if (!__get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                     &regs[4 * leaf + 2], &regs[4 * leaf + 3])) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  model.erase(0, model.find_first_not_of(' '));
  return model.empty() ? "unknown" : model;
}

std::string fingerprint(std::size_t pool_size) {
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  std::ostringstream os;
  os << "{\"cpu\": " << quote(cpu_model())
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"l2_bytes\": " << l2 << ", \"l3_bytes\": " << l3
     << ", \"simd_isa\": "
     << quote(emdpa::simd::to_string(emdpa::md::simd_kernels::resolve_isa()))
     << ", \"pool_threads\": " << pool_size
     << ", \"compiler\": " << quote(PERFBENCH_COMPILER)
     << ", \"build_type\": " << quote(PERFBENCH_BUILD_TYPE)
     << ", \"cxx_flags\": " << quote(PERFBENCH_CXX_FLAGS)
     << ", \"fault_injection\": " << EMDPA_FAULT_INJECTION << "}";
  return os.str();
}

std::string to_json(const perfbench::Params& params,
                    const perfbench::Result& result, std::size_t pool_size) {
  std::ostringstream os;
  os << "{\"workload\": " << quote(params.workload)
     << ", \"seed\": " << params.seed << ", \"trace\": " << params.trace
     << ", \"fingerprint\": " << fingerprint(pool_size)
     << ", \"input_digest\": " << quote(std::to_string(result.input_digest))
     << ", \"atom_steps\": " << number(result.atom_steps)
     << ", \"timed_wall_s\": " << number(result.timed_wall_s)
     << ", \"peak_rss_mb\": " << number(result.peak_rss_mb)
     << ", \"attempted\": " << result.attempted
     << ", \"failed\": " << result.failed << ", \"samples\": {";
  bool first = true;
  for (const auto& [name, values] : result.samples) {
    os << (first ? "" : ", ") << quote(name) << ": [";
    for (std::size_t i = 0; i < values.size(); ++i) {
      os << (i ? ", " : "") << number(values[i]);
    }
    os << "]";
    first = false;
  }
  os << "}, \"layers\": {";
  first = true;
  for (const auto& [name, value] : result.layers) {
    os << (first ? "" : ", ") << quote(name) << ": " << number(value);
    first = false;
  }
  os << "}, \"checks\": [";
  first = true;
  for (const auto& check : result.checks) {
    os << (first ? "" : ", ") << "{\"name\": " << quote(check.name)
       << ", \"ok\": " << (check.ok ? "true" : "false")
       << ", \"detail\": " << quote(check.detail) << "}";
    first = false;
  }
  os << "]}";
  return os.str();
}

bool parse_args(int argc, char** argv, perfbench::Params& params) {
  bool have_workload = false, have_workdir = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      params.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      params.seed = std::stoull(value);
    } else if (key == "--seconds") {
      params.seconds = std::stod(value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      params.trace = value == "1";
    } else if (key == "--workdir") {
      params.workdir = value;
      have_workdir = true;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_workdir &&
         params.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Params params;
  try {
    if (!parse_args(argc, argv, params)) {
      std::cerr << kUsage << "\n";
      return 2;
    }
  } catch (const std::exception&) {
    std::cerr << kUsage << "\n";
    return 2;
  }
  if (params.workload != "liquid-2k" && params.workload != "liquid-100k") {
    std::cerr << "perfbench: unknown workload '" << params.workload << "'\n"
              << kUsage << "\n";
    return 2;
  }

  // One core is left to the OS, so a fork/join barrier does not wait on a
  // descheduled worker (on a 4-core host a 4-thread pool was faster but
  // several times noisier run to run); at most 4 threads keep figures
  // comparable with larger machines.
  const unsigned cores = std::thread::hardware_concurrency();
  const std::size_t threads =
      std::clamp<std::size_t>(cores > 1 ? cores - 1 : 1, 1, 4);
  emdpa::ThreadPool pool(threads);
  perfbench::Result result;
  try {
    fs::create_directories(params.workdir);
    perfbench::run_liquid(
        params, params.workload == "liquid-2k" ? 2048 : 100000, pool, result);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << params.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }

  std::cout << to_json(params, result, pool.size()) << std::endl;
  return 0;
}
