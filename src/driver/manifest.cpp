#include "driver/manifest.h"

#include <fstream>
#include <sstream>

#include "core/error.h"
#include "core/fault_injection.h"
#include "driver/knobs.h"

namespace emdpa::driver {

std::vector<md::JobSpec> parse_manifest(std::istream& in,
                                        const std::string& source) {
  // Injection site md.manifest_parse: the manifest is unreadable (device
  // error, permissions race).  The proven recovery is a clean typed failure
  // before any job is admitted — never a half-parsed batch.
  if (fault::injected("md.manifest_parse")) {
    throw RuntimeFailure("manifest: injected read failure on '" + source +
                         "'");
  }
  std::vector<md::JobSpec> jobs;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    std::istringstream tokens(line);
    std::string name;
    if (!(tokens >> name) || name.front() == '#') continue;

    const std::string where =
        source + ":" + std::to_string(line_number) + ": ";
    md::JobSpec job;
    job.name = name;
    for (const md::JobSpec& existing : jobs) {
      if (existing.name == name) {
        throw RuntimeFailure(where + "duplicate job name '" + name + "'");
      }
    }

    std::vector<std::string> seen_keys;
    std::string pair;
    while (tokens >> pair) {
      const std::size_t eq = pair.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= pair.size()) {
        throw RuntimeFailure(where + "expected key=value, got '" + pair + "'");
      }
      const std::string key = pair.substr(0, eq);
      // Reject duplicate keys on one job line: silently honouring the last
      // occurrence turns an editing mistake into a different simulation.
      for (const std::string& seen : seen_keys) {
        if (seen == key) {
          throw RuntimeFailure(where + "duplicate key '" + key +
                               "' for job '" + name + "'");
        }
      }
      seen_keys.push_back(key);
      apply_manifest_key(job, key, pair.substr(eq + 1), where);
    }
    jobs.push_back(std::move(job));
  }
  if (jobs.empty()) {
    throw RuntimeFailure(source + ": manifest defines no jobs (" +
                         std::to_string(line_number) +
                         " line(s) of comments/whitespace)");
  }
  return jobs;
}

std::vector<md::JobSpec> load_manifest(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw RuntimeFailure("cannot open manifest '" + path + "'");
  }
  return parse_manifest(in, path);
}

}  // namespace emdpa::driver
