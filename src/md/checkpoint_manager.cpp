#include "md/checkpoint_manager.h"

#include <fstream>
#include <sstream>

#include "core/durable_file.h"
#include "core/error.h"
#include "core/fault_injection.h"

namespace emdpa::md {

CheckpointManager::CheckpointManager(std::string path) : path_(std::move(path)) {
  EMDPA_REQUIRE(!path_.empty(), "checkpoint path must not be empty");
}

void CheckpointManager::save(const std::function<void(std::ostream&)>& writer) {
  std::ostringstream out;
  writer(out);
  if (fault::injected("md.checkpoint_io")) {
    throw RuntimeFailure("checkpoint: injected EIO writing '" + path_ + "'");
  }
  commit_file(path_, std::move(out).str(), previous_path());
  ++saves_;
}

void CheckpointManager::save(const ParticleSystem& system, const PeriodicBox& box,
                             long step, double potential) {
  save([&](std::ostream& out) {
    save_checkpoint(out, system, box, step, potential);
  });
}

Checkpoint CheckpointManager::load_file(const std::string& file) {
  std::ifstream in(file);
  if (!in) {
    throw RuntimeFailure("checkpoint: cannot open '" + file + "'");
  }
  return load_checkpoint(in);
}

CheckpointLoad CheckpointManager::load() const {
  std::string latest_error;
  try {
    return {load_file(path_), path_, /*used_fallback=*/false};
  } catch (const RuntimeFailure& e) {
    latest_error = e.what();
  }
  try {
    return {load_file(previous_path()), previous_path(), /*used_fallback=*/true};
  } catch (const RuntimeFailure& e) {
    throw RuntimeFailure("checkpoint: no loadable generation at '" + path_ +
                         "' (latest: " + latest_error +
                         "; previous: " + e.what() + ")");
  }
}

}  // namespace emdpa::md
