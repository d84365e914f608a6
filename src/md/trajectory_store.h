// Time-travel trajectory store: a bounded ring of delta-compressed,
// CRC-checked simulation snapshots that any stored step can be restored from
// bit-exactly.
//
// The store is a directory of text frames written at a configurable step
// stride from Simulation::snapshot() — a PURE observer (no neighbour-list
// invalidation; the v4 `listref` checkpoint section carries what a restore
// needs instead), so a store-enabled run stays bitwise identical to a
// store-disabled one.  Every K-th snapshot is a KEYFRAME: a complete v4
// checkpoint file, loadable by load_checkpoint on its own.  Snapshots
// between keyframes are DELTA frames: the byte-level XOR of the snapshot's
// fixed word serialisation against the previous snapshot's, run-length
// encoded (core/delta_codec.h) — a few steps of drift touch mostly low
// mantissa bytes, so the XOR holds long zero runs.  Every
// frame ends in the same CRC-32 footer as the checkpoint format; a single
// flipped bit anywhere fails restoration loudly.
//
//   <dir>/frame_000000000120.key      full checkpoint text (chain head)
//   <dir>/frame_000000000130.delta    XOR vs the step-120 snapshot
//   <dir>/frame_000000000140.delta    XOR vs the step-130 snapshot
//   ...
//
// The directory is its own index.  Opening a store lists the names and
// sizes of its frame_<digits>.key|delta files (no payload is read) and
// ignores every other name; two frames for one step throw.  Each append
// commits exactly one file through commit_file (core/durable_file.h: temp
// file + fsync + rename + directory fsync), so frames survive power loss,
// not just process death.
//
// Ring eviction: when a max_bytes budget is set and exceeded, the OLDEST
// whole chain (keyframe plus its dependent deltas) is unlinked, keyframe
// first, then its deltas in step order — never a frame another live frame
// depends on, and never any part of the newest chain, so the most recent
// snapshots always survive.  An eviction cut short at any point leaves only
// deltas before the first keyframe; the next open drops and unlinks them.
// Unlinks are not fsynced: a chain that reappears after a power loss is
// only over budget, and the next append evicts it again.
//
// Restoring step S loads S's chain keyframe, then applies the delta frames
// up to S in order.  Any frame whose shape would change (atom count,
// listref presence, recorded config) forces a keyframe at append time, so
// every chain has one fixed word layout.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "md/checkpoint.h"

namespace emdpa::md {

struct TrajectoryStoreOptions {
  /// Directory the frames live in; created if absent.
  std::string directory;
  /// Every K-th snapshot is a full keyframe; the K-1 between are deltas.
  int keyframe_interval = 8;
  /// Disk budget in bytes across all frames; 0 = unbounded.  When exceeded,
  /// whole oldest chains are evicted (the newest chain is never touched).
  std::uint64_t max_bytes = 0;
};

struct TrajectoryStoreStats {
  std::uint64_t snapshots = 0;       ///< appends since open
  std::uint64_t keyframes = 0;       ///< ... of which were keyframes
  std::uint64_t deltas = 0;          ///< ... of which were delta frames
  std::uint64_t bytes = 0;           ///< current on-disk frame bytes
  std::uint64_t evicted_frames = 0;  ///< frames deleted by ring eviction
};

class TrajectoryStore {
 public:
  /// Open (or create) the store at options.directory.  Existing frames
  /// resume the ring where it left off; two frames for one step throw.
  explicit TrajectoryStore(TrajectoryStoreOptions options);

  /// Append one snapshot.  `cp.step` must exceed the last stored step.
  /// Decides keyframe vs delta, commits the frame, then unlinks the chains
  /// the ring budget evicts.
  void append(const Checkpoint& cp);

  /// Steps currently restorable, ascending.
  std::vector<long> steps() const;

  bool has_step(long step) const;

  /// Newest stored step, or -1 when the store is empty.
  long newest_step() const { return frames_.empty() ? -1 : frames_.back().step; }

  /// Restore the snapshot stored for exactly `step`: load its chain
  /// keyframe, apply the deltas up to `step`.  Throws RuntimeFailure on
  /// unknown steps and on any corruption (every frame is CRC-verified).
  Checkpoint load_step(long step) const;

  const TrajectoryStoreStats& stats() const { return stats_; }
  const std::string& directory() const { return options_.directory; }

 private:
  struct FrameRecord {
    long step = 0;
    bool keyframe = false;
    std::uint64_t bytes = 0;
  };

  std::string frame_path(const FrameRecord& frame) const;
  /// Rebuild frames_ from the directory listing (see the header comment).
  void scan_directory();
  /// Index into frames_ for `step`; throws when absent.
  std::size_t frame_index(long step) const;

  TrajectoryStoreOptions options_;
  std::vector<FrameRecord> frames_;  ///< live frames, ascending by step
  TrajectoryStoreStats stats_;
  /// Word serialisation of the newest stored snapshot — the base the next
  /// delta XORs against.  Rebuilt lazily from disk after a reopen.
  std::vector<std::uint8_t> last_words_;
  /// Shape fingerprint of the newest snapshot (atom count, optional-section
  /// presence, config strings); any change forces a keyframe.
  std::string last_shape_;
  int since_keyframe_ = 0;  ///< delta frames since the newest keyframe
};

}  // namespace emdpa::md
