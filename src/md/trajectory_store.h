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
// mantissa bytes, so deltas are a small fraction of a keyframe.  Every
// frame, and the store index, ends in the same CRC-32 footer as the
// checkpoint format; a single flipped bit anywhere fails restoration loudly.
//
//   <dir>/frame_000000000120.key      full checkpoint text (chain head)
//   <dir>/frame_000000000130.delta    XOR vs the step-120 snapshot
//   <dir>/frame_000000000140.delta    XOR vs the step-130 snapshot
//   ...
//   <dir>/index                       one line per live frame + crc footer
//
// Every frame and the index are committed through commit_file
// (core/durable_file.h: temp file + fsync + rename + directory fsync), so
// they survive power loss, not just process death.  The index is rewritten
// on every append, so reopening a store — or seeking — never scans frame
// payloads: the chain structure (which keyframe precedes which step) is
// O(1) to consult once the index is loaded.
//
// Ring eviction: when a max_bytes budget is set and exceeded, the OLDEST
// whole chain (keyframe plus its dependent deltas) is deleted — never a
// frame another live frame depends on, and never any part of the newest
// chain, so the most recent snapshots always survive.  The index that stops
// listing a chain is committed before the chain's files are unlinked.
//
// Restoring step S loads S's chain keyframe, then applies the delta frames
// up to S in order.  Any frame whose shape would change (atom count, rng /
// listref presence, recorded config) forces a keyframe at append time, so
// every chain has one fixed word layout.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "md/checkpoint.h"

namespace emdpa::md {

struct TrajectoryStoreOptions {
  /// Directory the frames and index live in; created if absent.
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
  /// Open (or create) the store at options.directory.  An existing valid
  /// index resumes the ring where it left off; a corrupt index throws.
  explicit TrajectoryStore(TrajectoryStoreOptions options);

  /// Append one snapshot.  `cp.step` must exceed the last stored step.
  /// Decides keyframe vs delta, commits the frame, commits the index without
  /// the chains the ring budget evicts, then deletes their files.
  void append(const Checkpoint& cp);

  /// Steps currently restorable, ascending.
  std::vector<long> steps() const;

  bool has_step(long step) const;

  /// Largest stored step <= `step`, or -1 when none is.
  long nearest_at_or_before(long step) const;

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
  /// Commit an index listing frames_[first..].
  void persist_index(std::size_t first);
  void load_index();
  /// How many leading frames (whole oldest chains) the ring budget evicts.
  std::size_t frames_over_budget() const;
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
