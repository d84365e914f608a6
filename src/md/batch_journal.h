// Write-ahead journal of batch scheduler state transitions.
//
// The scheduler journals every job state transition through one CRC-checked
// append-only log (core/wal.h), so that re-running `emdpa batch` after a
// SIGKILL reconstructs the EXACT scheduler state the dead process had:
//
//   admitted -> running -> suspended -> retrying(n) -> quarantined/done/failed
//
// Record grammar (one single-line payload per transition; the WAL layer adds
// the per-record CRC framing):
//
//   admit <job> priority <p>          job entered the batch
//   slice <job> steps <n> [slices <c>]
//                                     one time slice ran; steps_done after it
//                                     (`slices` carries the cumulative slice
//                                     count in compaction snapshots so the
//                                     slice-budget deadline survives rotation)
//   retry <job> attempt <k> delay <r> <reason...>
//                                     failure k consumed a retry; requeued
//                                     after r scheduler rounds
//   quarantine <job> attempts <k> <reason...>
//                                     retry budget (or deadline) exhausted
//   done <job> steps <n>              completed
//   fail <job> attempt <k> <reason...>  immediate failure (max_retries == 0)
//   interrupt                         batch drained on an operator signal
//
// Replay tolerates a torn tail (a kill mid-append) by construction, and the
// journal is REDUNDANT with the per-job checkpoints on purpose: checkpoints
// own the physics state, the journal owns the supervision state (attempt
// counters, quarantine verdicts, round-robin recency).  Reconciliation
// rules when they disagree — e.g. an append failed under an injected
// md.wal_io EIO, or the kill landed between a checkpoint commit and its
// journal record — always trust the checkpoint for physics and the journal
// for supervision; a `done` job whose completion marker is missing is
// simply re-admitted and completes in one no-op slice.
//
// Rotation: the log is compacted (WalWriter::rewrite — one durable commit,
// core/durable_file.h) once it grows past max_segment_bytes, replacing the
// full history with one state snapshot per job that replays to the same
// supervision state.
//
// Durability degradation: an append failure (disk full, injected md.wal_io)
// must not kill the batch the journal exists to protect — record() catches
// the failure, marks the journal non-durable and keeps scheduling; the
// next successful append resumes coverage and replay falls back to the
// checkpoint/marker ground truth for anything the gap lost.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/wal.h"
#include "md/job_scheduler.h"

namespace emdpa::md {

enum class JournalEvent {
  kAdmit,
  kSlice,
  kRetry,
  kQuarantine,
  kDone,
  kFail,
  kInterrupt,
};

struct JournalRecord {
  JournalEvent event = JournalEvent::kAdmit;
  std::string job;          ///< empty for kInterrupt
  int priority = 0;         ///< kAdmit
  long steps = 0;           ///< kSlice / kDone: steps_done after the event
  int attempt = 0;          ///< kRetry / kQuarantine / kFail: failures so far
  std::uint64_t delay = 0;  ///< kRetry: backoff delay in scheduler rounds
  std::uint64_t slices = 1; ///< kSlice: slices this record stands for
  std::string detail;       ///< kRetry / kQuarantine / kFail: one-line reason
};

/// Encode/decode one record payload (exposed for tests).  parse returns
/// false on malformed payloads (treated like a torn record on replay).
std::string encode_journal_record(const JournalRecord& record);
bool parse_journal_record(const std::string& payload, JournalRecord* record);

/// Supervision state replay reconstructs for one job.
struct ReplayedJob {
  /// Last terminal verdict seen, or kPending while mid-flight.
  JobStatus status = JobStatus::kPending;
  long steps_done = 0;        ///< from the last slice/done record
  int attempts = 0;           ///< failures so far (retry counter)
  std::uint64_t slices = 0;   ///< cumulative slices across every process
  std::uint64_t last_event = 0;  ///< 1-based index of the job's last record
  std::uint64_t retry_delay = 0; ///< pending backoff rounds when mid-retry
  bool retrying = false;      ///< last event was a retry (awaiting backoff)
  std::string detail;         ///< last recorded reason, if any
};

class BatchJournal {
 public:
  struct Replay {
    std::map<std::string, ReplayedJob> jobs;
    std::uint64_t records = 0;  ///< verified records replayed
    bool torn_tail = false;     ///< a partial tail was discarded
    bool interrupted = false;   ///< last batch drained on a signal
  };

  /// `max_segment_bytes` bounds the on-disk segment; the journal compacts
  /// (atomically) when an append grows past it.
  explicit BatchJournal(std::string path,
                        std::uint64_t max_segment_bytes = 256 * 1024);
  ~BatchJournal();

  BatchJournal(const BatchJournal&) = delete;
  BatchJournal& operator=(const BatchJournal&) = delete;

  const std::string& path() const { return path_; }

  /// Replay the existing segment (missing file = empty).  Read-only; call
  /// before open_for_append().
  Replay replay() const;

  /// Open the appender (creates the file).  Throws RuntimeFailure when even
  /// the open fails — a batch whose journal cannot exist at all should say
  /// so up front rather than run unsupervised.
  void open_for_append();

  /// Append one transition.  Never throws for I/O: a failed append (real or
  /// injected via the md.wal_io site) degrades durability instead of
  /// killing the batch — see the header comment.
  void record(const JournalRecord& record);

  /// True when the segment has outgrown max_segment_bytes and the owner
  /// should compact() with a fresh state snapshot.
  bool over_segment_bound() const;

  /// Compact the segment to `snapshot` (one admit/state run per job) via
  /// atomic rotation.  Never throws for I/O: a failed rotation leaves the
  /// unrotated (still valid) segment and degrades durable().
  void compact(const std::vector<JournalRecord>& snapshot);

  /// False once any append or rotation failed (supervision state on disk
  /// may lag the in-memory truth until the next successful append).
  bool durable() const { return durable_; }
  std::uint64_t append_failures() const { return append_failures_; }

 private:
  std::string path_;
  std::uint64_t max_segment_bytes_;
  std::unique_ptr<WalWriter> writer_;
  bool durable_ = true;
  std::uint64_t append_failures_ = 0;
};

}  // namespace emdpa::md
