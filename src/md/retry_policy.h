// Retry / quarantine policy for the supervised batch scheduler.
//
// Before this seam a transiently failing job had exactly two futures: abort
// (exhausting its slot in the batch report) or — worse — silently consume
// the batch's wall clock forever if an operator kept re-running it.
// Production MD practice assumes runs that survive node-level faults over
// hours, so the scheduler needs the standard supervision vocabulary:
//
//   * RETRY, up to a budget, with deterministic decorrelated-jitter backoff
//     (core/backoff.h) so retries neither hammer the failing resource nor
//     replay differently after a crash;
//   * QUARANTINE once the budget is exhausted — the job is set aside with
//     its attempt count and last error in the journal/report, and every
//     other job keeps its throughput (batch exit 3, not batch abort);
//   * per-job DEADLINES (wall seconds and cumulative slice budgets,
//     enforced through md::HealthMonitor) that quarantine immediately —
//     retrying a job whose time allowance is spent cannot succeed.
//
// Failure classification: every RuntimeFailure is considered transient and
// retryable (NumericalFailure included — a deterministic blow-up simply
// exhausts its budget in max_retries+1 attempts and lands in quarantine,
// which is exactly the CI "poisoned job" invariant).  DeadlineExceeded
// skips the retry budget.  ContractViolation is a programming error and
// still aborts the whole batch.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/backoff.h"

namespace emdpa::md {

/// Batch-wide defaults; JobSpec carries per-job overrides.
struct RetryPolicy {
  /// Retries after the first attempt (0 = fail immediately, the pre-
  /// supervision behaviour; N means at most N+1 attempts total).
  int max_retries = 0;
  /// Per-job wall-clock budget in seconds, measured over the slices this
  /// process ran for the job (0 = unlimited).
  double deadline_wall_seconds = 0.0;
  /// Per-job cumulative slice budget, journal-persistent across reruns
  /// (0 = unlimited).
  std::uint64_t slice_budget = 0;
};

enum class FailureAction {
  kRetry,       ///< re-queue after Verdict::delay_rounds
  kQuarantine,  ///< budget exhausted (or deadline): set aside, batch continues
  kFail,        ///< max_retries == 0: the pre-supervision immediate verdict
};

/// Per-job retry ledger.  Owns the job's backoff stream (seeded from the
/// policy seed and the job name, so every job jitters independently and a
/// journal replay that restores `attempts` re-derives the same future
/// delays).
class RetryState {
 public:
  RetryState(const RetryPolicy& policy, const std::string& job_name);

  struct Verdict {
    FailureAction action = FailureAction::kFail;
    /// kRetry only: rounds to wait before rescheduling.
    std::uint64_t delay_rounds = 0;
    /// 1-based count of failures so far (== attempts consumed).
    int attempts = 0;
  };

  /// Classify one failure.  `deadline` forces quarantine regardless of the
  /// remaining retry budget.
  Verdict on_failure(bool deadline = false);

  /// Journal replay: restore a prior process's failure count.  The backoff
  /// stream is advanced to match, so post-replay delays continue the same
  /// deterministic sequence.
  void restore_attempts(int attempts);

  /// Failures recorded so far (retries used = attempts - 1 once > 0).
  int attempts() const { return attempts_; }

  const RetryPolicy& policy() const { return policy_; }

 private:
  RetryPolicy policy_;
  Backoff backoff_;
  int attempts_ = 0;
};

/// Stream id for a job's backoff: stable across processes and platforms.
std::uint64_t backoff_stream_for(const std::string& job_name);

}  // namespace emdpa::md
