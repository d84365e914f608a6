#include "md/retry_policy.h"

#include <cmath>

#include "core/crc32.h"
#include "core/error.h"

namespace emdpa::md {

namespace {

/// Backoff between attempts, in scheduler rounds (one round = one slice
/// granted to some job).
constexpr BackoffPolicy kBackoff{1.0, 16.0, 0x9E3779B97F4A7C15ull};

}  // namespace

std::uint64_t backoff_stream_for(const std::string& job_name) {
  // CRC-32 of the name: stable across runs, platforms and std::hash
  // implementations — the journal contract demands replayed delays match.
  return static_cast<std::uint64_t>(crc32(job_name));
}

RetryState::RetryState(const RetryPolicy& policy, const std::string& job_name)
    : policy_(policy), backoff_(kBackoff, backoff_stream_for(job_name)) {
  EMDPA_REQUIRE(policy.max_retries >= 0,
                "retry policy: max_retries must be non-negative");
}

RetryState::Verdict RetryState::on_failure(bool deadline) {
  ++attempts_;
  Verdict verdict;
  verdict.attempts = attempts_;
  if (deadline) {
    // A consumed time allowance cannot be retried back; spend no budget.
    verdict.action = FailureAction::kQuarantine;
    return verdict;
  }
  if (policy_.max_retries == 0) {
    verdict.action = FailureAction::kFail;
    return verdict;
  }
  if (attempts_ > policy_.max_retries) {
    verdict.action = FailureAction::kQuarantine;
    return verdict;
  }
  verdict.action = FailureAction::kRetry;
  // Rounds are discrete; never round a positive delay down to "immediately".
  verdict.delay_rounds =
      static_cast<std::uint64_t>(std::ceil(backoff_.next()));
  if (verdict.delay_rounds == 0) verdict.delay_rounds = 1;
  return verdict;
}

void RetryState::restore_attempts(int attempts) {
  EMDPA_REQUIRE(attempts >= 0, "retry policy: attempts must be non-negative");
  attempts_ = attempts;
  // Replay the draws the dead process made so the next delay continues the
  // sequence instead of restarting it.
  backoff_.reset();
  const int draws = std::min(attempts, policy_.max_retries);
  for (int i = 0; i < draws; ++i) backoff_.next();
}

}  // namespace emdpa::md
