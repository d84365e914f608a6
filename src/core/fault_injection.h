// Deterministic fault-injection registry (resilience layer).
//
// The simulated backends mirror failure-prone orchestration layers — SPE DMA
// and mailbox traffic, MTA stream scheduling, neighbour-list rebuilds,
// checkpoint I/O — yet nothing in a healthy run ever exercises a failure
// path.  This registry lets tests (and operators, via the EMDPA_FAULTS
// environment variable) arm named injection sites so the documented recovery
// behaviour — retry, fallback, clean typed abort — is *proved* rather than
// assumed.
//
// Determinism: a site fires either on an exact 1-based hit index
// ("site:first" or "site:firstxcount" for `count` consecutive hits) or with
// a seeded per-site Bernoulli draw ("site%probability@seed").  Both forms
// are pure functions of the hit counter, so an armed run replays
// identically.
//
//   EMDPA_FAULTS="cellsim.dma:3;md.checkpoint_io:1x2"   # 3rd DMA request
//                                                       # fails once; the
//                                                       # first two
//                                                       # checkpoint writes
//                                                       # fail
//   EMDPA_FAULTS="mtasim.stream%0.25@42"                # each region fails
//                                                       # with p=0.25, seeded
//
// Sites compiled into the tree (one per orchestration layer):
//   cellsim.dma        transient DMA transfer failure  -> engine retries
//   cellsim.mailbox    dropped SPE mailbox signal      -> PPE re-signals
//   mtasim.stream      stream fault in a parallel region -> serial re-issue
//   md.list_build      neighbour-list rebuild failure  -> degrade / abort
//   md.checkpoint_io   EIO while writing a checkpoint  -> skip + retry next
//                                                         interval
//   md.dir_fsync       directory fsync of any durable commit fails after
//                      its rename (core/durable_file.h) -> the commit
//                      reports failure
//   md.wal_io          EIO appending to or rotating the batch journal ->
//                      the batch continues; replay reconciles the gap
//   md.job_spawn       a batch job's Simulation fails to come up -> retry
//                      with backoff, then quarantine
//   md.manifest_parse  the batch manifest is unreadable -> typed failure
//                      before any job is admitted
//   md.step_perturb    one-ulp velocity kick before an exact step (keyed to
//                      the absolute step number, not the hit counter, so a
//                      replayed window re-fires identically) -> the known
//                      divergence `emdpa bisect` must localise
//
// Production builds can compile every hook to a constant-false no-op with
// -DEMDPA_FAULT_INJECTION=OFF (CMake option); the registry itself still
// links so tooling code that configures it keeps building.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace emdpa::fault {

/// When an armed site fires.  Exactly one of the two modes is active: hit
/// ranges (probability < 0) or seeded Bernoulli (probability in [0, 1]).
struct Plan {
  std::uint64_t first_hit = 1;  ///< 1-based hit index of the first failure
  std::uint64_t count = 1;      ///< consecutive failing hits from first_hit
  double probability = -1.0;    ///< >= 0 switches to seeded Bernoulli mode
  std::uint64_t seed = 0;       ///< Bernoulli mode: per-site stream seed
};

/// Per-site observation counters, for tests and reports.
struct SiteStats {
  std::uint64_t hits = 0;   ///< times the site was reached while armed
  std::uint64_t fires = 0;  ///< times the plan said "fail"
};

/// Process-wide registry of armed injection sites.  Thread-safe: sites are
/// hit from pool workers (the SPE workers run concurrently).  When no site
/// is armed, should_fail() is a single relaxed atomic load.
class Registry {
 public:
  /// The process singleton.  First access arms from $EMDPA_FAULTS if set.
  static Registry& instance();

  /// Arm sites from a spec string: ';'-separated entries of the form
  /// "site:first", "site:firstxcount" or "site%probability@seed".  Throws
  /// RuntimeFailure on malformed input.
  void arm_from_spec(const std::string& spec);

  void arm(const std::string& site, const Plan& plan);
  void disarm(const std::string& site);
  /// Disarm every site and zero all counters.
  void reset();

  bool any_armed() const;
  SiteStats stats(const std::string& site) const;

  /// Count a hit at `site`; true when the armed plan fails this hit.  Sites
  /// are only counted while armed (the disarmed fast path must stay free).
  bool should_fail(const char* site);

  /// Evaluate `site`'s armed plan against a CALLER-SUPPLIED 1-based index
  /// instead of the internal hit counter — for sites keyed to an absolute
  /// quantity like the simulation step number.  Replay-consistent by
  /// construction: restoring a snapshot and re-running a step window asks
  /// about the same indices and gets the same answers, which hit counters
  /// cannot promise.  Counts a hit (and a fire) like should_fail.
  bool should_fail_at(const char* site, std::uint64_t index);

 private:
  Registry();

  struct SiteState {
    Plan plan;
    SiteStats stats;
  };

  mutable std::mutex mutex_;
  std::unordered_map<std::string, SiteState> sites_;
  std::atomic<int> armed_count_{0};
};

#if defined(EMDPA_FAULT_INJECTION) && EMDPA_FAULT_INJECTION
/// The one hook compiled into production code paths.
inline bool injected(const char* site) {
  return Registry::instance().should_fail(site);
}
/// Step-indexed hook: fires when the armed plan covers `index` (1-based),
/// independent of how many times the site has been reached.  The hook the
/// replayable sites (md.step_perturb) use.
inline bool injected_at(const char* site, std::uint64_t index) {
  return Registry::instance().should_fail_at(site, index);
}
#else
constexpr bool injected(const char* /*site*/) { return false; }
constexpr bool injected_at(const char* /*site*/, std::uint64_t /*index*/) {
  return false;
}
#endif

/// RAII test helper: arms `site` on construction, disarms it on destruction
/// so one test's faults never leak into the next.
class ScopedFault {
 public:
  explicit ScopedFault(std::string site, const Plan& plan = {})
      : site_(std::move(site)) {
    Registry::instance().arm(site_, plan);
  }
  ~ScopedFault() { Registry::instance().disarm(site_); }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

  SiteStats stats() const { return Registry::instance().stats(site_); }

 private:
  std::string site_;
};

}  // namespace emdpa::fault
