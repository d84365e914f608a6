#include "cpu/opteron_model.h"

#include "md/backend.h"

namespace emdpa::opteron {

namespace {

// Synthetic address space for the trace: the three state arrays live at
// well-separated bases, Vec3d elements are 24 bytes.
constexpr std::uint64_t kPosBase = 0x1000'0000ull;
constexpr std::uint64_t kVelBase = 0x2000'0000ull;
constexpr std::uint64_t kAccBase = 0x3000'0000ull;
constexpr std::size_t kVecBytes = sizeof(double) * 3;

constexpr std::uint64_t pos_addr(std::size_t i) { return kPosBase + i * kVecBytes; }
constexpr std::uint64_t vel_addr(std::size_t i) { return kVelBase + i * kVecBytes; }
constexpr std::uint64_t acc_addr(std::size_t i) { return kAccBase + i * kVecBytes; }

// Flops charged per interacting pair, all strategies (the LJ evaluation):
//   inv_r2 (the divide, charged separately), s2 (1 mul), s6 (2 mul),
//   force_over_r (4), force vector (3 mul + 3 add), pair energy (5),
//   PE accumulate (1)  =>  19 flops + 1 divide.
constexpr double kInteractionFlops = 19.0;

}  // namespace

PairInstructionProfile profile_for(md::MinImageStrategy strategy) {
  // Counted from the kernel code shape.  Every candidate pair pays:
  //   dr = pi - pj                      3 flops
  //   <minimum image, by strategy>      see below
  //   r^2 = dot(dr, dr)                 5 flops (folded into search27)
  //   cutoff compare                    1
  //   loop index + address arithmetic   4
  switch (strategy) {
    case md::MinImageStrategy::kSearch27:
      // 27 images x (3 shifted coords + 5 for r^2 + 1 compare/select) = 243;
      // the search already yields the best r^2, so no separate dot product.
      return {.per_candidate = md::kSearch27OpsPerCandidate,
              .per_interaction = kInteractionFlops};
    case md::MinImageStrategy::kBranchy:
      // Per axis: |d| vs half-edge compare (2).  Reflection adds are dynamic
      // events (counted by the kernel) as are their branch mispredictions.
      return {.per_candidate = 3 + 6 + 5 + 1 + 4, .per_interaction = kInteractionFlops};
    case md::MinImageStrategy::kCopysign:
      // Per axis: fabs + compare-to-mask + copysign + multiply-subtract = 3.
      return {.per_candidate = 3 + 9 + 5 + 1 + 4, .per_interaction = kInteractionFlops};
    case md::MinImageStrategy::kRound:
      // Per axis: scaled round + multiply + subtract = 4.
      return {.per_candidate = 3 + 12 + 5 + 1 + 4, .per_interaction = kInteractionFlops};
  }
  return {};
}

OpteronMachine::OpteronMachine(const OpteronConfig& config)
    : config_(config), memory_(config.l1, config.l2) {}

void OpteronMachine::charge_flops(double flops) {
  cycles_ += CycleCount(flops * config_.cpi);
  ops_.add("opteron.flops", static_cast<std::uint64_t>(flops));
}

void OpteronMachine::charge_divs(double divs) {
  cycles_ += CycleCount(divs * config_.div_cycles);
  ops_.add("opteron.divides", static_cast<std::uint64_t>(divs));
}

void OpteronMachine::charge_access(std::uint64_t addr, std::size_t bytes) {
  memory_.access(addr, bytes);
  const std::uint64_t l1_delta = memory_.l1_misses() - l1_misses_seen_;
  const std::uint64_t l2_delta = memory_.l2_misses() - l2_misses_seen_;
  l1_misses_seen_ = memory_.l1_misses();
  l2_misses_seen_ = memory_.l2_misses();
  cycles_ += CycleCount(static_cast<double>(l1_delta) * config_.l1_miss_cycles +
                        static_cast<double>(l2_delta) * config_.l2_miss_cycles);
}

md::ForceResult OpteronMachine::compute_forces(
    const std::vector<emdpa::Vec3d>& positions, const md::PeriodicBox& box,
    const md::LjParams& lj, double mass) {
  const std::size_t n = positions.size();
  const PairInstructionProfile profile = profile_for(config_.strategy);
  const double cutoff_sq = lj.cutoff_squared();
  const double inv_mass = 1.0 / mass;
  const double half = box.half_edge();
  const double edge = box.edge();

  md::ForceResult result;
  result.accelerations.assign(n, {});

  std::uint64_t reflections = 0;

  for (std::size_t i = 0; i < n; ++i) {
    const emdpa::Vec3d pi = positions[i];
    charge_access(pos_addr(i), kVecBytes);
    emdpa::Vec3d force{};
    double pe = 0.0;

    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      charge_access(pos_addr(j), kVecBytes);
      emdpa::Vec3d dr = pi - positions[j];

      // All four strategies compute the identical minimum image (a property
      // the unit tests assert on PeriodicBox); the machine evaluates the
      // cheapest equivalent form and *prices* the configured strategy via
      // its instruction profile.  Reflection events are counted for the
      // branchy profile's dynamic costs.
      if (config_.strategy == md::MinImageStrategy::kBranchy) {
        for (double* d : {&dr.x, &dr.y, &dr.z}) {
          if (*d > half) {
            *d -= edge;
            ++reflections;
          } else if (*d < -half) {
            *d += edge;
            ++reflections;
          }
        }
      } else {
        dr = box.min_image(dr);
      }

      const double r2 = length_squared(dr);
      ++result.stats.candidates;
      if (r2 < cutoff_sq) {
        ++result.stats.interacting;
        force += dr * lj.pair_force_over_r(r2);
        pe += 0.5 * lj.pair_energy(r2);
      }
    }

    result.accelerations[i] = force * inv_mass;
    result.potential_energy += pe;
    charge_access(acc_addr(i), kVecBytes);
  }

  // The i/j loop above visited every pair from both ends; price that
  // directed work, then report unordered pairs (the PairStats contract).
  const auto candidates = static_cast<double>(result.stats.candidates);
  const auto interacting = static_cast<double>(result.stats.interacting);
  charge_flops(candidates * profile.per_candidate +
               interacting * profile.per_interaction +
               static_cast<double>(reflections));
  charge_divs(interacting * profile.divs_per_interaction);
  result.stats.candidates /= 2;
  result.stats.interacting /= 2;

  if (config_.strategy == md::MinImageStrategy::kBranchy && reflections > 0) {
    // A reflection branch is data-dependent and mispredicts about half the
    // time on K8's bimodal predictor.
    const double mispredicts = 0.5 * static_cast<double>(reflections);
    cycles_ += CycleCount(mispredicts * config_.mispredict_cycles);
    ops_.add("opteron.mispredicts", static_cast<std::uint64_t>(mispredicts));
  }

  ops_.add("opteron.pair_candidates", result.stats.candidates);
  ops_.add("opteron.pair_interactions", result.stats.interacting);
  return result;
}

void OpteronMachine::charge_integration_step(std::size_t n) {
  charge_flops(static_cast<double>(n) * md::kIntegrationOpsPerAtom);
  for (std::size_t i = 0; i < n; ++i) {
    charge_access(pos_addr(i), kVecBytes);  // read-modify-write positions
    charge_access(vel_addr(i), kVecBytes);  // read-modify-write velocities
    charge_access(acc_addr(i), kVecBytes);  // read accelerations
  }
}

ModelTime OpteronMachine::elapsed() const {
  return ClockDomain(config_.clock_hz).to_time(cycles_);
}

void OpteronMachine::reset() {
  cycles_ = CycleCount();
  ops_.clear();
  memory_.reset_stats();
  memory_.invalidate_all();
  l1_misses_seen_ = 0;
  l2_misses_seen_ = 0;
}

}  // namespace emdpa::opteron
