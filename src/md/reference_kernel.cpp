#include "md/reference_kernel.h"

#include <vector>

namespace emdpa::md {

const char* to_string(MinImageStrategy s) {
  switch (s) {
    case MinImageStrategy::kSearch27: return "search27";
    case MinImageStrategy::kBranchy: return "branchy";
    case MinImageStrategy::kCopysign: return "copysign";
    case MinImageStrategy::kRound: return "round";
  }
  return "unknown";
}

template <typename Real>
std::string ReferenceKernelT<Real>::name() const {
  return std::string("reference-n2[") + to_string(strategy_) + "]";
}

namespace {

/// Strategy dispatch hoisted to compile time: each instantiation inlines one
/// min-image computation into the pair loop.
template <MinImageStrategy S, typename Real>
inline emdpa::Vec3<Real> min_image_by(const PeriodicBoxT<Real>& box,
                                      emdpa::Vec3<Real> dr) {
  if constexpr (S == MinImageStrategy::kSearch27) {
    return box.min_image_search27(dr);
  } else if constexpr (S == MinImageStrategy::kBranchy) {
    return box.min_image_branchy(dr);
  } else if constexpr (S == MinImageStrategy::kCopysign) {
    return box.min_image_copysign(dr);
  } else {
    return box.min_image(dr);
  }
}

}  // namespace

template <typename Real>
template <MinImageStrategy S>
void ReferenceKernelT<Real>::compute_rows(
    const std::vector<emdpa::Vec3<Real>>& positions,
    const PeriodicBoxT<Real>& box, const LjParamsT<Real>& lj, Real inv_mass,
    std::size_t i_begin, std::size_t i_end, ForceResultT<Real>& result,
    Real* row_pe, Real* row_virial, std::uint64_t* row_hits) const {
  const std::size_t n = positions.size();
  const Real cutoff_sq = lj.cutoff_squared();

  for (std::size_t i = i_begin; i < i_end; ++i) {
    const emdpa::Vec3<Real> pi = positions[i];
    emdpa::Vec3<Real> force{};
    Real pe{};
    Real virial{};
    std::uint64_t hits = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const emdpa::Vec3<Real> dr = min_image_by<S>(box, pi - positions[j]);
      const Real r2 = length_squared(dr);
      if (r2 < cutoff_sq) {
        ++hits;
        const Real f_over_r = lj.pair_force_over_r(r2);
        force += dr * f_over_r;
        pe += Real(0.5) * lj.pair_energy(r2);  // half: pair seen from both ends
        virial += Real(0.5) * f_over_r * r2;   // r.f, same halving
      }
    }
    result.accelerations[i] = force * inv_mass;
    row_pe[i] = pe;
    row_virial[i] = virial;
    row_hits[i] = hits;
  }
}

template <typename Real>
ForceResultT<Real> ReferenceKernelT<Real>::compute(
    const std::vector<emdpa::Vec3<Real>>& positions,
    const PeriodicBoxT<Real>& box, const LjParamsT<Real>& lj, Real mass) {
  const std::size_t n = positions.size();
  ForceResultT<Real> result;
  result.accelerations.assign(n, {});
  if (n == 0) return result;

  const Real inv_mass = Real(1) / mass;
  std::vector<Real> row_pe(n), row_virial(n);
  std::vector<std::uint64_t> row_hits(n);

  // One strategy dispatch per row range — never inside the pair loop.
  auto rows = [&](std::size_t i_begin, std::size_t i_end) {
    switch (strategy_) {
      case MinImageStrategy::kSearch27:
        compute_rows<MinImageStrategy::kSearch27>(positions, box, lj, inv_mass,
                                                  i_begin, i_end, result,
                                                  row_pe.data(),
                                                  row_virial.data(),
                                                  row_hits.data());
        break;
      case MinImageStrategy::kBranchy:
        compute_rows<MinImageStrategy::kBranchy>(positions, box, lj, inv_mass,
                                                 i_begin, i_end, result,
                                                 row_pe.data(),
                                                 row_virial.data(),
                                                 row_hits.data());
        break;
      case MinImageStrategy::kCopysign:
        compute_rows<MinImageStrategy::kCopysign>(positions, box, lj, inv_mass,
                                                  i_begin, i_end, result,
                                                  row_pe.data(),
                                                  row_virial.data(),
                                                  row_hits.data());
        break;
      case MinImageStrategy::kRound:
        compute_rows<MinImageStrategy::kRound>(positions, box, lj, inv_mass,
                                               i_begin, i_end, result,
                                               row_pe.data(),
                                               row_virial.data(),
                                               row_hits.data());
        break;
    }
  };
  if (pool_ != nullptr) {
    pool_->parallel_for(0, n, kForceRowGrain, rows);
  } else {
    rows(0, n);
  }

  // Ordered per-row reduction: the same additions in the same order as the
  // historical serial loop, so serial and parallel results are bit-identical.
  for (std::size_t i = 0; i < n; ++i) {
    result.potential_energy += row_pe[i];
    result.virial += row_virial[i];
    result.stats.interacting += row_hits[i];
  }
  // The row sweep visits every pair from both ends; report unordered pairs.
  result.stats.interacting /= 2;
  result.stats.candidates =
      static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n - 1) / 2;
  return result;
}

template class ReferenceKernelT<double>;
template class ReferenceKernelT<float>;

}  // namespace emdpa::md
