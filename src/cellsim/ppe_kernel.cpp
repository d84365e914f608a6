#include "cellsim/ppe_kernel.h"

#include "core/error.h"
#include "md/backend.h"

namespace emdpa::cell {

PpeKernelResult run_ppe_accel_kernel(float box_edge, float cutoff_sq,
                                     float epsilon, float sigma, float inv_mass,
                                     const emdpa::Vec4f* positions,
                                     emdpa::Vec4f* accel_out, std::size_t n) {
  EMDPA_REQUIRE(positions != nullptr && accel_out != nullptr,
                "PPE kernel needs valid arrays");
  const float sigma2 = sigma * sigma;
  const float eps24 = 24.0f * epsilon;
  const float eps2 = 2.0f * epsilon;

  PpeKernelResult result;

  for (std::size_t i = 0; i < n; ++i) {
    const emdpa::Vec4f pi = positions[i];
    float acc_x = 0, acc_y = 0, acc_z = 0, pe_i = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const float dx = md::closest_image(pi.x - positions[j].x, box_edge);
      const float dy = md::closest_image(pi.y - positions[j].y, box_edge);
      const float dz = md::closest_image(pi.z - positions[j].z, box_edge);
      const float r2 = dx * dx + dy * dy + dz * dz;
      ++result.stats.candidates;
      if (r2 < cutoff_sq) {
        ++result.stats.interacting;
        const float inv_r2 = 1.0f / r2;
        const float s2 = sigma2 * inv_r2;
        const float s6 = s2 * s2 * s2;
        const float f_over_r = eps24 * inv_r2 * s6 * (2.0f * s6 - 1.0f);
        pe_i += eps2 * s6 * (s6 - 1.0f);
        acc_x += f_over_r * dx;
        acc_y += f_over_r * dy;
        acc_z += f_over_r * dz;
      }
    }
    accel_out[i] = {acc_x * inv_mass, acc_y * inv_mass, acc_z * inv_mass, pe_i};
  }

  // Dynamic op counts of the *unported* code the PPE actually ran, with its
  // naive 27-image search; the restructured per-axis search only appeared in
  // the SPE port.
  result.scalar_ops =
      md::kSearch27OpsPerCandidate *
          static_cast<double>(result.stats.candidates) +
      md::kLjOpsPerInteraction * static_cast<double>(result.stats.interacting);
  return result;
}

}  // namespace emdpa::cell
