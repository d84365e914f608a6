#include "gpusim/md_shader.h"

#include "md/box.h"

namespace emdpa::gpu {

MdAccelShader::MdAccelShader(const MdShaderConstants& constants) : c_(constants) {}

emdpa::Vec4f MdAccelShader::execute(ShaderContext& ctx) {
  const std::size_t i = ctx.output_texel();
  const emdpa::Vec4f pi = ctx.fetch(0, i);

  const float sigma2 = c_.sigma * c_.sigma;
  const float eps24 = 24.0f * c_.epsilon;
  const float eps2 = 2.0f * c_.epsilon;

  float acc_x = 0, acc_y = 0, acc_z = 0, pe = 0;

  for (std::uint32_t j = 0; j < c_.n_atoms; ++j) {
    const emdpa::Vec4f pj = ctx.fetch(0, j);  // gather: any input location

    // Direction + minimum image (a select ladder on the GPU, three axes
    // vectorised).
    const float dx = md::closest_image(pi.x - pj.x, c_.box_edge);
    const float dy = md::closest_image(pi.y - pj.y, c_.box_edge);
    const float dz = md::closest_image(pi.z - pj.z, c_.box_edge);
    ctx.count_vec4(1 + 11);  // subtract + image search (abs/cmp/sel ladder)

    const float r2 = dx * dx + dy * dy + dz * dz;
    ctx.count_vec4(2);  // mul + dp3-style reduction

    // Predication mask: in cutoff AND not the self-pair (r2 == 0).
    const float mask = (r2 < c_.cutoff_sq && r2 > 0.0f) ? 1.0f : 0.0f;
    ctx.count_scalar(2);

    // LJ contribution, computed unconditionally (predicated execution).
    // Masked-out lanes substitute a benign separation so the polynomial
    // stays finite (otherwise inf * 0 would poison the accumulator with
    // NaN — the standard fencing in real shaders).
    const float r2_safe = (mask != 0.0f) ? r2 : 1.0f;
    const float inv_r2 = 1.0f / r2_safe;
    const float s2 = sigma2 * inv_r2;
    const float s6 = s2 * s2 * s2;
    const float f_over_r = eps24 * inv_r2 * s6 * (2.0f * s6 - 1.0f);
    ctx.count_vec4(8);
    ctx.count_scalar(3);

    acc_x += f_over_r * dx * mask;
    acc_y += f_over_r * dy * mask;
    acc_z += f_over_r * dz * mask;
    pe += eps2 * s6 * (s6 - 1.0f) * mask;  // half pair energy
    ctx.count_vec4(1);   // mad into the acceleration accumulator
    ctx.count_scalar(2); // pe mad + loop bookkeeping
  }

  return {acc_x * c_.inv_mass, acc_y * c_.inv_mass, acc_z * c_.inv_mass, pe};
}

}  // namespace emdpa::gpu
