#include "gpusim/gpu_backend.h"

#include "gpusim/md_shader.h"
#include "gpusim/reduction.h"

namespace emdpa::gpu {

const char* to_string(PeStrategy s) {
  switch (s) {
    case PeStrategy::kReadbackInW: return "pe-readback-in-w";
    case PeStrategy::kGpuReduction: return "pe-gpu-reduction";
  }
  return "unknown";
}

GpuBackend::GpuBackend(const GpuRunOptions& options,
                       const GpuDeviceConfig& device, const PcieConfig& pcie)
    : options_(options), device_config_(device), pcie_config_(pcie) {}

std::string GpuBackend::name() const {
  std::string n = "gpu-7900gtx";
  if (options_.pe_strategy == PeStrategy::kGpuReduction) n += "[reduction]";
  return n;
}

md::RunResult GpuBackend::run(const md::RunConfig& run_config) {
  EMDPA_REQUIRE(!run_config.lj.shifted,
                "the GPU port implements the paper's truncated LJ only");

  md::Workload workload = md::make_lattice_workload(run_config.workload);
  md::ParticleSystemF system = workload.system.cast<float>();
  const md::PeriodicBoxF box(static_cast<float>(workload.box.edge()));
  const auto lj = run_config.lj.cast<float>();
  const std::size_t n = system.size();

  for (auto& p : system.positions()) p = box.wrap(p);

  GpuDevice device(device_config_);
  PcieBus pcie(pcie_config_);
  const ClockDomain host_clock(host_.clock_hz);

  // One-time startup: GPU context + JIT compile with the constants baked in.
  MdShaderConstants constants;
  constants.box_edge = box.edge();
  constants.cutoff_sq = lj.cutoff_squared();
  constants.epsilon = lj.epsilon;
  constants.sigma = lj.sigma;
  constants.inv_mass = 1.0f / system.mass();
  constants.n_atoms = static_cast<std::uint32_t>(n);

  MdAccelShader shader(constants);
  const CompiledShader compiled =
      device.compiler().compile(shader, shader.static_instruction_estimate());
  const ModelTime startup =
      ModelTime::milliseconds(300.0) + compiled.compile_time;  // context + JIT

  Texture2D positions = Texture2D::for_elements(n, "positions");
  Texture2D accelerations = Texture2D::for_elements(n, "accelerations");

  md::RunResult result;
  result.backend_name = name();
  ModelTime t_upload, t_pass, t_readback, t_host, t_reduction;

  // Step 2 at the current positions: upload, one shader pass, readback.
  md::DeviceModelT<float> model;
  model.evaluate = [&]() -> std::pair<float, ModelTime> {
    ModelTime elapsed;

    // Upload positions.
    {
      auto& tex = positions.host_data();
      for (std::size_t i = 0; i < n; ++i) {
        tex[i] = emdpa::Vec4f(system.positions()[i], 0.0f);
      }
      const ModelTime t = pcie.upload(n * sizeof(emdpa::Vec4f));
      t_upload += t;
      elapsed += t;
    }

    // The acceleration pass.
    {
      const PassResult pass = device.run_pass(compiled, {&positions},
                                              accelerations, n);
      t_pass += pass.total();
      elapsed += pass.total();
      result.ops.add("gpu.fetches", pass.work.fetches);
      result.ops.add("gpu.alu_vec4", pass.work.alu_vec4);
      result.ops.add("gpu.passes");
    }

    float pe = 0.0f;

    if (options_.pe_strategy == PeStrategy::kGpuReduction) {
      // Rejected alternative: sum PE on the GPU first (extra passes), then
      // read back both the scalar and the accelerations.
      const ReductionOutcome red = reduce_w_on_gpu(device, pcie, accelerations, n);
      t_reduction += red.gpu_time + red.readback_time;
      elapsed += red.gpu_time + red.readback_time;
      result.ops.add("gpu.reduction_passes",
                     static_cast<std::uint64_t>(red.passes));
      pe = red.sum;
    }

    // Read the accelerations back (needed by the CPU integrator either way).
    {
      const ModelTime t = pcie.readback(n * sizeof(emdpa::Vec4f));
      t_readback += t;
      elapsed += t;
      const auto& tex = accelerations.host_data();
      for (std::size_t i = 0; i < n; ++i) {
        system.accelerations()[i] = tex[i].xyz();
      }
      if (options_.pe_strategy == PeStrategy::kReadbackInW) {
        // The free ride: PE contributions arrive in w; the CPU sums them in
        // linear time (it is "well suited to this scalar task").
        pe = 0.0f;
        for (std::size_t i = 0; i < n; ++i) pe += tex[i].w;
        const ModelTime t_sum = host_clock.to_time(CycleCount(
            static_cast<double>(n) * host_.pe_sum_flops_per_atom * host_.cpi));
        t_host += t_sum;
        elapsed += t_sum;
      }
    }

    return {pe, elapsed};
  };
  model.charge_integration = [&] {
    const ModelTime t = host_clock.to_time(CycleCount(
        static_cast<double>(n) * host_.integration_flops_per_atom * host_.cpi));
    t_host += t;
    return t;
  };
  // The prime is untimed, as in the other backends.
  model.reset = [&] {
    t_upload = t_pass = t_readback = t_host = t_reduction = ModelTime::zero();
  };
  md::run_device_steps(system, box, run_config, model, result);

  result.device_time = md::summed_device_time(result.step_times);
  result.breakdown["startup"] = startup;  // excluded from device_time (paper)
  result.breakdown["pcie_upload"] = t_upload;
  result.breakdown["gpu_pass"] = t_pass;
  result.breakdown["pcie_readback"] = t_readback;
  result.breakdown["host"] = t_host;
  if (options_.pe_strategy == PeStrategy::kGpuReduction) {
    result.breakdown["pe_reduction"] = t_reduction;
  }
  result.ops.add("pcie.bytes_up", pcie.bytes_uploaded());
  result.ops.add("pcie.bytes_down", pcie.bytes_read_back());
  return result;
}

}  // namespace emdpa::gpu
