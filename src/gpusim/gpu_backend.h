// MdBackend implementation for the GPU-accelerated system (section 5.2).
//
// The CPU (the paper's 2.2 GHz Opteron host) runs the integrator in single
// precision; step 2 is offloaded to the GPU: upload positions, one shader
// pass computing accelerations (+ per-atom PE in w), read the texture back,
// sum PE linearly on the CPU.  The one-time startup (context + shader JIT)
// is reported in the breakdown but excluded from device_time, exactly as
// the paper excludes it from Fig 7.
#pragma once

#include "gpusim/gpu_device.h"
#include "gpusim/pcie.h"
#include "md/backend.h"

namespace emdpa::gpu {

/// How the per-step potential-energy sum reaches the host.
enum class PeStrategy {
  kReadbackInW,   ///< the paper's choice: free ride in the acceleration w
  kGpuReduction,  ///< the rejected alternative: log4(N) extra GPU passes
};

const char* to_string(PeStrategy s);

struct GpuRunOptions {
  PeStrategy pe_strategy = PeStrategy::kReadbackInW;
};

/// Host-CPU cost constants for the integration phases (same 2.2 GHz Opteron
/// as the reference platform; kept local to avoid modelling a full cache
/// hierarchy for the O(N) host work, which is cycle-trivial next to the
/// transfers).
struct GpuHostCostModel {
  double clock_hz = 2.2e9;
  double cpi = 0.85;
  double integration_flops_per_atom =
      md::kIntegrationOpsPerAtom + md::kMarshalOpsPerAtom;
  double pe_sum_flops_per_atom = md::kPeSumOpsPerAtom;
};

class GpuBackend final : public md::MdBackend {
 public:
  explicit GpuBackend(const GpuRunOptions& options = {},
                      const GpuDeviceConfig& device = {},
                      const PcieConfig& pcie = {});

  std::string name() const override;
  std::string precision() const override { return "single"; }
  md::RunResult run(const md::RunConfig& run_config) override;

 private:
  GpuRunOptions options_;
  GpuDeviceConfig device_config_;
  PcieConfig pcie_config_;
  GpuHostCostModel host_;
};

}  // namespace emdpa::gpu
