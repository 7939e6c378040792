// Analytic kernel timing model for the simulated GPU.
//
// Every kernel launch is described by its grid geometry and resource
// footprint; the model returns the simulated execution time on a given
// DeviceSpec.  The model captures exactly the effects the paper's
// performance analysis is built on (§3.1.1, §4.1):
//
//   * launch overhead per kernel,
//   * wave quantisation: gridblocks are scheduled onto `num_cus`
//     compute-unit slots wave by wave,
//   * a per-block residency floor: a gridblock with almost no work
//     (the single short dot product of the reference transpose
//     SBGEMV) still occupies its CU for a minimum time, so launches
//     with very many tiny blocks are starved far below peak
//     bandwidth,
//   * achievable streaming bandwidth = peak * per-precision derate
//     (architecture tuning maturity) * kernel coalescing efficiency *
//     vectorised-load-width derate (float4/double2 effect),
//   * a compute roofline term (flops / peak flops) for completeness;
//     the FFTMatvec pipeline is memory bound so bandwidth dominates.
#pragma once

#include "device/device_spec.hpp"
#include "util/types.hpp"

namespace fftmv::device {

/// Launch geometry (CUDA/HIP dim3 analogue, block dims folded into a
/// single thread count because the simulator executes at gridblock
/// granularity).
struct LaunchGeometry {
  index_t grid_x = 1;
  index_t grid_y = 1;
  index_t grid_z = 1;
  index_t block_threads = 256;

  index_t total_blocks() const { return grid_x * grid_y * grid_z; }
};

/// Resource footprint of one kernel launch (totals over all blocks).
struct KernelFootprint {
  double bytes_read = 0.0;
  double bytes_written = 0.0;
  double flops = 0.0;
  /// True when the kernel computes in double / complex<double>.
  bool fp64_path = true;
  /// Width in bytes of the kernel's global loads (4 = scalar float,
  /// 16 = float4/double2 vectorised).
  int vector_load_bytes = 4;
  /// Kernel-specific coalescing quality in (0, 1]; 1 = perfectly
  /// coalesced streaming access.
  double coalescing_efficiency = 1.0;
  /// Multiplier on the per-block residency floor.  Kernels whose
  /// blocks execute long serial dependency chains (e.g. the
  /// reference transpose SBGEMV's one-thread-column dot product)
  /// hold their CU longer per block for heavier element types.
  double residency_weight = 1.0;

  double total_bytes() const { return bytes_read + bytes_written; }
};

struct KernelTiming {
  double seconds = 0.0;            ///< total simulated time incl. launch
  double achieved_bandwidth_gbps = 0.0;
  index_t waves = 0;               ///< wave count after quantisation
  bool residency_bound = false;    ///< per-block floor dominated
};

class CostModel {
 public:
  explicit CostModel(DeviceSpec spec) : spec_(std::move(spec)) {}

  const DeviceSpec& spec() const { return spec_; }

  KernelTiming kernel_time(const LaunchGeometry& geom,
                           const KernelFootprint& fp) const;

 private:
  DeviceSpec spec_;
};

}  // namespace fftmv::device
