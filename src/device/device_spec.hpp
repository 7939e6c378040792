// Hardware descriptions for the simulated GPU runtime.
//
// The paper evaluates on AMD Instinct MI250X (per-GCD), MI300X and
// MI355X GPUs; none are available here, so kernels execute on host
// threads for bit-true numerics while an analytic cost model
// (cost_model.hpp) converts each launch into simulated device time
// using these specs.  Peak numbers follow the paper (§4.1.2: 1.6 ->
// 5.3 -> 8 TB/s) and public AMD datasheets; the efficiency-derate
// fields encode the paper's measured kernel quality (§4.1.2: SBGEMV
// reaches ~70% of peak bandwidth on MI250X/MI300X but only ~35% on
// MI355X because rocBLAS kernels are not yet tuned for CDNA4, and
// §4.2.1: the FP32 path on MI355X is even less tuned, capping the
// mixed-precision speedup at ~40%).
#pragma once

#include <string>

#include "util/types.hpp"

namespace fftmv::device {

/// CUDA/HIP grid launch limit in y and z.
inline constexpr index_t kMaxGridDimYZ = 65535;

struct DeviceSpec {
  std::string name;

  // --- capability ---
  double peak_bandwidth_gbps = 0.0;   ///< HBM peak, GB/s
  double fp32_tflops = 0.0;           ///< vector FP32 peak, TFLOP/s
  double fp64_tflops = 0.0;           ///< vector FP64 peak, TFLOP/s
  index_t num_cus = 0;                ///< compute units (gridblock slots)
  index_t memory_bytes = 0;           ///< device memory capacity
  index_t max_grid_dim_yz = kMaxGridDimYZ;  ///< grid launch limit in y/z

  // --- cost-model parameters ---
  /// Fixed host-side cost of every kernel launch, seconds.
  double launch_overhead_s = 4e-6;
  /// Minimum residency of one gridblock on a CU, seconds.  This floor
  /// is what makes "many tiny blocks" launches (the reference
  /// transpose SBGEMV of §3.1.1) bandwidth-starved.
  double block_residency_floor_s = 2.0e-7;
  /// Fraction of peak bandwidth a perfectly-coalesced streaming
  /// kernel attains, per compute precision.  Encodes the per-
  /// architecture tuning maturity discussed in §4.1.2/§4.2.1.
  double streaming_derate_fp64 = 1.0;
  double streaming_derate_fp32 = 1.0;

  /// Derate applicable to a kernel whose inner loads are `bytes`-wide
  /// (the float4/double2 vectorisation effect of §3.1.1).
  double vector_load_derate(int bytes) const;

  /// Streaming derate for the element width in use (fp32 path covers
  /// float and complex<float>).
  double streaming_derate(bool fp64_path) const {
    return fp64_path ? streaming_derate_fp64 : streaming_derate_fp32;
  }
};

/// One GCD of an MI250X module (the paper's single-GPU unit on
/// Frontier; §4.1.2 counts a single GCD as a single GPU).
DeviceSpec make_mi250x_gcd();
DeviceSpec make_mi300x();
DeviceSpec make_mi355x();

/// A neutral host-execution spec: no simulated time modelling beyond
/// byte counting; used by unit tests that only care about numerics.
DeviceSpec make_host_reference();

/// Lookup by case-insensitive name ("mi250x", "mi300x", "mi355x",
/// "host"); throws std::invalid_argument for unknown names.
DeviceSpec spec_by_name(const std::string& name);

}  // namespace fftmv::device
