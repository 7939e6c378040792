#include "device/cost_model.hpp"

#include <algorithm>
#include <cmath>

#include "util/math.hpp"

namespace fftmv::device {

KernelTiming CostModel::kernel_time(const LaunchGeometry& geom,
                                    const KernelFootprint& fp) const {
  KernelTiming t;
  const index_t blocks = std::max<index_t>(1, geom.total_blocks());

  // Effective streaming bandwidth for this kernel.
  const double derate = spec_.streaming_derate(fp.fp64_path) *
                        spec_.vector_load_derate(fp.vector_load_bytes) *
                        fp.coalescing_efficiency;
  const double bw = spec_.peak_bandwidth_gbps * 1e9 * derate;

  // Peak arithmetic throughput for the roofline term.
  const double flops_peak =
      (fp.fp64_path ? spec_.fp64_tflops : spec_.fp32_tflops) * 1e12;

  // Wave quantisation over the CU array.
  const index_t slots = std::max<index_t>(1, spec_.num_cus);
  t.waves = util::ceil_div(blocks, slots);

  // Per-block times.  Memory traffic is split evenly across blocks
  // (the strided batched kernels are uniform); one wave of blocks
  // shares the full device bandwidth.
  const double bytes_per_block = fp.total_bytes() / static_cast<double>(blocks);
  const double flops_per_block = fp.flops / static_cast<double>(blocks);
  const double per_block_bw = bw / static_cast<double>(slots);
  const double per_block_flops = flops_peak / static_cast<double>(slots);

  const double t_mem = bytes_per_block / per_block_bw;
  const double t_cmp = flops_per_block / per_block_flops;
  const double t_work = std::max(t_mem, t_cmp);
  const double floor = spec_.block_residency_floor_s * fp.residency_weight;
  const double t_block = std::max(t_work, floor);
  t.residency_bound = floor > t_work;

  t.seconds = spec_.launch_overhead_s +
              static_cast<double>(t.waves) * t_block;
  const double exec = t.seconds;
  t.achieved_bandwidth_gbps = exec > 0.0 ? fp.total_bytes() / exec / 1e9 : 0.0;
  return t;
}

}  // namespace fftmv::device
