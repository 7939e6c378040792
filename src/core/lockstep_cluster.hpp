// Sequential simulation of a multi-rank FFTMatvec run.
//
// A thread per rank stops scaling long before the paper's 4,096 GPUs.
// LockstepCluster executes the distributed algorithm rank by rank on
// one device: each rank's five phases are a plain FftMatvecPlan apply
// of its slice, whose double output holds the rank's phase-5 partial
// exactly (phase 5 rounds through its precision), and the
// reduction combines those partials in the phase-5 precision in the
// thread communicator's pairwise-tree order (comm/tree_reduce.hpp).
// Numerics — in particular the distribution-dependent rounding the
// paper's Figure 4 error series measures (n_m = ceil(N_m/p_c) growth,
// log2(p) reduction depth) — are therefore bit-identical to a run on
// rank threads (the threaded reference in
// tests/test_core_distributed.cpp) at any rank count that fits in
// memory.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "comm/process_grid.hpp"
#include "core/block_toeplitz.hpp"
#include "core/matvec_plan.hpp"
#include "core/synthetic.hpp"

namespace fftmv::core {

class LockstepCluster {
 public:
  /// `global_first_block_col` is the global time-outer (n_t, N_d,
  /// N_m) operator column; each rank's slice is extracted and set up
  /// independently, exactly as ranks would do on their own data.
  LockstepCluster(device::Device& dev, device::Stream& stream,
                  const ProblemDims& dims, const comm::ProcessGrid& grid,
                  const std::vector<double>& global_first_block_col,
                  MatvecOptions options = {});

  const comm::ProcessGrid& grid() const { return grid_; }
  const ProblemDims& dims() const { return dims_; }

  /// Global d = F m: `m` is the global TOSI (n_t x N_m) input, `d`
  /// the global TOSI (n_t x N_d) output.
  void forward(std::span<const double> m, std::span<double> d,
               const precision::PrecisionConfig& config);

  /// Global m = F* d.
  void adjoint(std::span<const double> d, std::span<double> m,
               const precision::PrecisionConfig& config);

  /// Maximum per-rank compute time of the last apply (the simulated
  /// critical path, excluding communication).
  double max_rank_compute_seconds() const { return max_rank_compute_s_; }

 private:
  void run(std::span<const double> in, std::span<double> out,
           const precision::PrecisionConfig& config, bool adjoint);

  device::Device* dev_;
  device::Stream* stream_;
  ProblemDims dims_;
  comm::ProcessGrid grid_;
  MatvecOptions options_;
  std::vector<LocalDims> local_dims_;                       // per rank
  std::vector<std::unique_ptr<BlockToeplitzOperator>> ops_;  // per rank
  std::unique_ptr<FftMatvecPlan> plan_;                      // shared buffers
  double max_rank_compute_s_ = 0.0;
};

}  // namespace fftmv::core
