#include "core/lockstep_cluster.hpp"

#include <algorithm>
#include <stdexcept>

#include "comm/tree_reduce.hpp"

namespace fftmv::core {

using precision::Precision;
using precision::PrecisionConfig;

LockstepCluster::LockstepCluster(device::Device& dev, device::Stream& stream,
                                 const ProblemDims& dims,
                                 const comm::ProcessGrid& grid,
                                 const std::vector<double>& global_first_block_col,
                                 MatvecOptions options)
    : dev_(&dev), stream_(&stream), dims_(dims), grid_(grid), options_(options) {
  dims_.validate();
  if (dims_.n_m % grid.cols() != 0 || dims_.n_d % grid.rows() != 0) {
    throw std::invalid_argument(
        "LockstepCluster: N_m and N_d must divide evenly over the grid");
  }
  const index_t p = grid_.size();
  local_dims_.reserve(static_cast<std::size_t>(p));
  ops_.reserve(static_cast<std::size_t>(p));
  for (index_t rank = 0; rank < p; ++rank) {
    local_dims_.push_back(LocalDims::for_rank(dims_, grid_, rank));
    const auto slice =
        slice_first_block_col(dims_, local_dims_.back(), global_first_block_col);
    ops_.push_back(std::make_unique<BlockToeplitzOperator>(dev, stream,
                                                           local_dims_.back(),
                                                           slice));
  }
  // Even splits guarantee identical local shapes, so one plan's
  // buffers serve every rank.
  plan_ = std::make_unique<FftMatvecPlan>(dev, stream, local_dims_[0], options_);
}

void LockstepCluster::forward(std::span<const double> m, std::span<double> d,
                              const PrecisionConfig& config) {
  run(m, d, config, /*adjoint=*/false);
}

void LockstepCluster::adjoint(std::span<const double> d, std::span<double> m,
                              const PrecisionConfig& config) {
  run(d, m, config, /*adjoint=*/true);
}

void LockstepCluster::run(std::span<const double> in, std::span<double> out,
                          const PrecisionConfig& config, bool adjoint) {
  const index_t nt = dims_.n_t;
  const index_t width_in = adjoint ? dims_.n_d : dims_.n_m;
  const index_t width_out = adjoint ? dims_.n_m : dims_.n_d;
  if (static_cast<index_t>(in.size()) != nt * width_in ||
      static_cast<index_t>(out.size()) != nt * width_out) {
    throw std::invalid_argument("LockstepCluster: global vector extent mismatch");
  }

  const Precision p5 = config.phase(precision::kPhaseUnpad);
  const index_t p = grid_.size();
  const index_t out_local = adjoint ? local_dims_[0].n_m_local
                                    : local_dims_[0].n_d_local;
  const index_t partial_len = nt * out_local;

  // Each rank's plain apply writes its phase-5 partial, rounded
  // through p5, as doubles.
  std::vector<std::vector<double>> partials(
      static_cast<std::size_t>(p),
      std::vector<double>(static_cast<std::size_t>(partial_len)));
  std::vector<double> global_in(in.begin(), in.end());
  max_rank_compute_s_ = 0.0;

  for (index_t rank = 0; rank < p; ++rank) {
    const LocalDims& l = local_dims_[static_cast<std::size_t>(rank)];
    const index_t in_off = adjoint ? l.d_offset : l.m_offset;
    const index_t in_cnt = adjoint ? l.n_d_local : l.n_m_local;
    const auto in_slice = slice_tosi(global_in, nt, width_in, in_off, in_cnt);
    const auto& op = *ops_[static_cast<std::size_t>(rank)];
    auto& partial = partials[static_cast<std::size_t>(rank)];
    const double t0 = stream_->now();
    if (adjoint) {
      plan_->adjoint(op, in_slice, partial, config);
    } else {
      plan_->forward(op, in_slice, partial, config);
    }
    max_rank_compute_s_ = std::max(max_rank_compute_s_, stream_->now() - t0);
  }

  // Phase-5 reduction in the phase-5 precision (a partial rounded
  // through single narrows to float exactly): for the forward matvec
  // partials combine across the grid row (the p_c column ranks of each
  // row); the adjoint combines down each grid column.  Pairwise-tree
  // order matches the threaded communicator exactly.
  const index_t n_groups = adjoint ? grid_.cols() : grid_.rows();
  const index_t group_size = adjoint ? grid_.rows() : grid_.cols();
  std::vector<double> reduced(static_cast<std::size_t>(partial_len));
  const auto reduce = [&](auto tag, const std::vector<index_t>& ranks) {
    using T = decltype(tag);
    std::vector<std::vector<T>> narrowed;
    narrowed.reserve(ranks.size());
    std::vector<const T*> members;
    for (const index_t rank : ranks) {
      const auto& partial = partials[static_cast<std::size_t>(rank)];
      narrowed.emplace_back(partial.begin(), partial.end());
      members.push_back(narrowed.back().data());
    }
    std::vector<T> sum(static_cast<std::size_t>(partial_len));
    comm::tree_reduce(members, sum.data(), partial_len);
    std::copy(sum.begin(), sum.end(), reduced.begin());
  };

  for (index_t g = 0; g < n_groups; ++g) {
    std::vector<index_t> ranks;
    for (index_t k = 0; k < group_size; ++k) {
      ranks.push_back(adjoint ? grid_.rank_of(k, g) : grid_.rank_of(g, k));
    }
    if (p5 == Precision::kDouble) {
      reduce(double{}, ranks);
    } else {
      reduce(float{}, ranks);
    }
    const auto& l = local_dims_[static_cast<std::size_t>(ranks.front())];
    const index_t out_off = adjoint ? l.m_offset : l.d_offset;
    for (index_t t = 0; t < nt; ++t) {
      for (index_t k = 0; k < out_local; ++k) {
        out[static_cast<std::size_t>(t * width_out + out_off + k)] =
            reduced[static_cast<std::size_t>(t * out_local + k)];
      }
    }
  }
}

}  // namespace fftmv::core
