#include "core/distributed_plan.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "comm/fault.hpp"
#include "core/synthetic.hpp"

namespace fftmv::core {

namespace {

double view_width(const precision::PrecisionConfig& config, int phase) {
  return config.phase(phase) == precision::Precision::kSingle ? 4.0 : 8.0;
}

/// Rank r's operator groups: the rank-r slice of every group's
/// operator, with the group's RHS count.
std::vector<FftMatvecPlan::OperatorGroup> rank_groups(
    std::span<const DistributedMatvecPlan::OperatorGroup> groups,
    ApplyDirection direction, index_t rank) {
  std::vector<FftMatvecPlan::OperatorGroup> slices;
  slices.reserve(groups.size());
  for (const auto& g : groups) {
    slices.push_back({&g.op->rank_op(direction, rank), g.rhs_count});
  }
  return slices;
}

}  // namespace

ShardedOperator::ShardedOperator(device::Device& dev, device::Stream& stream,
                                 const ProblemDims& dims, index_t ranks,
                                 std::span<const double> first_block_col)
    : dims_(dims), ranks_(ranks) {
  dims.validate();
  if (ranks < 1) {
    throw std::invalid_argument("ShardedOperator: ranks must be >= 1");
  }
  if (ranks > dims.n_d || ranks > dims.n_m) {
    throw std::invalid_argument(
        "ShardedOperator: ranks exceeds an output dimension (" +
        std::to_string(ranks) + " ranks for n_d=" + std::to_string(dims.n_d) +
        ", n_m=" + std::to_string(dims.n_m) + ")");
  }

  if (ranks == 1) {
    const LocalDims local = LocalDims::single_rank(dims);
    auto op =
        std::make_shared<BlockToeplitzOperator>(dev, stream, local, first_block_col);
    fwd_dims_.push_back(local);
    adj_dims_.push_back(local);
    fwd_ops_.push_back(op);
    adj_ops_.push_back(op);
    return;
  }

  // slice_first_block_col wants the global column as a vector; stage
  // it once (empty stays empty for phantom shapes).
  const std::vector<double> global_col(first_block_col.begin(),
                                       first_block_col.end());
  const comm::ProcessGrid fwd_grid(ranks, 1);  // forward: split sensors
  const comm::ProcessGrid adj_grid(1, ranks);  // adjoint: split parameters
  for (index_t r = 0; r < ranks; ++r) {
    const LocalDims fwd = LocalDims::for_rank(dims, fwd_grid, r);
    const LocalDims adj = LocalDims::for_rank(dims, adj_grid, r);
    fwd_dims_.push_back(fwd);
    adj_dims_.push_back(adj);
    if (global_col.empty()) {
      fwd_ops_.push_back(
          std::make_shared<BlockToeplitzOperator>(dev, stream, fwd, std::span<const double>{}));
      adj_ops_.push_back(
          std::make_shared<BlockToeplitzOperator>(dev, stream, adj, std::span<const double>{}));
    } else {
      const auto fwd_col = slice_first_block_col(dims, fwd, global_col);
      const auto adj_col = slice_first_block_col(dims, adj, global_col);
      fwd_ops_.push_back(
          std::make_shared<BlockToeplitzOperator>(dev, stream, fwd, fwd_col));
      adj_ops_.push_back(
          std::make_shared<BlockToeplitzOperator>(dev, stream, adj, adj_col));
    }
  }
}

std::size_t ShardedOperator::check(index_t rank) const {
  if (rank < 0 || rank >= ranks_) {
    throw std::out_of_range("ShardedOperator: rank out of range");
  }
  return static_cast<std::size_t>(rank);
}

void ShardedOperator::warm_spectrum_f(device::Stream& stream) {
  // With ranks == 1 both vectors alias one operator; the second call
  // hits the operator's cached copy.
  for (const auto& op : fwd_ops_) op->spectrum_f(stream);
  for (const auto& op : adj_ops_) op->spectrum_f(stream);
}

void ShardedOperator::warm_checksums(device::Stream& stream) {
  // A forward slice is only ever applied forward and an adjoint slice
  // only adjoint, so each list warms just its own direction (in the
  // ranks == 1 degenerate case the shared operator gets both).
  for (const auto& op : fwd_ops_) {
    op->checksum_d(stream, /*adjoint=*/false);
    op->checksum_f(stream, /*adjoint=*/false);
  }
  for (const auto& op : adj_ops_) {
    op->checksum_d(stream, /*adjoint=*/true);
    op->checksum_f(stream, /*adjoint=*/true);
  }
}

const ShardedOperator& DistributedMatvecPlan::validate_batch(
    std::span<const OperatorGroup> groups, ApplyDirection direction,
    std::span<const ConstVectorView> inputs,
    std::span<const VectorView> outputs,
    std::span<const RankLane> lanes) const {
  if (inputs.empty()) {
    throw std::invalid_argument(
        "DistributedMatvecPlan: need at least one right-hand side");
  }
  if (outputs.size() != inputs.size()) {
    throw std::invalid_argument(
        "DistributedMatvecPlan: inputs/outputs count mismatch");
  }
  if (groups.empty()) {
    throw std::invalid_argument(
        "DistributedMatvecPlan: need at least one operator group");
  }
  // The rank slices follow from (ranks, global dims) alone, so groups
  // sharing both share every slice shape; each rank plan then checks
  // its own operators against its dims.
  for (const auto& g : groups) {
    if (g.op == nullptr || g.op->ranks() != groups.front().op->ranks() ||
        g.op->dims() != groups.front().op->dims()) {
      throw std::invalid_argument(
          "DistributedMatvecPlan: operator groups must share one placement");
    }
  }
  const ShardedOperator& placement = *groups.front().op;
  const index_t ranks = placement.ranks();
  if (static_cast<index_t>(lanes.size()) != ranks) {
    throw std::invalid_argument(
        "DistributedMatvecPlan: need one RankLane per shard rank");
  }
  for (index_t r = 0; r < ranks; ++r) {
    if (lanes[r].plan == nullptr) {
      throw std::invalid_argument("DistributedMatvecPlan: null rank plan");
    }
    if (!(lanes[r].plan->dims() == placement.rank_dims(direction, r))) {
      throw std::invalid_argument(
          "DistributedMatvecPlan: rank plan dims do not match the shard");
    }
  }
  return placement;
}

void DistributedMatvecPlan::apply_batch(
    std::span<const OperatorGroup> groups, ApplyDirection direction,
    const precision::PrecisionConfig& config,
    std::span<const ConstVectorView> inputs,
    std::span<const VectorView> outputs,
    std::span<const RankLane> lanes, CommMode mode, index_t pipeline_chunks,
    VerifyMode verify) {
  const index_t b = static_cast<index_t>(inputs.size());
  const ShardedOperator& placement =
      validate_batch(groups, direction, inputs, outputs, lanes);
  const index_t ranks = placement.ranks();

  if (ranks == 1) {
    // Degenerate placement: byte-for-byte the single-rank grouped
    // batch, zero communication charged.
    FftMatvecPlan& plan = *lanes[0].plan;
    plan.apply_batch(rank_groups(groups, direction, 0), direction, config,
                     inputs, outputs,
                     BatchPipeline{pipeline_chunks, lanes[0].aux, verify});
    timings_ = plan.last_timings();
    rhs_timings_ = plan.last_batch_timings();
    return;
  }

  const bool adjoint = direction == ApplyDirection::kAdjoint;
  const ProblemDims& dims = placement.dims();
  const index_t nt = dims.n_t;
  const index_t ns_in = adjoint ? dims.n_d : dims.n_m;
  const index_t ns_out = adjoint ? dims.n_m : dims.n_d;
  device::Device& dev = lanes[0].plan->stream().device();
  const bool phantom = dev.phantom();

  // Fault consult at the entry collective: a down rank aborts the
  // sharded dispatch before any compute or communication is charged,
  // so the caller can re-dispatch on the degraded single-survivor
  // path with bit-identical results.
  if (device::FaultPlan* faults = dev.fault_plan()) {
    const index_t down = faults->on_group_sync(ranks);
    if (down >= 0) throw comm::RankFailure(down, ranks);
  }

  // Collective bill through the shared cost-model path.  Batched mode
  // moves the whole batch's payload in ONE broadcast and ONE gather;
  // per-request mode (the ablation) pays the alpha terms b times.
  const comm::CommCostModel net(network_);
  const double in_bytes = static_cast<double>(nt * ns_in) *
                          view_width(config, precision::kPhasePad);
  const double out_bytes = static_cast<double>(nt * ns_out) *
                           view_width(config, precision::kPhaseUnpad);
  comm::MatvecCollectives coll;
  if (mode == CommMode::kBatched) {
    coll = net.rank_group_collectives(ranks, static_cast<double>(b) * in_bytes,
                                      static_cast<double>(b) * out_bytes);
  } else {
    const auto per = net.rank_group_collectives(ranks, in_bytes, out_bytes);
    coll.broadcast_s = static_cast<double>(b) * per.broadcast_s;
    coll.reduce_s = static_cast<double>(b) * per.reduce_s;
  }

  // Collectives are bulk-synchronous: every rank stream first catches
  // up to the group's latest clock (idle jump), then all are charged
  // the collective's duration together, staying in lockstep.
  const auto sync_group = [&lanes]() {
    const device::Stream* latest = nullptr;
    for (const auto& lane : lanes) {
      const device::Stream& s = lane.plan->stream();
      if (latest == nullptr || s.now() > latest->now()) latest = &s;
      if (lane.aux != nullptr && lane.aux->now() > latest->now()) {
        latest = lane.aux;
      }
    }
    device::Event e;
    e.record(*latest);
    for (const auto& lane : lanes) {
      lane.plan->stream().wait(e);
      if (lane.aux != nullptr) lane.aux->wait(e);
    }
    return e.seconds();
  };

  const double t_start = sync_group();
  for (const auto& lane : lanes) lane.plan->stream().advance(coll.broadcast_s);

  run_rank_slices(groups, direction, config, inputs, lanes, pipeline_chunks,
                  verify, phantom);

  sync_group();
  for (const auto& lane : lanes) lane.plan->stream().advance(coll.reduce_s);
  const double t_end = sync_group();

  // Assemble: per-rank output slices have disjoint support, so the
  // gather is plain copies into the caller's vectors (already billed
  // above at the reduce tariff).
  assemble_outputs(placement, direction, outputs, phantom);

  // Group accounting: phase fields stay the ranks' summed busy time
  // (serial-equivalent), comm is the collective bill charged once, and
  // the makespan is the group's end-to-end window.
  timings_.comm = coll.total();
  timings_.makespan = t_end - t_start;
  const double comm_share = coll.total() / static_cast<double>(b);
  const double span_share = timings_.makespan / static_cast<double>(b);
  for (auto& share : rhs_timings_) {
    share.comm = comm_share;
    share.makespan = span_share;
  }
}

void DistributedMatvecPlan::apply_batch_degraded(
    std::span<const OperatorGroup> groups, ApplyDirection direction,
    const precision::PrecisionConfig& config,
    std::span<const ConstVectorView> inputs,
    std::span<const VectorView> outputs, std::span<const RankLane> lanes,
    index_t pipeline_chunks, VerifyMode verify) {
  const index_t b = static_cast<index_t>(inputs.size());
  const ShardedOperator& placement =
      validate_batch(groups, direction, inputs, outputs, lanes);
  const bool phantom = lanes[0].plan->stream().device().phantom();

  // Survivor-local window: with all lanes bound to one stream (pair)
  // the slices serialize and the makespan is the survivor's elapsed
  // clock; no sync, no collective charge.
  const auto group_now = [&lanes]() {
    double t = 0.0;
    for (const auto& lane : lanes) {
      t = std::max(t, lane.plan->stream().now());
      if (lane.aux != nullptr) t = std::max(t, lane.aux->now());
    }
    return t;
  };

  const double t_start = group_now();
  run_rank_slices(groups, direction, config, inputs, lanes, pipeline_chunks,
                  verify, phantom);
  const double t_end = group_now();
  assemble_outputs(placement, direction, outputs, phantom);

  timings_.comm = 0.0;
  timings_.makespan = t_end - t_start;
  const double span_share = timings_.makespan / static_cast<double>(b);
  for (auto& share : rhs_timings_) {
    share.comm = 0.0;
    share.makespan = span_share;
  }
}

void DistributedMatvecPlan::run_rank_slices(
    std::span<const OperatorGroup> groups, ApplyDirection direction,
    const precision::PrecisionConfig& config,
    std::span<const ConstVectorView> inputs, std::span<const RankLane> lanes,
    index_t pipeline_chunks, VerifyMode verify, bool phantom) {
  const ShardedOperator& placement = *groups.front().op;
  const index_t b = static_cast<index_t>(inputs.size());
  const index_t ranks = placement.ranks();
  const bool adjoint = direction == ApplyDirection::kAdjoint;
  const index_t nt = placement.dims().n_t;

  timings_ = PhaseTimings{};
  rhs_timings_.assign(static_cast<std::size_t>(b), PhaseTimings{});
  if (stage_.size() < static_cast<std::size_t>(ranks)) {
    stage_.resize(static_cast<std::size_t>(ranks));
  }

  std::vector<VectorView> rank_outputs(static_cast<std::size_t>(b));
  for (index_t r = 0; r < ranks; ++r) {
    const LocalDims& local = placement.rank_dims(direction, r);
    const index_t out_elems =
        nt * (adjoint ? local.n_m_local : local.n_d_local);
    if (!phantom) {
      auto& stage = stage_[static_cast<std::size_t>(r)];
      const std::size_t need = static_cast<std::size_t>(b * out_elems);
      if (stage.size() < need) stage.resize(need);
      for (index_t i = 0; i < b; ++i) {
        rank_outputs[static_cast<std::size_t>(i)] =
            VectorView{stage.data() + i * out_elems,
                       static_cast<std::size_t>(out_elems)};
      }
    } else {
      std::fill(rank_outputs.begin(), rank_outputs.end(), VectorView{});
    }

    FftMatvecPlan& plan = *lanes[r].plan;
    plan.apply_batch(rank_groups(groups, direction, r), direction, config,
                     inputs, rank_outputs,
                     BatchPipeline{pipeline_chunks, lanes[r].aux, verify});
    timings_ += plan.last_timings();
    const auto& shares = plan.last_batch_timings();
    for (index_t i = 0; i < b; ++i) {
      rhs_timings_[static_cast<std::size_t>(i)] +=
          shares[static_cast<std::size_t>(i)];
    }
  }
}

void DistributedMatvecPlan::assemble_outputs(
    const ShardedOperator& placement, ApplyDirection direction,
    std::span<const VectorView> outputs, bool phantom) const {
  if (phantom) return;
  const index_t b = static_cast<index_t>(outputs.size());
  const index_t ranks = placement.ranks();
  const bool adjoint = direction == ApplyDirection::kAdjoint;
  const ProblemDims& dims = placement.dims();
  const index_t nt = dims.n_t;
  const index_t ns_out = adjoint ? dims.n_m : dims.n_d;
  for (index_t i = 0; i < b; ++i) {
    double* out = outputs[static_cast<std::size_t>(i)].data();
    for (index_t r = 0; r < ranks; ++r) {
      const LocalDims& local = placement.rank_dims(direction, r);
      const index_t offset = adjoint ? local.m_offset : local.d_offset;
      const index_t count = adjoint ? local.n_m_local : local.n_d_local;
      const index_t out_elems = nt * count;
      const double* slice =
          stage_[static_cast<std::size_t>(r)].data() + i * out_elems;
      for (index_t t = 0; t < nt; ++t) {
        const double* src = slice + t * count;
        double* dst = out + t * ns_out + offset;
        std::copy(src, src + count, dst);
      }
    }
  }
}

}  // namespace fftmv::core
