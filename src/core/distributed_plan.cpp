#include "core/distributed_plan.hpp"

#include <algorithm>
#include <stdexcept>

#include "comm/fault.hpp"
#include "comm/tree_reduce.hpp"
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

/// dst = pairwise-tree sum of the partials, computed in T.  A partial
/// is a rank's phase-5 output, already rounded through the phase-5
/// precision, so narrowing it to T is exact.
template <class T>
void reduce_partials(const std::vector<const double*>& partials,
                     index_t count, double* dst) {
  std::vector<std::vector<T>> narrowed;
  std::vector<const T*> members;
  narrowed.reserve(partials.size());
  for (const double* partial : partials) {
    narrowed.emplace_back(partial, partial + count);
    members.push_back(narrowed.back().data());
  }
  std::vector<T> sum(static_cast<std::size_t>(count));
  comm::tree_reduce(members, sum.data(), count);
  std::copy(sum.begin(), sum.end(), dst);
}

}  // namespace

ShardedOperator::ShardedOperator(device::Device& dev, device::Stream& stream,
                                 const ProblemDims& dims,
                                 const comm::ProcessGrid& grid,
                                 std::span<const double> first_block_col)
    : ShardedOperator(dev, stream, dims, grid, grid, first_block_col) {}

ShardedOperator::ShardedOperator(device::Device& dev, device::Stream& stream,
                                 const ProblemDims& dims, index_t ranks,
                                 std::span<const double> first_block_col)
    : ShardedOperator(dev, stream, dims, comm::ProcessGrid(ranks, 1),
                      comm::ProcessGrid(1, ranks), first_block_col) {}

ShardedOperator::ShardedOperator(device::Device& dev, device::Stream& stream,
                                 const ProblemDims& dims,
                                 const comm::ProcessGrid& fwd_grid,
                                 const comm::ProcessGrid& adj_grid,
                                 std::span<const double> first_block_col)
    : dims_(dims), fwd_grid_(fwd_grid), adj_grid_(adj_grid) {
  // Every slice gathers its block from the caller's global column.
  const auto build = [&](const LocalDims& local) {
    return std::make_shared<BlockToeplitzOperator>(dev, stream, local,
                                                   first_block_col);
  };
  const bool shared = fwd_grid == adj_grid;
  for (index_t r = 0; r < fwd_grid.size(); ++r) {
    fwd_dims_.push_back(LocalDims::for_rank(dims, fwd_grid, r));
    adj_dims_.push_back(LocalDims::for_rank(dims, adj_grid, r));
    fwd_ops_.push_back(build(fwd_dims_.back()));
    adj_ops_.push_back(shared ? fwd_ops_.back() : build(adj_dims_.back()));
  }
}

std::size_t ShardedOperator::check(index_t rank) const {
  if (rank < 0 || rank >= ranks()) {
    throw std::out_of_range("ShardedOperator: rank out of range");
  }
  return static_cast<std::size_t>(rank);
}

void ShardedOperator::warm_spectrum_f(device::Stream& stream) {
  // When both directions share a grid the two lists alias one
  // operator per rank; the second call hits its cached copy.
  for (const auto& op : fwd_ops_) op->spectrum_f(stream);
  for (const auto& op : adj_ops_) op->spectrum_f(stream);
}

void ShardedOperator::warm_checksums(device::Stream& stream) {
  // A forward slice is only ever applied forward and an adjoint slice
  // only adjoint, so each list warms just its own direction (an
  // operator both lists share gets both).
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
    std::span<FftMatvecPlan* const> plans) const {
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
  // The rank slices follow from (grid, global dims) alone, so groups
  // sharing both share every slice shape; each rank plan then checks
  // its own operators against its dims.
  index_t grouped_rhs = 0;
  for (const auto& g : groups) {
    if (g.op == nullptr ||
        g.op->grid(direction) != groups.front().op->grid(direction) ||
        g.op->dims() != groups.front().op->dims()) {
      throw std::invalid_argument(
          "DistributedMatvecPlan: operator groups must share one placement");
    }
    if (g.rhs_count < 1) {
      throw std::invalid_argument(
          "DistributedMatvecPlan: every group needs >= 1 RHS");
    }
    grouped_rhs += g.rhs_count;
  }
  if (grouped_rhs != static_cast<index_t>(inputs.size())) {
    throw std::invalid_argument(
        "DistributedMatvecPlan: group RHS counts do not sum to the input count");
  }
  const ShardedOperator& placement = *groups.front().op;
  const index_t ranks = placement.ranks();
  if (static_cast<index_t>(plans.size()) != ranks) {
    throw std::invalid_argument(
        "DistributedMatvecPlan: need one plan per shard rank");
  }
  for (index_t r = 0; r < ranks; ++r) {
    if (plans[r] == nullptr) {
      throw std::invalid_argument("DistributedMatvecPlan: null rank plan");
    }
    if (!plans[r]->dims().same_extents(placement.rank_dims(direction, r))) {
      throw std::invalid_argument(
          "DistributedMatvecPlan: rank plan dims do not match the shard");
    }
  }
  // Vector extents at the global dims, before any fault consult,
  // sync, charge or staging reads or writes a caller's vector.
  if (!plans[0]->stream().device().phantom()) {
    const ProblemDims& dims = placement.dims();
    const bool adjoint = direction == ApplyDirection::kAdjoint;
    const auto in_len =
        static_cast<std::size_t>(dims.n_t * (adjoint ? dims.n_d : dims.n_m));
    const auto out_len =
        static_cast<std::size_t>(dims.n_t * (adjoint ? dims.n_m : dims.n_d));
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if (inputs[i].size() != in_len || outputs[i].size() != out_len) {
        throw std::invalid_argument(
            "DistributedMatvecPlan: input or output span has wrong extent");
      }
    }
  }
  return placement;
}

void DistributedMatvecPlan::apply_batch(
    std::span<const OperatorGroup> groups, ApplyDirection direction,
    const precision::PrecisionConfig& config,
    std::span<const ConstVectorView> inputs,
    std::span<const VectorView> outputs,
    std::span<FftMatvecPlan* const> plans, CommMode mode, VerifyMode verify) {
  const index_t b = static_cast<index_t>(inputs.size());
  const ShardedOperator& placement =
      validate_batch(groups, direction, inputs, outputs, plans);
  const index_t ranks = placement.ranks();
  const bool adjoint = direction == ApplyDirection::kAdjoint;
  const comm::ProcessGrid& grid = placement.grid(direction);
  if ((adjoint ? grid.rows() : grid.cols()) > 1) {
    throw std::invalid_argument(
        "DistributedMatvecPlan: apply_batch charges an output split only; "
        "ranks sharing output slices run through apply_batch_serial");
  }

  if (ranks == 1) {
    // Degenerate placement: byte-for-byte the single-rank grouped
    // batch, zero communication charged.
    FftMatvecPlan& plan = *plans[0];
    plan.apply_batch(rank_groups(groups, direction, 0), direction, config,
                     inputs, outputs, verify);
    timings_ = plan.last_timings();
    rhs_timings_ = plan.last_batch_timings();
    return;
  }

  const ProblemDims& dims = placement.dims();
  const index_t nt = dims.n_t;
  const index_t ns_in = adjoint ? dims.n_d : dims.n_m;
  const index_t ns_out = adjoint ? dims.n_m : dims.n_d;
  device::Device& dev = plans[0]->stream().device();
  const bool phantom = dev.phantom();

  // Fault consult at the entry collective: a down rank aborts the
  // sharded dispatch before any compute or communication is charged,
  // so the caller can re-dispatch through apply_batch_serial with
  // bit-identical results.
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
  const auto sync_group = [&plans]() {
    const device::Stream* latest = nullptr;
    for (const FftMatvecPlan* plan : plans) {
      const device::Stream& s = plan->stream();
      if (latest == nullptr || s.now() > latest->now()) latest = &s;
    }
    device::Event e;
    e.record(*latest);
    for (const FftMatvecPlan* plan : plans) plan->stream().wait(e);
    return e.seconds();
  };

  const double t_start = sync_group();
  for (const FftMatvecPlan* plan : plans) plan->stream().advance(coll.broadcast_s);

  run_rank_slices(groups, direction, config, inputs, plans, verify, phantom);

  sync_group();
  for (const FftMatvecPlan* plan : plans) plan->stream().advance(coll.reduce_s);
  const double t_end = sync_group();

  // Assemble: each output slice has one owner here, so the gather is
  // plain copies into the caller's vectors (billed above at the
  // reduce tariff).
  assemble_outputs(placement, direction, config.phase(precision::kPhaseUnpad),
                   outputs, phantom);

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

void DistributedMatvecPlan::apply_batch_serial(
    std::span<const OperatorGroup> groups, ApplyDirection direction,
    const precision::PrecisionConfig& config,
    std::span<const ConstVectorView> inputs,
    std::span<const VectorView> outputs, std::span<FftMatvecPlan* const> plans,
    VerifyMode verify) {
  const index_t b = static_cast<index_t>(inputs.size());
  const ShardedOperator& placement =
      validate_batch(groups, direction, inputs, outputs, plans);
  const bool phantom = plans[0]->stream().device().phantom();

  // Local window: with all plans bound to one stream the slices
  // serialize and the makespan is that stream's elapsed clock; no
  // sync, no collective charge.
  const auto group_now = [&plans]() {
    double t = 0.0;
    for (const FftMatvecPlan* plan : plans) t = std::max(t, plan->stream().now());
    return t;
  };

  const double t_start = group_now();
  run_rank_slices(groups, direction, config, inputs, plans, verify, phantom);
  const double t_end = group_now();
  assemble_outputs(placement, direction, config.phase(precision::kPhaseUnpad),
                   outputs, phantom);

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
    std::span<const ConstVectorView> inputs,
    std::span<FftMatvecPlan* const> plans, VerifyMode verify, bool phantom) {
  const ShardedOperator& placement = *groups.front().op;
  const index_t b = static_cast<index_t>(inputs.size());
  const index_t ranks = placement.ranks();
  const bool adjoint = direction == ApplyDirection::kAdjoint;
  const index_t nt = placement.dims().n_t;
  const index_t ns_in = adjoint ? placement.dims().n_d : placement.dims().n_m;

  timings_ = PhaseTimings{};
  rhs_timings_.assign(static_cast<std::size_t>(b), PhaseTimings{});
  if (stage_.size() < static_cast<std::size_t>(ranks)) {
    stage_.resize(static_cast<std::size_t>(ranks));
  }

  std::vector<std::vector<double>> staged(static_cast<std::size_t>(b));
  std::vector<ConstVectorView> staged_views(staged.size());
  std::vector<VectorView> rank_outputs(static_cast<std::size_t>(b));
  for (index_t r = 0; r < ranks; ++r) {
    const LocalDims& local = placement.rank_dims(direction, r);
    const index_t in_count = adjoint ? local.n_d_local : local.n_m_local;
    const index_t out_elems =
        nt * (adjoint ? local.n_m_local : local.n_d_local);
    std::span<const ConstVectorView> rank_inputs = inputs;
    if (!phantom) {
      // A rank narrower than the input (a grid column forward, a grid
      // row adjoint) reads a staged copy of its slice of each input;
      // an output-split rank reads the caller's vectors.
      if (in_count < ns_in) {
        const index_t in_offset = adjoint ? local.d_offset : local.m_offset;
        for (std::size_t i = 0; i < staged.size(); ++i) {
          staged[i] = slice_tosi(inputs[i], nt, ns_in, in_offset, in_count);
          staged_views[i] = staged[i];
        }
        rank_inputs = staged_views;
      }
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

    FftMatvecPlan& plan = *plans[r];
    plan.apply_batch(rank_groups(groups, direction, r), direction, config,
                     rank_inputs, rank_outputs, verify);
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
    precision::Precision p5, std::span<const VectorView> outputs,
    bool phantom) const {
  if (phantom) return;
  const index_t b = static_cast<index_t>(outputs.size());
  const bool adjoint = direction == ApplyDirection::kAdjoint;
  const index_t nt = placement.dims().n_t;
  const index_t ns_out = adjoint ? placement.dims().n_m : placement.dims().n_d;
  // The owners of output slice s in increasing rank order: grid row s
  // forward, grid column s adjoint.
  const comm::ProcessGrid& grid = placement.grid(direction);
  const index_t slices = adjoint ? grid.cols() : grid.rows();
  const index_t owners = adjoint ? grid.rows() : grid.cols();
  const auto owner = [&](index_t s, index_t k) {
    return adjoint ? grid.rank_of(k, s) : grid.rank_of(s, k);
  };
  std::vector<const double*> partials(static_cast<std::size_t>(owners));
  std::vector<double> reduced;
  for (index_t s = 0; s < slices; ++s) {
    const LocalDims& local = placement.rank_dims(direction, owner(s, 0));
    const index_t offset = adjoint ? local.m_offset : local.d_offset;
    const index_t count = adjoint ? local.n_m_local : local.n_d_local;
    const index_t out_elems = nt * count;
    for (index_t i = 0; i < b; ++i) {
      for (index_t k = 0; k < owners; ++k) {
        partials[static_cast<std::size_t>(k)] =
            stage_[static_cast<std::size_t>(owner(s, k))].data() +
            i * out_elems;
      }
      // One owner: a plain copy, which keeps a -0.0 output's sign.
      // Several: the paper's reduction of the partials in the phase-5
      // precision.
      const double* src = partials.front();
      if (owners > 1) {
        reduced.resize(static_cast<std::size_t>(out_elems));
        if (p5 == precision::Precision::kDouble) {
          reduce_partials<double>(partials, out_elems, reduced.data());
        } else {
          reduce_partials<float>(partials, out_elems, reduced.data());
        }
        src = reduced.data();
      }
      double* out = outputs[static_cast<std::size_t>(i)].data();
      for (index_t t = 0; t < nt; ++t) {
        std::copy(src + t * count, src + (t + 1) * count,
                  out + t * ns_out + offset);
      }
    }
  }
}

}  // namespace fftmv::core
