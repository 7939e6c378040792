// Sharded batched matvec: one tenant's operator partitioned along the
// block dimension across a group of simulated ranks, with the
// collectives fused across the WHOLE right-hand-side batch.
//
// Partitioning is direction-dependent and always splits the OUTPUT
// spatial dimension, because that is the split that keeps outputs
// bit-identical to the single-rank apply in every precision config:
//
//   forward (d = F m):  rank r owns the sensor rows [d_r, d_r+n_d_r)
//     of every block — LocalDims{global, n_m, n_d_r, 0, d_r} on a
//     (R, 1) grid.  Phases 1-2 run on the full input (every rank
//     holds it after the broadcast), the phase-3 GEMV computes
//     full-width dot products for the rank's rows in exactly the
//     single-rank accumulation order, and phases 4-5 touch only the
//     rank's output slice.
//   adjoint (m = F* d): rank r owns the parameter columns
//     [m_r, m_r+n_m_r) — LocalDims{global, n_m_r, n_d, m_r, 0} on a
//     (1, R) grid — with the mirrored argument.
//
// Per-rank outputs therefore have DISJOINT support and the "tree
// reduce of partial outputs" degenerates to a gather: assembly is
// implemented as copies (summing zero-padded partials would flip the
// sign bit of a -0.0 output, the one way IEEE addition with zero is
// not the identity) while the simulated time is charged at the cost
// model's reduce tariff through the shared
// comm::CommCostModel::rank_group_collectives path.  The price of
// bit-identity is that phases 1-2 are duplicated on every rank (the
// input is not split) and each direction needs its own operator
// slice, ~2x operator storage; the paper-style input split — which
// would make partial sums meet in a real reduction and change
// rounding — stays the job of LockstepCluster.
//
// Bit-identity also needs the phase-3 GEMV kernel KIND to agree
// between the slice and the full operator, since the reference and
// optimized transpose kernels accumulate in different orders.  The
// rule: FftMatvecPlan resolves GemvKernelPolicy::kAuto from the
// GLOBAL dims (LocalDims::global), never from its slice, so every
// rank plan runs the kernel the unsliced operator would.  (Forward
// always dispatches the reference N kernel; for the adjoint a
// slice-local choice would flip once n_d > 1024 — tested at
// n_d = 1025.)
//
// Comm fusion (the tentpole's amortization move, PR 3 applied to the
// network): CommMode::kBatched charges ONE broadcast of all b inputs
// and ONE gather of all b outputs per batch; CommMode::kPerRequest
// charges b of each (the ablation bench/serve_scaling gates against).
// Compute is identical in both modes — the ablation isolates the
// alpha amortization of the collectives.
//
// A batch may span several operators of one placement (same rank
// count, same global dims), mirroring FftMatvecPlan's operator
// groups: rank r runs ONE grouped apply_batch over the rank-r slice
// of every group's operator.  The serving layer places every tenant
// this way — an unsharded tenant is a 1-rank placement, whose
// apply_batch is exactly the single-rank grouped apply — so a
// cross-tenant batch and a sharded batch take the same dispatch path.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "comm/cost_model.hpp"
#include "core/block_toeplitz.hpp"
#include "core/matvec_plan.hpp"
#include "core/problem.hpp"

namespace fftmv::core {

/// How a sharded apply charges collective time: fused once per batch
/// (the production mode) or once per right-hand side (the ablation).
enum class CommMode : unsigned char { kBatched, kPerRequest };

/// One tenant's operator sliced for a group of `ranks` simulated
/// ranks, both directions: rank r's forward slice is the sensor-row
/// range of every block, its adjoint slice the parameter-column
/// range (see the header comment).  Slicing happens in the time
/// domain (slice_first_block_col) before the setup FFT, and the FFT
/// of each block entry's time series is independent of its
/// neighbours, so a slice's spectrum entries are bit-identical to the
/// corresponding entries of the full operator's spectrum.  With
/// ranks == 1 both directions share one unsliced operator.
class ShardedOperator {
 public:
  /// `first_block_col` is the global time-outer (n_t, n_d, n_m)
  /// column; empty builds unbacked slices (phantom cost-model runs).
  /// Throws std::invalid_argument when `ranks` < 1 or exceeds either
  /// output dimension (a rank with an empty slice would serve no
  /// purpose and LocalDims refuses the split).
  ShardedOperator(device::Device& dev, device::Stream& stream,
                  const ProblemDims& dims, index_t ranks,
                  std::span<const double> first_block_col);

  index_t ranks() const { return ranks_; }
  const ProblemDims& dims() const { return dims_; }

  const LocalDims& rank_dims(ApplyDirection direction, index_t rank) const {
    return direction == ApplyDirection::kForward ? fwd_dims_[check(rank)]
                                                 : adj_dims_[check(rank)];
  }
  const BlockToeplitzOperator& rank_op(ApplyDirection direction,
                                       index_t rank) const {
    return direction == ApplyDirection::kForward ? *fwd_ops_[check(rank)]
                                                 : *adj_ops_[check(rank)];
  }

  /// Materialise every slice's single-precision spectrum (serve's
  /// registration-time warm, so the lazily-cast copy is never raced
  /// on the request path).
  void warm_spectrum_f(device::Stream& stream);

  /// Materialise every slice's ABFT checksum vectors (both precisions,
  /// both directions) — the verify-mode analogue of warm_spectrum_f,
  /// so request-path applies never build checksums lazily under
  /// concurrency.
  void warm_checksums(device::Stream& stream);

 private:
  std::size_t check(index_t rank) const;

  ProblemDims dims_;
  index_t ranks_ = 1;
  std::vector<LocalDims> fwd_dims_, adj_dims_;
  // shared_ptr so the 1-rank degenerate case stores one operator once.
  std::vector<std::shared_ptr<BlockToeplitzOperator>> fwd_ops_, adj_ops_;
};

/// Orchestrates one sharded apply_batch over borrowed per-rank
/// execution resources.  The plan owns only grow-only host staging
/// for the per-rank output slices; the per-rank FftMatvecPlans and
/// streams are the caller's (the serving layer acquires them from its
/// PlanCache, benches and tests construct their own), so one
/// DistributedMatvecPlan instance can serve any tenant of any shape.
class DistributedMatvecPlan {
 public:
  /// Rank r's borrowed resources: a plan whose dims equal the
  /// placement's rank_dims(direction, r), driving its own stream (the
  /// plan's construction stream); `aux` optionally carries the
  /// chunked dual-stream pipeline for the rank's slice.
  struct RankLane {
    FftMatvecPlan* plan = nullptr;
    device::Stream* aux = nullptr;
  };

  /// One operator's contiguous slice of a grouped batch (mirrors
  /// FftMatvecPlan::OperatorGroup): `rhs_count` right-hand sides
  /// applied through `op`.  Every group's operator must share one
  /// placement — the same ranks() and the same global dims — so the
  /// rank slices, and the rank plans that run them, are common to all
  /// groups.
  struct OperatorGroup {
    const ShardedOperator* op = nullptr;
    index_t rhs_count = 0;
  };

  explicit DistributedMatvecPlan(comm::NetworkSpec network)
      : network_(network) {}

  /// Apply b right-hand sides through the grouped operators, ordered
  /// group by group as in FftMatvecPlan's grouped apply_batch.  With a
  /// 1-rank placement this short-circuits to the single-rank grouped
  /// apply_batch — zero communication charged, byte-for-byte the
  /// non-distributed path.  Otherwise: every rank stream first syncs
  /// to the group's latest clock (collectives are bulk-synchronous),
  /// the input broadcast is charged on all rank streams (fused across
  /// the batch in kBatched mode), each rank runs ONE fused grouped
  /// FftMatvecPlan::apply_batch over its slices, the streams sync
  /// again and the output gather is charged, and the disjoint slices
  /// are copied into the caller's outputs.  Outputs are bit-identical
  /// to the single-rank apply_batch (and therefore to b independent
  /// applies) for every precision config, both directions, ragged
  /// partitions included, in both comm modes and any chunk count.
  /// Throws std::invalid_argument when the groups do not share one
  /// placement, and comm::RankFailure — before any compute or
  /// communication is charged — when the device's FaultPlan reports a
  /// rank of the group down at the entry collective sync.
  void apply_batch(std::span<const OperatorGroup> groups,
                   ApplyDirection direction,
                   const precision::PrecisionConfig& config,
                   std::span<const ConstVectorView> inputs,
                   std::span<const VectorView> outputs,
                   std::span<const RankLane> lanes,
                   CommMode mode = CommMode::kBatched,
                   index_t pipeline_chunks = 1,
                   VerifyMode verify = VerifyMode::kOff);

  /// Degraded single-survivor apply: every rank's slice runs serially
  /// on the caller's surviving stream(s) — pass lanes whose plans are
  /// all bound to one lane's stream — with ZERO communication charged
  /// (the data never leaves the survivor; this is the single-rank
  /// path's cost semantics, just with the work of all slices).
  /// Outputs are bit-identical to the sharded apply_batch, because
  /// slice outputs have disjoint support and each slice's compute is
  /// unchanged; only the modelled time differs (slower: no overlap,
  /// but no collectives).  Never consults the FaultPlan's rank hook,
  /// so it completes while the group outage lasts.  Only a multi-rank
  /// placement can lose a rank, so this path has no 1-rank shortcut.
  void apply_batch_degraded(std::span<const OperatorGroup> groups,
                            ApplyDirection direction,
                            const precision::PrecisionConfig& config,
                            std::span<const ConstVectorView> inputs,
                            std::span<const VectorView> outputs,
                            std::span<const RankLane> lanes,
                            index_t pipeline_chunks = 1,
                            VerifyMode verify = VerifyMode::kOff);

  /// Totals of the most recent apply: per-phase fields are the
  /// group's summed busy time (serial-equivalent work), `comm` the
  /// charged collective time and `makespan` the group's end-to-end
  /// simulated duration (max over rank streams).
  const PhaseTimings& last_timings() const { return timings_; }

  /// Per-RHS attribution: phase fields sum the ranks' own per-RHS
  /// shares, comm and makespan split evenly, so shares sum to
  /// last_timings() and spans sum to the group makespan.
  const std::vector<PhaseTimings>& last_batch_timings() const {
    return rhs_timings_;
  }

 private:
  /// Shared argument validation; returns the groups' common
  /// placement (the first group's operator).
  const ShardedOperator& validate_batch(
      std::span<const OperatorGroup> groups, ApplyDirection direction,
      std::span<const ConstVectorView> inputs,
      std::span<const VectorView> outputs,
      std::span<const RankLane> lanes) const;
  /// Run every rank's grouped slice apply into stage_, accumulating
  /// timings_ and rhs_timings_ (comm/makespan left for the caller to
  /// fill).
  void run_rank_slices(std::span<const OperatorGroup> groups,
                       ApplyDirection direction,
                       const precision::PrecisionConfig& config,
                       std::span<const ConstVectorView> inputs,
                       std::span<const RankLane> lanes,
                       index_t pipeline_chunks, VerifyMode verify,
                       bool phantom);
  /// Copy the disjoint per-rank slices from stage_ into the caller's
  /// output vectors.
  void assemble_outputs(const ShardedOperator& placement,
                        ApplyDirection direction,
                        std::span<const VectorView> outputs,
                        bool phantom) const;

  comm::NetworkSpec network_;
  PhaseTimings timings_;
  std::vector<PhaseTimings> rhs_timings_;
  /// Grow-only per-rank staging for the b output slices.
  std::vector<std::vector<double>> stage_;
};

}  // namespace fftmv::core
