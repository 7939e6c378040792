// Distributed batched matvec: one operator placed on a process grid
// of simulated ranks (ShardedOperator) and the one executor that runs
// a batch of right-hand sides across it (DistributedMatvecPlan).
// Every rank runs the unmodified single-rank grouped
// FftMatvecPlan::apply_batch on its operator slice.
//
// Placement.  Rank r of a p_r x p_c comm::ProcessGrid (paper §2.4)
// owns the sensor rows of its grid row and the parameter columns of
// its grid column (LocalDims::for_rank), with one grid per direction:
//
//   the paper's grid: both directions on one p_r x p_c grid.  A rank
//     reads only its input slice and computes a partial of its output
//     slice.  The ranks sharing an output slice — a grid row forward,
//     a grid column adjoint — are reduced in the phase-5 precision in
//     comm::tree_reduce's pairwise order, taken in increasing rank
//     order.  That is the distribution-dependent rounding the paper's
//     Figure 4 error series measures, bit-identical to the threaded
//     grid reference in tests/test_core_distributed.cpp.
//   the output split (the serving layer's): R ranks on (R, 1) forward
//     and (1, R) adjoint.  Every rank reads the whole input and owns
//     a disjoint output slice, so each reduction has one member and
//     assembly is a copy (summing zero-padded partials would flip the
//     sign bit of a -0.0 output).  Each slice's GEMV computes
//     full-width dot products in the single-rank accumulation order,
//     so outputs are BIT-identical to the single-rank apply in every
//     precision config, ragged splits included.  The price is phases
//     1-2 duplicated on every rank and one operator slice per
//     direction.
//
// Bit-identity also needs the phase-3 GEMV kernel KIND to agree
// between a slice and the full operator, since the kernels of either
// direction accumulate in different orders: FftMatvecPlan picks them
// from the GLOBAL dims (LocalDims::global), never from its slice.  A
// slice-local choice would flip the forward between the split-column
// and reference N kernels wherever a slice is short and wide (at most
// 64 rows, fewer rows than columns) but the operator is not — tested
// at 48 x 40 — and the adjoint's transpose kernel once n_d > 1024 —
// tested at n_d = 1025.
//
// Two ways to run a batch:
//
//   apply_batch charges the output split's collectives — one
//     broadcast of the inputs and one gather of the outputs, through
//     comm::CommCostModel::rank_group_collectives — and consults the
//     device's FaultPlan at the entry sync.  CommMode::kBatched fuses
//     each collective across the batch; kPerRequest charges b of each
//     (the ablation bench/serve_scaling gates against), with identical
//     compute.  It refuses a placement whose ranks share output
//     slices: there is no charged model of the grid's reductions
//     (bench/fig4_scaling prices them with matvec_collectives).
//   apply_batch_serial runs every rank's slice back to back, charges
//     no communication and never consults the FaultPlan.  It is the
//     serving layer's fallback after a rank failure, and runs the
//     paper grid's numerics.
//
// A batch may span several operators of one placement, mirroring
// FftMatvecPlan's operator groups: rank r runs ONE grouped apply over
// the rank-r slice of every group's operator.  The serving layer
// places every tenant this way (an unsharded tenant is a 1-rank
// placement), so a cross-tenant batch and a sharded batch take the
// same dispatch path.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "comm/cost_model.hpp"
#include "comm/process_grid.hpp"
#include "core/block_toeplitz.hpp"
#include "core/matvec_plan.hpp"
#include "core/problem.hpp"

namespace fftmv::core {

/// How apply_batch charges collective time: fused once per batch (the
/// production mode) or once per right-hand side (the ablation).
enum class CommMode : unsigned char { kBatched, kPerRequest };

/// One operator sliced over a process grid per direction (see the
/// header comment).  Every rank's BlockToeplitzOperator gathers its
/// block from the caller's global column before its setup FFT, and the
/// FFT of each block entry's time series is independent of its
/// neighbours, so a slice's spectrum entries are bit-identical to the
/// corresponding entries of the full operator's spectrum.  When both
/// directions use one grid they share one operator per rank.
class ShardedOperator {
 public:
  /// The paper's grid: both directions on `grid`.
  /// `first_block_col` is the global time-outer (n_t, n_d, n_m)
  /// column; empty builds unbacked slices (phantom cost-model runs).
  /// Throws std::invalid_argument when the grid splits a dimension
  /// into more parts than it has elements, or on a backed device when
  /// the column lacks the global extent.
  ShardedOperator(device::Device& dev, device::Stream& stream,
                  const ProblemDims& dims, const comm::ProcessGrid& grid,
                  std::span<const double> first_block_col);

  /// The output split: (ranks, 1) forward, (1, ranks) adjoint.  Throws
  /// std::invalid_argument when `ranks` < 1 or exceeds either output
  /// dimension, or as the grid constructor does on a bad column.
  ShardedOperator(device::Device& dev, device::Stream& stream,
                  const ProblemDims& dims, index_t ranks,
                  std::span<const double> first_block_col);

  index_t ranks() const { return fwd_grid_.size(); }
  const ProblemDims& dims() const { return dims_; }
  const comm::ProcessGrid& grid(ApplyDirection direction) const {
    return direction == ApplyDirection::kForward ? fwd_grid_ : adj_grid_;
  }

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
  ShardedOperator(device::Device& dev, device::Stream& stream,
                  const ProblemDims& dims, const comm::ProcessGrid& fwd_grid,
                  const comm::ProcessGrid& adj_grid,
                  std::span<const double> first_block_col);

  std::size_t check(index_t rank) const;

  ProblemDims dims_;
  comm::ProcessGrid fwd_grid_, adj_grid_;
  std::vector<LocalDims> fwd_dims_, adj_dims_;
  // shared_ptr so a rank's slice is stored once when both directions
  // share a grid.
  std::vector<std::shared_ptr<BlockToeplitzOperator>> fwd_ops_, adj_ops_;
};

/// Orchestrates one distributed apply over borrowed per-rank plans.
/// The plan owns only grow-only host staging for the per-rank output
/// slices; the per-rank FftMatvecPlans and their streams are the
/// caller's (the serving layer acquires them from its PlanCache,
/// benches and tests construct their own), so one
/// DistributedMatvecPlan instance can serve any tenant of any shape.
///
/// `plans[r]` runs rank r on its own stream (the plan's construction
/// stream).  Its extents (global dims, n_m_local, n_d_local) must
/// equal the placement's rank_dims(direction, r), so one plan may
/// serve every same-shape rank.
class DistributedMatvecPlan {
 public:
  /// One operator's contiguous slice of a grouped batch (mirrors
  /// FftMatvecPlan::OperatorGroup): `rhs_count` right-hand sides
  /// applied through `op`.  Every group's operator must share one
  /// placement — the same grid and the same global dims — so the rank
  /// slices, and the rank plans that run them, are common to all
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
  /// the input broadcast is charged on all rank streams, each rank
  /// runs ONE fused grouped FftMatvecPlan::apply_batch over its
  /// slices, the streams sync again, the output gather is charged and
  /// the slices are assembled into the caller's outputs.  Outputs are
  /// bit-identical to the single-rank apply_batch (and therefore to b
  /// independent applies) in both comm modes.
  /// Throws std::invalid_argument — before any fault consult or
  /// charge — on a malformed batch, when the groups do not share one
  /// placement, or when ranks share an output slice; throws
  /// comm::RankFailure, before any compute or communication is
  /// charged, when the device's FaultPlan reports a rank of the group
  /// down at the entry collective sync.
  void apply_batch(std::span<const OperatorGroup> groups,
                   ApplyDirection direction,
                   const precision::PrecisionConfig& config,
                   std::span<const ConstVectorView> inputs,
                   std::span<const VectorView> outputs,
                   std::span<FftMatvecPlan* const> plans,
                   CommMode mode = CommMode::kBatched,
                   VerifyMode verify = VerifyMode::kOff);

  /// Serial apply over any placement: every rank's slice runs back to
  /// back on the plans' streams — after a rank failure, pass plans
  /// that are all bound to the survivor's stream — with ZERO
  /// communication charged.  For an output split the outputs are
  /// bit-identical to apply_batch's; only the modelled time differs
  /// (no overlap, but no collectives).  Never consults the FaultPlan's
  /// rank hook, so it completes while a group outage lasts.
  void apply_batch_serial(std::span<const OperatorGroup> groups,
                          ApplyDirection direction,
                          const precision::PrecisionConfig& config,
                          std::span<const ConstVectorView> inputs,
                          std::span<const VectorView> outputs,
                          std::span<FftMatvecPlan* const> plans,
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
      std::span<FftMatvecPlan* const> plans) const;
  /// Run every rank's grouped slice apply into stage_, accumulating
  /// timings_ and rhs_timings_ (comm/makespan left for the caller to
  /// fill).
  void run_rank_slices(std::span<const OperatorGroup> groups,
                       ApplyDirection direction,
                       const precision::PrecisionConfig& config,
                       std::span<const ConstVectorView> inputs,
                       std::span<FftMatvecPlan* const> plans,
                       VerifyMode verify, bool phantom);
  /// Reduce the partials of each output slice from stage_ into the
  /// caller's output vectors.
  void assemble_outputs(const ShardedOperator& placement,
                        ApplyDirection direction,
                        precision::Precision p5,
                        std::span<const VectorView> outputs,
                        bool phantom) const;

  comm::NetworkSpec network_;
  PhaseTimings timings_;
  std::vector<PhaseTimings> rhs_timings_;
  /// Grow-only per-rank staging for the b output slices.
  std::vector<std::vector<double>> stage_;
};

}  // namespace fftmv::core
