// Alpha-beta collective cost model for the simulated interconnect.
//
// Substitute for RCCL on Frontier's Slingshot fabric.
// Collectives are modelled as log2(q)-stage trees with
//
//   T = alpha_call + stages * (alpha_stage(q) + small-message wire time)
//       [+ pipelined wire time for large messages]
//
// where alpha_stage grows superlinearly with the group size q —
// the contention/straggler behaviour that makes very wide
// small-message collectives expensive at scale and motivates the
// communication-aware 2-D partitioning (paper §4.2.2: >3x speedup at
// 4,096 GPUs).  Large messages are chunk-pipelined, so their wire
// time is paid once; messages that stay inside one node use the
// faster intra-node fabric.
#pragma once

#include "util/types.hpp"

namespace fftmv::comm {

struct NetworkSpec {
  /// GPUs per node (Frontier: 8 GCDs).
  index_t node_size = 8;
  /// Fixed software cost of issuing one collective.
  double alpha_call_s = 250e-6;
  /// Per-stage base latency.
  double alpha_stage_s = 20e-6;
  /// Contention/straggler term: alpha_stage += scale * q.  Wide
  /// collectives across thousands of endpoints pay per-stage costs
  /// that grow with the group size (congestion, jitter, stragglers) —
  /// the effect that makes the naive 1 x p grid lose at scale
  /// (§4.2.2: >3x from communication-aware partitioning at 4,096
  /// GPUs).
  double alpha_contention_s = 0.75e-6;
  /// Per-GCD share of the node injection bandwidth (Frontier: 4 x
  /// 25 GB/s NICs across 8 GCDs), used for un-pipelined tree stages.
  double gcd_bandwidth_Bps = 12.5e9;
  /// Full-node injection bandwidth for pipelined large transfers.
  double node_bandwidth_Bps = 100e9;
  /// Intra-node (Infinity Fabric) bandwidth.
  double intra_bandwidth_Bps = 100e9;

  static NetworkSpec frontier() { return NetworkSpec{}; }

  bool operator==(const NetworkSpec&) const = default;
};

/// The two collectives of one distributed matvec: input broadcast and
/// partial-output reduction (or output gather, for 1-D rank groups).
struct MatvecCollectives {
  double broadcast_s = 0.0;
  double reduce_s = 0.0;
  double total() const { return broadcast_s + reduce_s; }
};

class CommCostModel {
 public:
  explicit CommCostModel(NetworkSpec spec) : spec_(spec) {}

  const NetworkSpec& spec() const { return spec_; }

  /// Tree broadcast of `bytes` over `q` ranks.  `within_node` marks
  /// groups whose ranks are contiguous inside one node.
  double broadcast_time(index_t q, double bytes, bool within_node) const;

  /// Tree reduction; slightly heavier per stage than a broadcast
  /// (arithmetic on arrival).
  double reduce_time(index_t q, double bytes, bool within_node) const;

  /// Collective cost of one matvec on a p_rows x p_cols grid — THE
  /// single source of truth for the grid's comm terms, shared by the
  /// partitioner (evaluate_partition) and the fig4 scaling harness
  /// (duplicating the node-contiguity rules or the alpha-beta
  /// constants in a caller is a bug).  Forward broadcasts the
  /// input over the grid column (p_rows ranks) and reduces partial
  /// outputs over the grid row (p_cols ranks); the adjoint mirrors
  /// the roles.  Node contiguity under the column-major rank
  /// numbering (ProcessGrid): column groups are contiguous, so they
  /// sit inside one node iff p_rows <= node_size; row groups are
  /// strided by p_rows and contiguous only on a single-row grid.
  MatvecCollectives matvec_collectives(index_t p_rows, index_t p_cols,
                                       bool adjoint, double bcast_bytes,
                                       double reduce_bytes) const;

  /// Collective cost of one sharded serving apply on a contiguous
  /// group of `q` ranks (the 1-D output partition of serve's rank-
  /// group placement): broadcast of the whole payload to every rank,
  /// then a tree gather of the disjoint per-rank output slices,
  /// charged at the (slightly heavier) reduce tariff.  A contiguous
  /// group sits inside one node iff q <= node_size.
  MatvecCollectives rank_group_collectives(index_t q, double bcast_bytes,
                                           double gather_bytes) const;

 private:
  double collective_time(index_t q, double bytes, bool within_node,
                         double stage_factor) const;

  NetworkSpec spec_;
};

}  // namespace fftmv::comm
