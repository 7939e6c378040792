#include "comm/cost_model.hpp"

#include <algorithm>
#include <cmath>

#include "util/math.hpp"

namespace fftmv::comm {

double CommCostModel::collective_time(index_t q, double bytes, bool within_node,
                                      double stage_factor) const {
  if (q <= 1) return 0.0;
  const double stages = std::ceil(std::log2(static_cast<double>(q)));
  const double alpha_stage =
      (spec_.alpha_stage_s + spec_.alpha_contention_s * static_cast<double>(q)) *
      stage_factor;

  // Wire time: the library picks the better of the un-pipelined tree
  // (message traverses every stage) and the chunk-pipelined algorithm
  // (one pass over the slowest link), like RCCL's algorithm choice;
  // min() keeps the model continuous in the message size.
  const double unpipelined = stages * bytes / spec_.gcd_bandwidth_Bps;
  const double pipelined =
      within_node ? bytes / spec_.intra_bandwidth_Bps
                  : bytes / spec_.node_bandwidth_Bps +
                        bytes / spec_.intra_bandwidth_Bps;
  return spec_.alpha_call_s + stages * alpha_stage +
         std::min(unpipelined, pipelined);
}

double CommCostModel::broadcast_time(index_t q, double bytes,
                                     bool within_node) const {
  return collective_time(q, bytes, within_node, 1.0);
}

double CommCostModel::reduce_time(index_t q, double bytes,
                                  bool within_node) const {
  return collective_time(q, bytes, within_node, 1.15);
}

MatvecCollectives CommCostModel::matvec_collectives(index_t p_rows,
                                                    index_t p_cols,
                                                    bool adjoint,
                                                    double bcast_bytes,
                                                    double reduce_bytes) const {
  const bool col_intra = p_rows <= spec_.node_size;
  const bool row_intra = p_rows == 1 && p_cols <= spec_.node_size;
  MatvecCollectives c;
  if (!adjoint) {
    c.broadcast_s = broadcast_time(p_rows, bcast_bytes, col_intra);
    c.reduce_s = reduce_time(p_cols, reduce_bytes, row_intra);
  } else {
    c.broadcast_s = broadcast_time(p_cols, bcast_bytes, row_intra);
    c.reduce_s = reduce_time(p_rows, reduce_bytes, col_intra);
  }
  return c;
}

MatvecCollectives CommCostModel::rank_group_collectives(
    index_t q, double bcast_bytes, double gather_bytes) const {
  const bool intra = q <= spec_.node_size;
  return MatvecCollectives{broadcast_time(q, bcast_bytes, intra),
                           reduce_time(q, gather_bytes, intra)};
}

}  // namespace fftmv::comm
