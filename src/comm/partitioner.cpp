#include "comm/partitioner.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/math.hpp"

namespace fftmv::comm {

PartitionCost evaluate_partition(const PartitionProblem& prob, index_t p_rows,
                                 index_t p_cols, const CommCostModel& net) {
  PartitionCost cost;
  cost.p_rows = p_rows;
  cost.p_cols = p_cols;

  const double sb = static_cast<double>(prob.scalar_bytes);
  // Local parameter chunk: (n_m / p_c) x n_t scalars; local data
  // chunk: (n_d / p_r) x n_t scalars.
  const double bytes_m = static_cast<double>(util::ceil_div(prob.n_m, p_cols)) *
                         static_cast<double>(prob.n_t) * sb;
  const double bytes_d = static_cast<double>(util::ceil_div(prob.n_d, p_rows)) *
                         static_cast<double>(prob.n_t) * sb;

  // F broadcasts the parameter chunk and reduces the data chunk; F*
  // broadcasts the data chunk and reduces the parameter chunk.
  cost.forward_comm_s =
      net.matvec_collectives(p_rows, p_cols, false, bytes_m, bytes_d).total();
  cost.adjoint_comm_s =
      net.matvec_collectives(p_rows, p_cols, true, bytes_d, bytes_m).total();

  // Every rank of a column computes the FFT of the same m_c chunk:
  // p_r > 1 multiplies that phase's memory traffic.  Model the padded
  // transform working set (2 n_t complex scalars per spatial point,
  // ~2 memory passes).
  const double fft_bytes_per_rank =
      static_cast<double>(util::ceil_div(prob.n_m, p_cols)) *
      static_cast<double>(2 * prob.n_t) * sb * 2.0 * 2.0;
  const double fft_once =
      static_cast<double>(util::ceil_div(prob.n_m, p_cols * p_rows)) *
      static_cast<double>(2 * prob.n_t) * sb * 2.0 * 2.0;
  cost.duplicated_fft_s =
      (fft_bytes_per_rank - fft_once) / prob.device_bandwidth_Bps;

  return cost;
}

std::vector<PartitionCost> enumerate_partitions(const PartitionProblem& prob,
                                                index_t p,
                                                const CommCostModel& net) {
  if (p <= 0) throw std::invalid_argument("enumerate_partitions: p must be positive");
  std::vector<PartitionCost> out;
  for (index_t p_rows : util::divisors(p)) {
    if (p_rows > prob.n_d) break;  // every grid row must own a sensor
    out.push_back(evaluate_partition(prob, p_rows, p / p_rows, net));
  }
  return out;
}

PartitionCost choose_partition(const PartitionProblem& prob, index_t p,
                               const CommCostModel& net) {
  const auto candidates = enumerate_partitions(prob, p, net);
  return *std::min_element(candidates.begin(), candidates.end(),
                           [](const PartitionCost& a, const PartitionCost& b) {
                             return a.total() < b.total();
                           });
}

}  // namespace fftmv::comm
