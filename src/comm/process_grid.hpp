// 2-D processor grid (paper §2.4): p = p_r * p_c ranks arranged so
// that grid rows partition the sensor dimension (N_d) and grid
// columns partition the parameter dimension (N_m).
//
// Ranks are numbered column-major, so the p_r ranks of one grid
// column are contiguous; on a Frontier-like machine with 8 GPUs per
// node this keeps the large per-column broadcast/reduce traffic
// inside a node whenever p_r <= node size — the locality the
// communication-aware partitioner exploits.
#pragma once

#include <stdexcept>

#include "util/types.hpp"

namespace fftmv::comm {

class ProcessGrid {
 public:
  ProcessGrid(index_t rows, index_t cols) : rows_(rows), cols_(cols) {
    if (rows <= 0 || cols <= 0) {
      throw std::invalid_argument("ProcessGrid: dimensions must be positive");
    }
  }

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t size() const { return rows_ * cols_; }

  bool operator==(const ProcessGrid&) const = default;

  index_t rank_of(index_t row, index_t col) const {
    check_coord(row, col);
    return col * rows_ + row;
  }

  index_t row_of(index_t rank) const { return rank % rows_; }
  index_t col_of(index_t rank) const { return rank / rows_; }

 private:
  void check_coord(index_t row, index_t col) const {
    if (row < 0 || row >= rows_ || col < 0 || col >= cols_) {
      throw std::out_of_range("ProcessGrid: coordinate out of range");
    }
  }

  index_t rows_;
  index_t cols_;
};

}  // namespace fftmv::comm
