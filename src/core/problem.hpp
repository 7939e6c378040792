// Problem dimensions and their distribution over the process grid.
#pragma once

#include <algorithm>
#include <compare>
#include <stdexcept>

#include "comm/process_grid.hpp"
#include "util/math.hpp"
#include "util/types.hpp"

namespace fftmv::core {

/// Global problem shape (paper §2.3): N_m spatial parameter points,
/// N_d sensors (N_d << N_m in the inverse-problem setting), N_t time
/// steps (N_t >> 1).
struct ProblemDims {
  index_t n_m = 0;
  index_t n_d = 0;
  index_t n_t = 0;

  /// Circulant embedding length (zero padding to 2 N_t, §2.4).
  index_t padded_length() const { return 2 * n_t; }
  /// Fourier bins after the real FFT: N_t + 1 (the SBGEMV batch
  /// count, §3.1.1).
  index_t num_frequencies() const { return n_t + 1; }

  void validate() const {
    if (n_m <= 0 || n_d <= 0 || n_t <= 0) {
      throw std::invalid_argument("ProblemDims: all dimensions must be positive");
    }
  }

  /// Lexicographic over (n_m, n_d, n_t); keeps shape-keyed
  /// containers (e.g. the serving batcher) in sync with equality by
  /// construction.
  auto operator<=>(const ProblemDims&) const = default;
};

/// The slice of the problem owned by one rank of a p_r x p_c grid:
/// grid rows split the sensors, grid columns split the parameters
/// (block distribution; earlier chunks take the remainder).
struct LocalDims {
  ProblemDims global;
  index_t n_m_local = 0;
  index_t n_d_local = 0;
  index_t m_offset = 0;
  index_t d_offset = 0;

  index_t n_t() const { return global.n_t; }
  index_t padded_length() const { return global.padded_length(); }
  index_t num_frequencies() const { return global.num_frequencies(); }

  static LocalDims single_rank(const ProblemDims& dims) {
    dims.validate();
    return LocalDims{dims, dims.n_m, dims.n_d, 0, 0};
  }

  auto operator<=>(const LocalDims&) const = default;

  /// Same global dims and local sizes, whatever the offsets: what a
  /// plan's buffers depend on.
  bool same_extents(const LocalDims& o) const {
    return global == o.global && n_m_local == o.n_m_local &&
           n_d_local == o.n_d_local;
  }

  static LocalDims for_rank(const ProblemDims& dims, const comm::ProcessGrid& grid,
                            index_t rank) {
    dims.validate();
    const index_t row = grid.row_of(rank);
    const index_t col = grid.col_of(rank);
    LocalDims local;
    local.global = dims;
    split(dims.n_m, grid.cols(), col, local.n_m_local, local.m_offset);
    split(dims.n_d, grid.rows(), row, local.n_d_local, local.d_offset);
    return local;
  }

 private:
  /// Block distribution of `total` over `parts`: the first
  /// (total % parts) parts get one extra element.
  static void split(index_t total, index_t parts, index_t which, index_t& count,
                    index_t& offset) {
    if (parts > total) {
      throw std::invalid_argument(
          "LocalDims: more grid divisions than elements in a dimension");
    }
    const index_t base = total / parts;
    const index_t extra = total % parts;
    count = base + (which < extra ? 1 : 0);
    offset = which * base + std::min(which, extra);
  }
};

}  // namespace fftmv::core
