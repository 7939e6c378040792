// Synthetic workload generation for tests and benchmarks.
//
// Vectors and operator blocks are initialised with the paper's
// mantissa-filling scheme (§4.2.1): doubles whose low mantissa bits
// are forced on, so every single-precision cast is lossy and the
// Pareto analysis is unbiased.  Operator blocks decay exponentially
// in time, mimicking the impulse responses of dissipative dynamical
// systems and keeping the frequency blocks well scaled.
#pragma once

#include <cmath>
#include <span>
#include <vector>

#include "core/problem.hpp"
#include "util/rng.hpp"

namespace fftmv::core {

/// First block column, time-outer (n_t, n_d, n_m), with per-block
/// magnitude decaying as exp(-decay_rate * t / n_t).
inline std::vector<double> make_first_block_col(const LocalDims& dims,
                                                std::uint64_t seed,
                                                double decay_rate = 4.0) {
  const index_t nt = dims.n_t();
  const index_t nd = dims.n_d_local;
  const index_t nm = dims.n_m_local;
  std::vector<double> h(static_cast<std::size_t>(nt * nd * nm));
  util::Rng rng(seed);
  for (index_t t = 0; t < nt; ++t) {
    const double scale =
        std::exp(-decay_rate * static_cast<double>(t) / static_cast<double>(nt));
    double* block = h.data() + t * nd * nm;
    for (index_t k = 0; k < nd * nm; ++k) {
      block[k] = util::fill_low_mantissa(scale * rng.uniform(-1.0, 1.0));
    }
  }
  return h;
}

/// Input vector of unrepresentable-in-float doubles in [-1, 1).
inline std::vector<double> make_input_vector(index_t n, std::uint64_t seed) {
  std::vector<double> v(static_cast<std::size_t>(n));
  util::Rng rng(seed);
  util::fill_uniform_unrepresentable(rng, v.data(), n);
  return v;
}

/// Extract the TOSI column slice [offset, offset+count) of a global
/// TOSI vector with `width` space points per time step.
inline std::vector<double> slice_tosi(std::span<const double> global,
                                      index_t n_t, index_t width, index_t offset,
                                      index_t count) {
  std::vector<double> out(static_cast<std::size_t>(n_t * count));
  for (index_t t = 0; t < n_t; ++t) {
    for (index_t k = 0; k < count; ++k) {
      out[static_cast<std::size_t>(t * count + k)] =
          global[static_cast<std::size_t>(t * width + offset + k)];
    }
  }
  return out;
}

}  // namespace fftmv::core
