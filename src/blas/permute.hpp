// Batched tiled transposition kernel — the library's substitute for
// the cuTENSOR (v2) permutation functionality (paper §3.1).
//
// The paper replaced cuTENSOR permutations with a custom GPU kernel
// based on Jodra et al. [25], modified "to avoid overflowing the
// maximum number of grid blocks that can be launched in the y and z
// dimensions".  This kernel reproduces that design: 32x32 tiles
// staged through LDS (modelled), with both the y (row-tile) and z
// (batch) grid dimensions clamped to the device limit and covered by
// in-kernel loops.  Operator setup is its one caller: it gathers a
// rank's block of the first block column into time-contiguous
// sequences before the batched FFT.
#pragma once

#include <algorithm>

#include "device/stream.hpp"
#include "util/math.hpp"
#include "util/types.hpp"

namespace fftmv::blas {

inline constexpr index_t kTransposeTile = 32;

/// Geometry and footprint of one transpose_batched launch.
inline device::LaunchGeometry transpose_geometry(const device::DeviceSpec& spec,
                                                 index_t batch, index_t rows,
                                                 index_t cols) {
  const index_t tiles_c = util::ceil_div(cols, kTransposeTile);
  const index_t tiles_r = util::ceil_div(rows, kTransposeTile);
  return {.grid_x = tiles_c,
          .grid_y = std::min(tiles_r, spec.max_grid_dim_yz),
          .grid_z = std::min(batch, spec.max_grid_dim_yz),
          .block_threads = 256};
}

template <class T>
device::KernelFootprint transpose_footprint(index_t batch, index_t rows,
                                            index_t cols) {
  const double bytes = static_cast<double>(batch) * static_cast<double>(rows) *
                       static_cast<double>(cols) * sizeof(T);
  device::KernelFootprint fp;
  fp.bytes_read = bytes;
  fp.bytes_written = bytes;
  fp.flops = 0.0;
  fp.fp64_path = sizeof(real_t<T>) == 8;
  fp.vector_load_bytes = static_cast<int>(std::min<std::size_t>(sizeof(T), 16));
  // LDS-staged tiles coalesce both sides but pay bank-conflict /
  // partial-tile costs.
  fp.coalescing_efficiency = 0.85;
  return fp;
}

/// dst[b*rows*cols + c*rows + r] = src[b*src_stride + r*src_ld + c]:
/// per batch entry, transpose a row-major rows x cols matrix whose rows
/// start src_ld elements apart into a dense column-major one.  A dense
/// source has src_ld = cols and src_stride = rows*cols; larger strides
/// gather a sub-block of a bigger array, batch entries interleaved or
/// not.
template <class T>
device::KernelTiming transpose_batched(device::Stream& stream, const T* src,
                                       index_t src_ld, index_t src_stride,
                                       T* dst, index_t batch, index_t rows,
                                       index_t cols) {
  const auto& spec = stream.device().spec();
  const auto geom = transpose_geometry(spec, batch, rows, cols);
  const auto fp = transpose_footprint<T>(batch, rows, cols);
  const index_t tiles_r = util::ceil_div(rows, kTransposeTile);

  return stream.launch(geom, fp, [=](index_t bx, index_t by, index_t bz) {
    // Grid-limit-safe loops over the clamped y (row tiles) and z
    // (batch) dimensions.
    for (index_t b = bz; b < batch; b += geom.grid_z) {
      const T* s = src + b * src_stride;
      T* d = dst + b * rows * cols;
      for (index_t ty = by; ty < tiles_r; ty += geom.grid_y) {
        const index_t r0 = ty * kTransposeTile;
        const index_t r1 = std::min(rows, r0 + kTransposeTile);
        const index_t c0 = bx * kTransposeTile;
        const index_t c1 = std::min(cols, c0 + kTransposeTile);
        for (index_t r = r0; r < r1; ++r) {
          for (index_t c = c0; c < c1; ++c) {
            d[c * rows + r] = s[r * src_ld + c];
          }
        }
      }
    }
  });
}

}  // namespace fftmv::blas
