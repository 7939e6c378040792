// Experimental half-storage SBGEMV (the paper's FP16 outlook, §3.2).
//
// Matrix and vectors are stored in binary16; arithmetic runs in
// float, mirroring GPU tensor-core HGEMM-style mixed accumulation.
// Only the real-datatype transpose-family kernels exist — precisely
// the state of the ecosystem the paper describes ("software support
// for half-precision linear algebra ... especially ... complex
// numbers — is sparse").  The kernel reuses the optimized column-
// tiling, lane-strided loads and wavefront tree reduction of
// gemv_kernels.hpp; its footprint halves Phase-3 traffic relative to
// the FP32 path.
#pragma once

#include <algorithm>

#include "blas/gemv_kernels.hpp"
#include "device/stream.hpp"
#include "precision/half.hpp"
#include "util/math.hpp"

namespace fftmv::blas {

struct SbgemvHalfArgs {
  Op op = Op::T;  ///< T only (the short-and-wide adjoint case)
  index_t m = 0;
  index_t n = 0;
  float alpha = 1.0f;
  const precision::half* a = nullptr;
  index_t lda = 0;
  index_t stride_a = 0;
  const precision::half* x = nullptr;
  index_t stride_x = 0;
  float beta = 0.0f;
  precision::half* y = nullptr;
  index_t stride_y = 0;
  index_t batch = 1;
  /// Multi-RHS extension (mirrors SbgemvMultiArgs): each batch
  /// entry's matrix is applied to nrhs vectors at
  /// x + b*stride_x + r*rhs_stride_x; the matrix column tile is read
  /// once per batch entry and shared across all RHS.
  index_t nrhs = 1;
  index_t rhs_stride_x = 0;
  index_t rhs_stride_y = 0;
};

namespace detail {

inline void sbgemv_half_validate(const SbgemvHalfArgs& args, bool allow_null) {
  if (args.op != Op::T) {
    throw std::invalid_argument("sbgemv_half: only Op::T is implemented");
  }
  if (args.m <= 0 || args.n <= 0 || args.batch <= 0 || args.lda < args.m ||
      args.nrhs <= 0) {
    throw std::invalid_argument("sbgemv_half: invalid extents");
  }
  if (args.nrhs > 1) {
    if (args.rhs_stride_x < args.m || args.rhs_stride_y < args.n) {
      throw std::invalid_argument("sbgemv_half: RHS strides overlap the vectors");
    }
    if (multi_rhs_y_strides_alias(args.stride_y, args.rhs_stride_y, args.n,
                                  args.batch, args.nrhs)) {
      throw std::invalid_argument(
          "sbgemv_half: y strides alias across batch entries");
    }
  }
  if (!allow_null &&
      (args.a == nullptr || args.x == nullptr || args.y == nullptr)) {
    throw std::invalid_argument("sbgemv_half: null pointer operand");
  }
}

/// Kernel body of gridblock (bx, ., bz).
inline void sbgemv_half_block(const SbgemvHalfArgs& a, index_t bx, index_t bz) {
  const precision::half* A = a.a + bz * a.stride_a;
  const index_t col_begin = bx * kOptTileCols;
  const index_t col_end = std::min(a.n, col_begin + kOptTileCols);
  float lanes[kWavefront];
  for (index_t j = col_begin; j < col_end; ++j) {
    const precision::half* col = A + j * a.lda;
    for (index_t rhs = 0; rhs < a.nrhs; ++rhs) {
      const precision::half* x = a.x + bz * a.stride_x + rhs * a.rhs_stride_x;
      precision::half* y = a.y + bz * a.stride_y + rhs * a.rhs_stride_y;
      for (index_t l = 0; l < kWavefront; ++l) {
        float acc = 0.0f;
        for (index_t i = l; i < a.m; i += kWavefront) {
          acc += static_cast<float>(col[i]) * static_cast<float>(x[i]);
        }
        lanes[l] = acc;
      }
      for (index_t off = kWavefront / 2; off > 0; off /= 2) {
        for (index_t l = 0; l < off; ++l) lanes[l] += lanes[l + off];
      }
      const float prev =
          a.beta == 0.0f ? 0.0f : a.beta * static_cast<float>(y[j]);
      y[j] = precision::half(a.alpha * lanes[0] + prev);
    }
  }
}

/// Footprint: half the bytes of the float kernel; compute stays on
/// the fp32 path (tensor-style accumulate).  The matrix is read once
/// per batch entry; only vector traffic and flops scale with the RHS
/// count.
inline device::KernelFootprint sbgemv_half_footprint(const SbgemvHalfArgs& args) {
  device::KernelFootprint fp;
  const double b = static_cast<double>(args.batch);
  const double r = static_cast<double>(args.nrhs);
  fp.bytes_read =
      b * (static_cast<double>(args.m) * static_cast<double>(args.n) +
           r * static_cast<double>(args.m)) *
      sizeof(precision::half);
  fp.bytes_written = b * r * static_cast<double>(args.n) * sizeof(precision::half);
  fp.flops = 2.0 * b * r * static_cast<double>(args.m) * static_cast<double>(args.n);
  fp.fp64_path = false;
  fp.vector_load_bytes = 16;  // half8-style packed loads
  fp.coalescing_efficiency = 0.84;
  return fp;
}

}  // namespace detail

/// Launch the half-storage optimized transpose kernel.
inline device::KernelTiming sbgemv_half_optimized(device::Stream& stream,
                                                  const SbgemvHalfArgs& args) {
  detail::sbgemv_half_validate(args, stream.device().phantom());
  const auto geom =
      gemv_geometry(GemvKernelKind::kOptimizedT, args.m, args.n, args.batch);
  const auto fp = detail::sbgemv_half_footprint(args);
  const SbgemvHalfArgs a = args;
  return stream.launch(geom, fp, [a](index_t bx, index_t, index_t bz) {
    detail::sbgemv_half_block(a, bx, bz);
  });
}

}  // namespace fftmv::blas
