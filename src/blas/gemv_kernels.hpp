// SBGEMV kernel implementations for the simulated device.
//
// Three kernels, mirroring §3.1.1 of the paper:
//
//  * reference non-transpose: grid (ceil(m/64), 1, batch); each
//    gridblock computes a 64-row chunk of the output, i.e. several
//    long dot products of length n.  Efficient when m is small and n
//    large (few blocks, lots of work per block).
//
//  * reference (conjugate) transpose: grid (n, 1, batch); each
//    gridblock computes a SINGLE output element as one dot product of
//    length m.  When m << n this launches very many nearly-empty
//    blocks, so launch/residency overheads dominate and the achieved
//    memory bandwidth collapses — the performance pathology the paper
//    diagnoses with rocprofv3.
//
//  * optimized (conjugate) transpose: grid (ceil(n/TILE_N), 1,
//    batch); each gridblock owns a TILE_N-column tile and a 2-D
//    (wavefront x TILE_N) thread arrangement: 64 lanes stride down a
//    column accumulating partials (vectorised, coalesced loads) and a
//    wavefront-shuffle tree combines them.  The tree-reduction
//    summation order is reproduced here because it changes rounding
//    behaviour relative to the sequential reference kernel.
//
// Each kernel exposes its LaunchGeometry and KernelFootprint via a
// *model* function so the analytic paper-scale sweeps use exactly the
// same cost inputs as real executions.
#pragma once

#include <algorithm>
#include <cmath>
#include <mutex>
#include <type_traits>

#include "blas/gemv_types.hpp"
#include "device/stream.hpp"
#include "precision/convert.hpp"
#include "util/math.hpp"
#include "util/types.hpp"

namespace fftmv::blas {

/// Wavefront width of the simulated device (CDNA).
inline constexpr index_t kWavefront = 64;
/// Rows handled per gridblock by the reference non-transpose kernel.
inline constexpr index_t kRefRowsPerBlock = 64;
/// Columns per gridblock tile in the optimized transpose kernel.
inline constexpr index_t kOptTileCols = 32;

enum class GemvKernelKind {
  kReferenceN,
  kReferenceT,   // covers T and C
  kOptimizedT,   // covers T and C
};

/// Launch geometry for a kernel kind (per paper §3.1.1).
inline device::LaunchGeometry gemv_geometry(GemvKernelKind kind, index_t m,
                                            index_t n, index_t batch) {
  switch (kind) {
    case GemvKernelKind::kReferenceN:
      return {.grid_x = util::ceil_div(m, kRefRowsPerBlock),
              .grid_y = 1,
              .grid_z = batch,
              .block_threads = 256};
    case GemvKernelKind::kReferenceT:
      return {.grid_x = n, .grid_y = 1, .grid_z = batch, .block_threads = 64};
    case GemvKernelKind::kOptimizedT:
      return {.grid_x = util::ceil_div(n, kOptTileCols),
              .grid_y = 1,
              .grid_z = batch,
              .block_threads = 256};
  }
  return {};
}

/// Resource footprint for a kernel kind.  Traffic counts the matrix
/// once plus the vectors (x assumed L2-resident across blocks of the
/// same batch entry, so counted once per batch entry), x at the width
/// of its own element type X.
template <class T, class X = T>
device::KernelFootprint gemv_footprint(GemvKernelKind kind, index_t m,
                                       index_t n, index_t batch) {
  const double es = static_cast<double>(sizeof(T));
  const double b = static_cast<double>(batch);
  const double matrix = b * static_cast<double>(m) * static_cast<double>(n) * es;
  const double xlen = static_cast<double>(kind == GemvKernelKind::kReferenceN ? n : m);
  const double ylen = static_cast<double>(kind == GemvKernelKind::kReferenceN ? m : n);

  device::KernelFootprint fp;
  fp.bytes_read = matrix + b * xlen * static_cast<double>(sizeof(X));
  fp.bytes_written = b * ylen * es;
  // 2 real ops per multiply-add; complex multiply-add is 8.
  fp.flops = (is_complex_v<T> ? 8.0 : 2.0) * b * static_cast<double>(m) *
             static_cast<double>(n);
  fp.fp64_path = sizeof(real_t<T>) == 8;

  switch (kind) {
    case GemvKernelKind::kReferenceN:
      // Scalar per-element loads; good coalescing across the thread
      // rows of each column chunk.
      fp.vector_load_bytes = static_cast<int>(std::min<std::size_t>(sizeof(T), 16));
      fp.coalescing_efficiency = 0.82;
      break;
    case GemvKernelKind::kReferenceT:
      fp.vector_load_bytes = static_cast<int>(std::min<std::size_t>(sizeof(T), 16));
      fp.coalescing_efficiency = 0.80;
      // One serial dot per block: heavier element types keep the CU
      // busy longer per block (longer dependency chains), observed in
      // the Figure 1 spread across datatypes.
      fp.residency_weight = std::sqrt(static_cast<double>(sizeof(T)) / 4.0);
      break;
    case GemvKernelKind::kOptimizedT:
      // float4/double2-style 16-byte vectorised, pipelined loads.
      fp.vector_load_bytes = 16;
      fp.coalescing_efficiency = 0.84;
      break;
  }
  return fp;
}

/// Resource footprint of the multi-RHS variant: the matrix is read
/// ONCE per batch entry (each column tile stays resident while all
/// nrhs vectors stream through it) while vector traffic and flops
/// scale with nrhs.  The reference transpose kernel's serial
/// dependency chain grows nrhs-fold per block, so its residency
/// weight scales accordingly.
template <class T, class X = T>
device::KernelFootprint gemv_multi_footprint(GemvKernelKind kind, index_t m,
                                             index_t n, index_t batch,
                                             index_t nrhs) {
  device::KernelFootprint fp = gemv_footprint<T, X>(kind, m, n, batch);
  const double es = static_cast<double>(sizeof(T));
  const double b = static_cast<double>(batch);
  const double extra = static_cast<double>(nrhs - 1);
  const double xlen = static_cast<double>(kind == GemvKernelKind::kReferenceN ? n : m);
  const double ylen = static_cast<double>(kind == GemvKernelKind::kReferenceN ? m : n);
  fp.bytes_read += extra * b * xlen * static_cast<double>(sizeof(X));
  fp.bytes_written += extra * b * ylen * es;
  fp.flops *= static_cast<double>(nrhs);
  if (kind == GemvKernelKind::kReferenceT) {
    fp.residency_weight *= static_cast<double>(nrhs);
  }
  return fp;
}

/// Resource footprint of the grouped variant: each of the
/// `num_groups` operator matrices is read once per batch entry (the
/// column tile is re-staged when the group — and with it the matrix —
/// changes), while vector traffic and flops scale with the total RHS
/// count exactly as in the flat multi-RHS kernel.  num_groups == 1
/// reproduces gemv_multi_footprint bit for bit, so the same-operator
/// case keeps its modelled cost.
template <class T, class X = T>
device::KernelFootprint gemv_grouped_footprint(GemvKernelKind kind, index_t m,
                                               index_t n, index_t batch,
                                               index_t num_groups,
                                               index_t total_nrhs) {
  device::KernelFootprint fp =
      gemv_multi_footprint<T, X>(kind, m, n, batch, total_nrhs);
  fp.bytes_read += static_cast<double>(num_groups - 1) *
                   static_cast<double>(batch) * static_cast<double>(m) *
                   static_cast<double>(n) * static_cast<double>(sizeof(T));
  return fp;
}

namespace detail {

/// An x element in the matrix type T: convert_scalar<T> when x is
/// stored in another precision (see SbgemvArgs), the element itself
/// when it is not.  The identity is spelled out because a same-type
/// convert_scalar, though exact, slowed the optimized transpose
/// kernel's host loop by ~7% at the FFT matvec's adjoint shape.
template <class T, class X>
T x_as(const X& v) {
  if constexpr (std::is_same_v<T, X>) {
    return v;
  } else {
    return precision::convert_scalar<T>(v);
  }
}

template <class T>
T conj_if_complex_dispatch(const T& v, bool conj) {
  return conj ? conj_if_complex(v) : v;
}

/// Widen a scalar to its double-precision counterpart (the ABFT
/// checksum accumulator type).
template <class T>
typename SbgemvVerify<T>::acc_t widen(const T& v) {
  if constexpr (is_complex_v<T>) {
    return cdouble(static_cast<double>(v.real()), static_cast<double>(v.imag()));
  } else {
    return static_cast<double>(v);
  }
}

}  // namespace detail

/// Extra modelled cost of augmenting the grouped launch with ABFT
/// checksum dots: each group's checksum row is read once per batch
/// entry, one dot (+ magnitude sum) of length x_len is computed per
/// (batch, RHS), and the double-width dot/scale outputs are written.
template <class T>
device::KernelFootprint gemv_checksum_extra_footprint(index_t x_len,
                                                      index_t batch,
                                                      index_t num_groups,
                                                      index_t total_nrhs) {
  using acc_t = typename SbgemvVerify<T>::acc_t;
  const double b = static_cast<double>(batch);
  const double xl = static_cast<double>(x_len);
  const double nr = static_cast<double>(total_nrhs);
  device::KernelFootprint fp;
  fp.bytes_read = static_cast<double>(num_groups) * b * xl *
                  static_cast<double>(sizeof(T));
  fp.bytes_written = b * nr * static_cast<double>(sizeof(acc_t) + sizeof(double));
  fp.flops = (is_complex_v<T> ? 8.0 : 2.0) * b * nr * xl;
  return fp;
}

/// Extra modelled cost of the checksum compare riding a kernel that
/// already reads y (the FFT matvec's phase-4 inverse FFT): the
/// dot/scale outputs are read and each (batch, RHS) column of y is
/// reduced.  y itself is the host kernel's traffic, not counted here.
template <class T>
device::KernelFootprint gemv_compare_extra_footprint(index_t y_len,
                                                     index_t batch,
                                                     index_t total_nrhs) {
  using acc_t = typename SbgemvVerify<T>::acc_t;
  const double b = static_cast<double>(batch);
  const double nr = static_cast<double>(total_nrhs);
  device::KernelFootprint fp;
  fp.bytes_read = b * nr * static_cast<double>(sizeof(acc_t) + sizeof(double));
  fp.bytes_written = 0.0;
  fp.flops = (is_complex_v<T> ? 4.0 : 2.0) * b * nr * static_cast<double>(y_len);
  return fp;
}

/// Failing columns found by the checksum compare.  The compare runs
/// on gridblocks that execute concurrently on the host pool, so
/// records are serialised, and the column reported is the first in
/// (batch entry, RHS) order however the blocks were scheduled.
struct GemvVerifyFailure {
  int count = 0;
  index_t batch_entry = -1;
  index_t rhs = -1;
  double diff = 0.0;
  double bound = 0.0;

  void record(index_t bz, index_t r, double d, double b) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (count++ == 0 || bz < batch_entry || (bz == batch_entry && r < rhs)) {
      batch_entry = bz;
      rhs = r;
      diff = d;
      bound = b;
    }
  }

 private:
  std::mutex mu_;
};

/// Checksum-dot body, run once per batch entry bz by the augmented
/// grouped launch (on the bx == 0 gridblocks): for every (group, RHS)
/// accumulate `conj_if(checksum) . x` and `sum |checksum_j x_j|` in
/// double and store them at [bz + batch * r].  Serial per bz, so the
/// dots are deterministic.
template <class T, class X>
void gemv_grouped_checksum_block(const SbgemvGroupedArgs<T, X>& ga,
                                 const SbgemvVerify<T>& verify, index_t bz) {
  const SbgemvArgs<T, X>& a = ga.base;
  const index_t x_len = a.x_len();
  const bool conj = a.op == Op::C;
  index_t r0 = 0;
  for (const auto& g : ga.groups) {
    const T* c = g.checksum + bz * x_len;
    for (index_t r = r0; r < r0 + g.nrhs; ++r) {
      const X* x = a.x + bz * a.stride_x + r * ga.rhs_stride_x;
      typename SbgemvVerify<T>::acc_t dot{};
      double scale = 0.0;
      for (index_t j = 0; j < x_len; ++j) {
        const auto term = detail::widen(detail::conj_if_complex_dispatch(c[j], conj)) *
                          detail::widen(detail::x_as<T>(x[j]));
        dot += term;
        scale += std::abs(term);
      }
      verify.checksum_out[bz + a.batch * r] = dot;
      verify.scale_out[bz + a.batch * r] = scale;
    }
    r0 += g.nrhs;
  }
}

/// Checksum compare for batch entry bz, run by the kernel that next
/// reads y: reduce each RHS column of y in double and compare against
/// alpha times its checksum dot.  The acceptance scale sums every
/// magnitude entering the comparison, so the relative tolerance
/// composes with the data's dynamic range.  A column passes only with
/// a finite difference within the bound: a NaN fails every
/// comparison, and an Inf in y inflates the bound to Inf along with
/// the difference, so `diff > bound` alone would wave both through.
template <class T, class X>
void gemv_grouped_verify_block(const SbgemvGroupedArgs<T, X>& ga,
                               const SbgemvVerify<T>& verify,
                               GemvVerifyFailure* fail, index_t bz) {
  const SbgemvArgs<T, X>& a = ga.base;
  const index_t y_len = a.y_len();
  const index_t nrhs = ga.total_nrhs();
  const auto alpha = detail::widen(a.alpha);
  for (index_t r = 0; r < nrhs; ++r) {
    const T* y = a.y + bz * a.stride_y + r * ga.rhs_stride_y;
    typename SbgemvVerify<T>::acc_t sum{};
    double y_mag = 0.0;
    for (index_t i = 0; i < y_len; ++i) {
      const auto yi = detail::widen(y[i]);
      sum += yi;
      y_mag += std::abs(yi);
    }
    const auto expect = alpha * verify.checksum_out[bz + a.batch * r];
    const double scale = y_mag + std::abs(expect) +
                         std::abs(alpha) * verify.scale_out[bz + a.batch * r];
    const double diff = std::abs(sum - expect);
    const double bound = verify.tolerance * scale;
    if (!(std::isfinite(diff) && diff <= bound)) fail->record(bz, r, diff, bound);
  }
}

/// Multi-RHS reference non-transpose body: each 64-row chunk streams
/// its matrix rows once; every RHS consumes a row before the next row
/// is touched.  Per-(row, RHS) arithmetic does not depend on nrhs.
template <class T, class X>
void gemv_n_reference_multi_block(const SbgemvMultiArgs<T, X>& ma, index_t bx,
                                  index_t bz) {
  const SbgemvArgs<T, X>& a = ma.base;
  const T* A = a.a + bz * a.stride_a;
  const index_t row_begin = bx * kRefRowsPerBlock;
  const index_t row_end = std::min(a.m, row_begin + kRefRowsPerBlock);
  for (index_t i = row_begin; i < row_end; ++i) {
    for (index_t r = 0; r < ma.nrhs; ++r) {
      const X* x = a.x + bz * a.stride_x + r * ma.rhs_stride_x;
      T* y = a.y + bz * a.stride_y + r * ma.rhs_stride_y;
      T acc{};
      for (index_t j = 0; j < a.n; ++j) {
        acc += A[i + j * a.lda] * detail::x_as<T>(x[j]);
      }
      y[i] = a.alpha * acc + (a.beta == T(0) ? T(0) : a.beta * y[i]);
    }
  }
}

/// Multi-RHS reference transpose body: gridblock bx's column is read
/// once and dotted against every RHS in turn (nrhs serial dot
/// products per block — the residency weight scales to match).
template <class T, class X>
void gemv_t_reference_multi_block(const SbgemvMultiArgs<T, X>& ma, index_t bx,
                                  index_t bz) {
  const SbgemvArgs<T, X>& a = ma.base;
  const T* col = a.a + bz * a.stride_a + bx * a.lda;
  const bool conj = a.op == Op::C;
  for (index_t r = 0; r < ma.nrhs; ++r) {
    const X* x = a.x + bz * a.stride_x + r * ma.rhs_stride_x;
    T* y = a.y + bz * a.stride_y + r * ma.rhs_stride_y;
    T acc{};
    for (index_t i = 0; i < a.m; ++i) {
      acc += detail::conj_if_complex_dispatch(col[i], conj) *
             detail::x_as<T>(x[i]);
    }
    y[bx] = a.alpha * acc + (a.beta == T(0) ? T(0) : a.beta * y[bx]);
  }
}

/// Multi-RHS optimized transpose body: column-outer, RHS-inner, so a
/// column tile is loaded once and reused by all nrhs vectors; each
/// (column, RHS) pair runs the same 64-lane strided accumulation
/// (coalesced loads) and shuffle-style wavefront tree reduction (6
/// halving steps), whatever nrhs is.
template <class T, class X>
void gemv_t_optimized_multi_block(const SbgemvMultiArgs<T, X>& ma, index_t bx,
                                  index_t bz) {
  const SbgemvArgs<T, X>& a = ma.base;
  const T* A = a.a + bz * a.stride_a;
  const bool conj = a.op == Op::C;
  const index_t col_begin = bx * kOptTileCols;
  const index_t col_end = std::min(a.n, col_begin + kOptTileCols);
  T lanes[kWavefront];
  for (index_t j = col_begin; j < col_end; ++j) {
    const T* col = A + j * a.lda;
    for (index_t r = 0; r < ma.nrhs; ++r) {
      const X* x = a.x + bz * a.stride_x + r * ma.rhs_stride_x;
      T* y = a.y + bz * a.stride_y + r * ma.rhs_stride_y;
      for (index_t l = 0; l < kWavefront; ++l) {
        T acc{};
        for (index_t i = l; i < a.m; i += kWavefront) {
          acc += detail::conj_if_complex_dispatch(col[i], conj) *
                 detail::x_as<T>(x[i]);
        }
        lanes[l] = acc;
      }
      for (index_t off = kWavefront / 2; off > 0; off /= 2) {
        for (index_t l = 0; l < off; ++l) lanes[l] += lanes[l + off];
      }
      y[j] = a.alpha * lanes[0] + (a.beta == T(0) ? T(0) : a.beta * y[j]);
    }
  }
}

}  // namespace fftmv::blas
