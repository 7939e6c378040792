// Cast kernels and cast-fused memory operations (paper §3.2).
//
// "At all possible points, the casting kernels are fused with any
// nearby memory operations (zero-padding, unpadding, etc.) to reduce
// kernel launch latencies" — every kernel here reads in the source
// precision and writes in the destination precision in a single
// launch, so a precision change never costs an extra pass over
// memory.  With S == D they degenerate to the plain memory op.
//
// The phase-1 pad and phase-5 unpad also come RHS-batched, for the
// multi-RHS five-phase apply: one launch covers a whole batch, its
// gridblocks spanning (row block, RHS), and reads (pad) or writes
// (unpad) each right-hand side's own caller vector through a pointer
// list passed as a kernel argument.  The value on its way between the
// caller's double vector and the pipeline is rounded through the
// adjacent phase's precision P inside the kernel, so neither a
// staging cast nor an output copy is launched per RHS: a batch pays
// one launch per stage whatever its size.  The fused matvec folds the
// pad into its forward FFT's sample loads and the unpad into its
// inverse FFT's sample stores, so the batched pad and unpad, like the
// Fourier reorder, now serve only the fusion ablation.
#pragma once

#include <algorithm>
#include <complex>
#include <cstddef>
#include <span>
#include <type_traits>

#include "device/stream.hpp"
#include "util/math.hpp"
#include "util/types.hpp"

namespace fftmv::precision {

/// static_cast between real scalars or between complex scalars of
/// different component widths.
template <class D, class S>
constexpr D convert_scalar(const S& v) {
  if constexpr (is_complex_v<S>) {
    static_assert(is_complex_v<D>, "cannot convert complex to real");
    using R = real_t<D>;
    return D(static_cast<R>(v.real()), static_cast<R>(v.imag()));
  } else {
    static_assert(!is_complex_v<D>, "cannot convert real to complex");
    return static_cast<D>(v);
  }
}

namespace detail {

template <class S, class D>
device::KernelFootprint streaming_footprint(double count_in, double count_out) {
  device::KernelFootprint fp;
  fp.bytes_read = count_in * sizeof(S);
  fp.bytes_written = count_out * sizeof(D);
  // Memory ops run at the width of the wider involved precision for
  // derate selection; traffic volume already reflects the mix.
  fp.fp64_path = sizeof(real_t<S>) == 8 || sizeof(real_t<D>) == 8;
  fp.vector_load_bytes = static_cast<int>(
      std::min<std::size_t>(std::max(sizeof(S), sizeof(D)), 16));
  fp.coalescing_efficiency = 0.85;
  return fp;
}

inline device::LaunchGeometry grid1d(index_t n) {
  return {.grid_x = util::ceil_div(n, index_t{4096}),
          .grid_y = 1,
          .grid_z = 1,
          .block_threads = 256};
}

}  // namespace detail

/// dst[i] = cast(src[i]).  The plain cast, used for the operator
/// setup copy and the separate casts of the fusion ablation.
template <class D, class S>
device::KernelTiming convert_array(device::Stream& stream, const S* src, D* dst,
                                   index_t n) {
  const auto geom = detail::grid1d(n);
  auto fp = detail::streaming_footprint<S, D>(static_cast<double>(n),
                                              static_cast<double>(n));
  return stream.launch(geom, fp, [=](index_t bx, index_t, index_t) {
    const index_t begin = bx * 4096;
    const index_t end = std::min(n, begin + 4096);
    for (index_t i = begin; i < end; ++i) dst[i] = convert_scalar<D>(src[i]);
  });
}

/// Phase-1 fused kernel over a batch of right-hand sides: TOSI -> SOTI
/// transpose + zero-pad + cast, one launch, gridblocks over (row
/// block, RHS).
///   srcs[r]: RHS r's time-outer (nt x ns) row-major vector, precision S
///   dst:     space-outer (ns x L) row-major blocks, precision D, RHS r
///            at dst + r*ns*L;
///            dst_r[s][t] = D(P(src_r[t][s])) for t < nt, 0 for
///            nt <= t < L,
/// so each value carries the rounding of the cast precision P (the
/// phase-1 precision: the caller's double input is rounded double ->
/// p1 -> p2 in-kernel).
template <class P, class S, class D>
device::KernelTiming transpose_pad_cast(device::Stream& stream,
                                        std::span<const S* const> srcs, D* dst,
                                        index_t nt, index_t ns, index_t L) {
  const index_t rows_per_block = 8;
  const index_t b = static_cast<index_t>(srcs.size());
  const device::LaunchGeometry geom{.grid_x = util::ceil_div(ns, rows_per_block),
                                    .grid_y = b,
                                    .grid_z = 1,
                                    .block_threads = 256};
  auto fp = detail::streaming_footprint<S, D>(
      static_cast<double>(b * nt) * static_cast<double>(ns),
      static_cast<double>(b * L) * static_cast<double>(ns));
  return stream.launch(geom, fp, [=](index_t bx, index_t by, index_t) {
    const S* src = srcs[static_cast<std::size_t>(by)];
    D* out = dst + by * ns * L;
    const index_t s0 = bx * rows_per_block;
    const index_t s1 = std::min(ns, s0 + rows_per_block);
    for (index_t s = s0; s < s1; ++s) {
      D* row = out + s * L;
      for (index_t t = 0; t < nt; ++t) {
        row[t] = convert_scalar<D>(convert_scalar<P>(src[t * ns + s]));
      }
      for (index_t t = nt; t < L; ++t) row[t] = D{};
    }
  });
}

/// Single-vector form: src (nt x ns, precision S) -> dst (ns x L,
/// precision D).
template <class D, class S>
device::KernelTiming transpose_pad_cast(device::Stream& stream, const S* src,
                                        D* dst, index_t nt, index_t ns,
                                        index_t L) {
  const S* const srcs[] = {src};
  return transpose_pad_cast<D>(stream, std::span<const S* const>(srcs), dst, nt,
                               ns, L);
}

/// Phase-5 fused kernel over a batch of right-hand sides: unpad +
/// SOTI -> TOSI transpose + cast, one launch, gridblocks over (row
/// block, RHS).
///   src:     space-outer (ns x L) row-major blocks, precision S, RHS r
///            at src + r*ns*L
///   dsts[r]: RHS r's time-outer (nt x ns) row-major vector, precision
///            D; dst_r[t][s] = D(P(src_r[s][t])) for t < nt (padding
///            tail dropped),
/// so each value carries the rounding of the cast precision P (the
/// phase-5 precision: written straight into the caller's double
/// output, it is rounded p4 -> p5 -> double in-kernel).
template <class P, class S, class D>
device::KernelTiming unpad_transpose_cast(device::Stream& stream, const S* src,
                                          std::span<D* const> dsts, index_t nt,
                                          index_t ns, index_t L) {
  const index_t rows_per_block = 8;
  const index_t b = static_cast<index_t>(dsts.size());
  const device::LaunchGeometry geom{.grid_x = util::ceil_div(ns, rows_per_block),
                                    .grid_y = b,
                                    .grid_z = 1,
                                    .block_threads = 256};
  auto fp = detail::streaming_footprint<S, D>(
      static_cast<double>(b * nt) * static_cast<double>(ns),
      static_cast<double>(b * nt) * static_cast<double>(ns));
  return stream.launch(geom, fp, [=](index_t bx, index_t by, index_t) {
    const S* in = src + by * ns * L;
    D* dst = dsts[static_cast<std::size_t>(by)];
    const index_t s0 = bx * rows_per_block;
    const index_t s1 = std::min(ns, s0 + rows_per_block);
    for (index_t s = s0; s < s1; ++s) {
      const S* row = in + s * L;
      for (index_t t = 0; t < nt; ++t) {
        dst[t * ns + s] = convert_scalar<D>(convert_scalar<P>(row[t]));
      }
    }
  });
}

/// Single-vector form: src (ns x L, precision S) -> dst (nt x ns,
/// precision D).
template <class D, class S>
device::KernelTiming unpad_transpose_cast(device::Stream& stream, const S* src,
                                          D* dst, index_t nt, index_t ns,
                                          index_t L) {
  D* const dsts[] = {dst};
  return unpad_transpose_cast<D>(stream, src, std::span<D* const>(dsts), nt, ns,
                                 L);
}

/// Fourier-space reorder: (rows x cols) -> (cols x rows) transpose
/// with cast; the fusion ablation's SOTI<->TOSI moves around the
/// SBGEMV.
/// "All memory operations ... are performed in the lowest possible
/// precision among the compute precisions of adjacent phases": the
/// caller passes S = producer precision, D = consumer precision, and
/// the traffic is S-read + D-write — no wider intermediate exists.
///
/// `row_check(r0, r1)`, when given, also runs once per row tile, on
/// its bx == 0 gridblock, over the tile's source rows [r0, r1): work
/// that must see the rows as this kernel reads them rides the launch
/// instead of costing its own.  `check_fp` is that work's extra
/// traffic and flops.  In the fusion ablation the phase-3 output
/// reorder, the first kernel to read the GEMV's output after its
/// write-back, carries the ABFT checksum compare this way (see
/// blas::sbgemv_grouped).
template <class D, class S, class RowCheck = std::nullptr_t>
device::KernelTiming transpose_cast(device::Stream& stream, const S* src, D* dst,
                                    index_t rows, index_t cols,
                                    RowCheck row_check = nullptr,
                                    const device::KernelFootprint& check_fp = {}) {
  constexpr bool checked = !std::is_null_pointer_v<RowCheck>;
  const index_t tile = 32;
  const device::LaunchGeometry geom{.grid_x = util::ceil_div(cols, tile),
                                    .grid_y = util::ceil_div(rows, tile),
                                    .grid_z = 1,
                                    .block_threads = 256};
  auto fp = detail::streaming_footprint<S, D>(
      static_cast<double>(rows) * static_cast<double>(cols),
      static_cast<double>(rows) * static_cast<double>(cols));
  if constexpr (checked) {
    fp.bytes_read += check_fp.bytes_read;
    fp.bytes_written += check_fp.bytes_written;
    fp.flops += check_fp.flops;
  }
  return stream.launch(geom, fp, [=](index_t bx, index_t by, index_t) {
    const index_t r0 = by * tile, r1 = std::min(rows, r0 + tile);
    const index_t c0 = bx * tile, c1 = std::min(cols, c0 + tile);
    for (index_t r = r0; r < r1; ++r) {
      for (index_t c = c0; c < c1; ++c) {
        dst[c * rows + r] = convert_scalar<D>(src[r * cols + c]);
      }
    }
    if constexpr (checked) {
      if (bx == 0) row_check(r0, r1);
    }
  });
}

}  // namespace fftmv::precision
