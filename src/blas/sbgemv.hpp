// Strided batched GEMV public API with host-side kernel dispatch.
//
// This is the library's rocBLAS-analogue entry point: one launcher,
// sbgemv_grouped, whose host dispatcher picks the kernel; sbgemv is
// its one-group, one-RHS spelling.  The dispatcher
// reproduces the integration path the paper describes (§3.1.1): the
// optimized short-and-wide kernel was inserted into the rocBLAS host
// dispatcher with transition points set from benchmark data, keeping
// application code unchanged.
#pragma once

#include <cstring>
#include <string>
#include <vector>

#include "blas/gemv_kernels.hpp"
#include "blas/gemv_types.hpp"
#include "device/device.hpp"
#include "device/stream.hpp"

namespace fftmv::blas {

namespace detail {

/// Map a FaultPlan buffer-write draw onto one element of the grouped
/// GEMV's output and flip the top exponent bit of one of its real
/// components.  The draw fully determines (batch entry, RHS, element,
/// component), so an injected corruption replays bit-identically.
/// Flipping the TOP exponent bit moves any finite value far outside
/// rounding noise (|v| < 2 becomes huge, |v| >= 2 collapses toward
/// zero, 0 becomes 2.0), so every injection is ABFT-detectable.
template <class T>
void corrupt_grouped_output(const SbgemvGroupedArgs<T>& args,
                            std::uint64_t draw) {
  using R = real_t<T>;
  const SbgemvArgs<T>& a = args.base;
  const std::uint64_t batch = static_cast<std::uint64_t>(a.batch);
  const std::uint64_t nrhs = static_cast<std::uint64_t>(args.total_nrhs());
  const std::uint64_t y_len = static_cast<std::uint64_t>(a.y_len());
  const index_t b = static_cast<index_t>(draw % batch);
  const index_t r = static_cast<index_t>((draw / batch) % nrhs);
  const index_t i = static_cast<index_t>((draw / (batch * nrhs)) % y_len);
  T* elem = a.y + b * a.stride_y + r * args.rhs_stride_y + i;
  // std::complex<R> is layout-compatible with R[2].
  R* comps = reinterpret_cast<R*>(elem);
  R& c = comps[is_complex_v<T> ? static_cast<int>((draw >> 62) & 1) : 0];
  if constexpr (sizeof(R) == 8) {
    std::uint64_t bits;
    std::memcpy(&bits, &c, sizeof(bits));
    bits ^= std::uint64_t{1} << 62;
    std::memcpy(&c, &bits, sizeof(bits));
  } else {
    std::uint32_t bits;
    std::memcpy(&bits, &c, sizeof(bits));
    bits ^= std::uint32_t{1} << 30;
    std::memcpy(&c, &bits, sizeof(bits));
  }
}

}  // namespace detail

/// Transition rule used by GemvKernelPolicy::kAuto for transpose-
/// family ops.  Derived from the Figure-1-style benchmark sweep
/// (bench/ablation_dispatch): the optimized kernel wins for short-
/// and-wide shapes and roughly ties on large square ones, so prefer
/// it whenever the matrix is skewed (m < n) or m is small enough
/// that the reference kernel is launch-bound.
bool use_optimized_transpose(index_t m, index_t n);

/// Select the kernel kind for the given arguments and policy.
template <class T>
GemvKernelKind select_kernel(const SbgemvArgs<T>& args, GemvKernelPolicy policy) {
  if (args.op == Op::N) return GemvKernelKind::kReferenceN;
  switch (policy) {
    case GemvKernelPolicy::kReference: return GemvKernelKind::kReferenceT;
    case GemvKernelPolicy::kOptimized: return GemvKernelKind::kOptimizedT;
    case GemvKernelPolicy::kAuto:
      return use_optimized_transpose(args.m, args.n)
                 ? GemvKernelKind::kOptimizedT
                 : GemvKernelKind::kReferenceT;
  }
  return GemvKernelKind::kReferenceT;
}

/// Grouped multi-operator multi-RHS batched GEMV — the library's one
/// GEMV launcher.  One launch applies several operators' matrices,
/// each to its own contiguous RHS group (the cuBLAS grouped-batched
/// interface idea — per-group matrix pointers cost little over
/// strided access); a single group of one RHS is the plain strided
/// batched GEMV (see sbgemv below).  Kernel selection uses the
/// policies and transition points above (the per-dot-product shape
/// does not depend on the RHS count); per-(batch, group, RHS)
/// arithmetic is the same for every grouping of the RHS, and one
/// group's modelled footprint is exactly gemv_multi_footprint's.
///
/// This is also the library's SDC boundary: every GEMV launch passes
/// through it.  An attached FaultPlan's buffer-write hook may silently
/// flip a bit of the output after the main launch; `verify.enabled`
/// arms the Huang-Abraham checksum defense (see SbgemvVerify): the
/// main launch is augmented with the checksum dots (block bodies
/// unchanged — verified outputs stay bit-identical), a second launch
/// checks them against y, and a mismatch beyond the calibrated
/// tolerance throws device::SilentCorruption.  Both extra costs are
/// charged through the cost model.
template <class T>
device::KernelTiming sbgemv_grouped(device::Stream& stream,
                                    const SbgemvGroupedArgs<T>& args,
                                    GemvKernelPolicy policy = GemvKernelPolicy::kAuto,
                                    const SbgemvVerify<T>& verify = {}) {
  const bool phantom = stream.device().phantom();
  args.validate(/*allow_null=*/phantom);
  if (verify.enabled) {
    if (args.base.beta != T(0)) {
      throw std::invalid_argument(
          "sbgemv_grouped: checksum verification requires beta == 0");
    }
    if (verify.tolerance < 0.0) {
      throw std::invalid_argument(
          "sbgemv_grouped: verify tolerance must be >= 0");
    }
    if (!phantom) {
      if (verify.checksum_out == nullptr || verify.scale_out == nullptr) {
        throw std::invalid_argument(
            "sbgemv_grouped: verify output buffers are null");
      }
      for (const auto& g : args.groups) {
        if (g.checksum == nullptr) {
          throw std::invalid_argument(
              "sbgemv_grouped: verify requires a checksum row per group");
        }
      }
    }
  }
  const SbgemvArgs<T>& base = args.base;
  const GemvKernelKind kind = select_kernel(base, policy);
  const auto geom = gemv_geometry(kind, base.m, base.n, base.batch);
  auto fp = gemv_grouped_footprint<T>(kind, base.m, base.n, base.batch,
                                      static_cast<index_t>(args.groups.size()),
                                      args.total_nrhs());
  if (verify.enabled) {
    const auto extra = gemv_checksum_extra_footprint<T>(
        base.x_len(), base.batch, static_cast<index_t>(args.groups.size()),
        args.total_nrhs());
    fp.bytes_read += extra.bytes_read;
    fp.bytes_written += extra.bytes_written;
    fp.flops += extra.flops;
  }
  // Each group's kernel arguments, sliced once per launch rather than
  // once per gridblock (the stream runs the blocks before launch
  // returns, so the body may borrow them).
  std::vector<SbgemvMultiArgs<T>> slices;
  slices.reserve(args.groups.size());
  index_t r0 = 0;
  for (const auto& g : args.groups) {
    slices.push_back(args.group_slice(g.a, r0, g.nrhs));
    r0 += g.nrhs;
  }
  // Gridblock (bx, bz) runs the kernel kind's multi-RHS body on each
  // group in turn — so per-(group, RHS) arithmetic, summation order
  // included, does not depend on how the RHS are grouped — then each
  // batch entry's bx == 0 block computes the checksum dots.
  const auto run = [&](auto multi_body) {
    return stream.launch(geom, fp, [&](index_t bx, index_t, index_t bz) {
      for (const auto& slice : slices) multi_body(slice, bx, bz);
      if (verify.enabled && bx == 0) {
        gemv_grouped_checksum_block(args, verify, bz);
      }
    });
  };
  device::KernelTiming timing{};
  switch (kind) {
    case GemvKernelKind::kReferenceN:
      timing = run([](const SbgemvMultiArgs<T>& a, index_t bx, index_t bz) {
        gemv_n_reference_multi_block(a, bx, bz);
      });
      break;
    case GemvKernelKind::kReferenceT:
      timing = run([](const SbgemvMultiArgs<T>& a, index_t bx, index_t bz) {
        gemv_t_reference_multi_block(a, bx, bz);
      });
      break;
    case GemvKernelKind::kOptimizedT:
      timing = run([](const SbgemvMultiArgs<T>& a, index_t bx, index_t bz) {
        gemv_t_optimized_multi_block(a, bx, bz);
      });
      break;
  }
  // SDC injection site: an attached FaultPlan may corrupt the output
  // buffer after the (apparently successful) main launch.  Consulted
  // unconditionally — with verification off, the corruption goes
  // undetected, which is exactly the baseline the bench contrasts.
  if (!phantom && args.base.y != nullptr) {
    if (const auto plan = stream.device().fault_plan()) {
      if (const auto draw = plan->on_buffer_write()) {
        detail::corrupt_grouped_output(args, *draw);
      }
    }
  }
  if (verify.enabled) {
    GemvVerifyFailure fail;
    GemvVerifyFailure* fail_ptr = &fail;
    const SbgemvArgs<T>& base = args.base;
    const device::LaunchGeometry vgeom{.grid_x = 1,
                                       .grid_y = 1,
                                       .grid_z = base.batch,
                                       .block_threads = 64};
    const auto vfp =
        gemv_verify_footprint<T>(base.y_len(), base.batch, args.total_nrhs());
    stream.launch(vgeom, vfp, [args, verify, fail_ptr](index_t, index_t,
                                                       index_t bz) {
      gemv_grouped_verify_block(args, verify, fail_ptr, bz);
    });
    if (!phantom && fail.count > 0) {
      throw device::SilentCorruption(
          "sbgemv-checksum",
          "batch entry " + std::to_string(fail.batch_entry) + ", rhs " +
              std::to_string(fail.rhs) + ": |sum(y) - checksum| = " +
              std::to_string(fail.diff) + " exceeds bound " +
              std::to_string(fail.bound) + " (" +
              std::to_string(fail.count) + " failing column(s))");
    }
  }
  return timing;
}

/// The plain strided batched GEMV (rocblas_Xgemv_strided_batched
/// shape): one group of one RHS through sbgemv_grouped, so it shares
/// the grouped launcher's kernel dispatch, modelled footprint and
/// SDC site.  Returns the simulated kernel timing (used by the
/// benchmarks for achieved-bandwidth reporting, mirroring
/// rocblas-bench).
template <class T>
device::KernelTiming sbgemv(device::Stream& stream, const SbgemvArgs<T>& args,
                            GemvKernelPolicy policy = GemvKernelPolicy::kAuto) {
  const SbgemvGroup<T> group{args.a, 1};
  return sbgemv_grouped(stream, SbgemvGroupedArgs<T>{args, 0, 0, {&group, 1}},
                        policy);
}

/// Plain single-threaded host GEMV used as the correctness reference
/// in tests; accumulates in (complex) double regardless of T.
template <class T>
void sbgemv_host_reference(const SbgemvArgs<T>& args);

}  // namespace fftmv::blas
