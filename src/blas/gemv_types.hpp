// Shared argument and policy types for the strided batched GEMV.
#pragma once

#include <complex>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "util/types.hpp"

namespace fftmv::blas {

/// BLAS operation selector: N = no transpose, T = transpose,
/// C = conjugate transpose (identical to T for real datatypes).
enum class Op { N, T, C };

inline const char* op_name(Op op) {
  switch (op) {
    case Op::N: return "N";
    case Op::T: return "T";
    case Op::C: return "C";
  }
  return "?";
}

/// Which SBGEMV implementation to run, for every op.
///   kAuto       host dispatcher picks from the matrix shape, using the
///               transition points established from benchmark data
///               (paper §4.1.1; bench/ablation_dispatch),
///   kReference  the original rocBLAS-style kernels,
///   kOptimized  the short-and-wide kernels: the paper's tiled
///               transpose kernel (§3.1.1) for T and C, the
///               split-column kernel for N.
enum class GemvKernelPolicy { kAuto, kReference, kOptimized };

/// Arguments of a column-major strided batched GEMV
/// (rocblas_Xgemv_strided_batched analogue, incx = incy = 1):
///   op == N: y_b[m] = alpha * A_b        * x_b[n] + beta * y_b
///   op == T: y_b[n] = alpha * A_b^T      * x_b[m] + beta * y_b
///   op == C: y_b[n] = alpha * A_b^H      * x_b[m] + beta * y_b
/// with A_b = A + b*stride_a (m x n, leading dimension lda), and the
/// vectors advancing by their strides per batch index.
///
/// x may be stored in another precision than the matrix: X is its
/// element type (T by default).  Every x element is cast to T as it
/// is read, before any arithmetic, so the kernel computes exactly as
/// if x had first been cast to T, and x's traffic is counted at
/// sizeof(X).  The FFT matvec reads its phase-2 spectrum this way.
template <class T, class X = T>
struct SbgemvArgs {
  Op op = Op::N;
  index_t m = 0;
  index_t n = 0;
  T alpha = T(1);
  const T* a = nullptr;
  index_t lda = 0;
  index_t stride_a = 0;
  const X* x = nullptr;
  index_t stride_x = 0;
  T beta = T(0);
  T* y = nullptr;
  index_t stride_y = 0;
  index_t batch = 1;

  index_t x_len() const { return op == Op::N ? n : m; }
  index_t y_len() const { return op == Op::N ? m : n; }

  /// `allow_null` is set by phantom (dry-run) devices whose buffers
  /// are capacity-tracked but unbacked.
  void validate(bool allow_null = false) const {
    if (m <= 0 || n <= 0 || batch <= 0) {
      throw std::invalid_argument("sbgemv: m, n, batch must be positive");
    }
    if (lda < m) throw std::invalid_argument("sbgemv: lda < m");
    if (!allow_null && (a == nullptr || x == nullptr || y == nullptr)) {
      throw std::invalid_argument("sbgemv: null pointer operand");
    }
    if (batch > 1 && (stride_a < lda * n)) {
      throw std::invalid_argument("sbgemv: stride_a too small for batch > 1");
    }
  }
};

/// Shared multi-RHS y-write aliasing rule (used by SbgemvMultiArgs
/// and the half-storage path): the output vectors are separated iff
/// one of the two orderings — RHS-inner (batch stride spans all RHS)
/// or batch-inner (RHS stride spans the whole batch) — holds.
/// Overlapping x reads are legal (shared inputs).
inline bool multi_rhs_y_strides_alias(index_t stride_y, index_t rhs_stride_y,
                                      index_t y_len, index_t batch,
                                      index_t nrhs) {
  const bool rhs_inner = stride_y >= (nrhs - 1) * rhs_stride_y + y_len;
  const bool batch_inner = rhs_stride_y >= (batch - 1) * stride_y + y_len;
  return batch > 1 && nrhs > 1 && !rhs_inner && !batch_inner;
}

/// One matrix's multi-RHS slice of a grouped GEMV (the kernel bodies'
/// per-group argument, see SbgemvGroupedArgs::group_slice): every
/// batch entry's matrix A_b is applied to `nrhs` right-hand sides,
///   x_{b,r} = x + b*stride_x + r*rhs_stride_x,
///   y_{b,r} = y + b*stride_y + r*rhs_stride_y,
/// with arithmetic per (b, r) identical to a single-RHS GEMV
/// (bit-exact vs nrhs independent sbgemv calls).  The kernels load
/// each matrix tile once and stream all nrhs vectors through it, so
/// the dominant matrix traffic is paid once per batch entry instead
/// of once per RHS — the batched-execution amortisation the FFT
/// matvec's apply_batch builds on.
template <class T, class X = T>
struct SbgemvMultiArgs {
  SbgemvArgs<T, X> base;
  index_t nrhs = 1;
  index_t rhs_stride_x = 0;
  index_t rhs_stride_y = 0;

  void validate(bool allow_null = false) const {
    base.validate(allow_null);
    if (nrhs <= 0) throw std::invalid_argument("sbgemv: nrhs must be >= 1");
    if (nrhs > 1) {
      if (rhs_stride_x < base.x_len() || rhs_stride_y < base.y_len()) {
        throw std::invalid_argument("sbgemv: RHS strides overlap the vectors");
      }
      if (multi_rhs_y_strides_alias(base.stride_y, rhs_stride_y, base.y_len(),
                                    base.batch, nrhs)) {
        throw std::invalid_argument(
            "sbgemv: y strides alias across batch entries");
      }
    }
  }
};

/// One operator group of a grouped multi-RHS GEMV: `nrhs` contiguous
/// right-hand sides sharing one matrix base pointer.  Batch entry b
/// of the group reads a + b*stride_a, exactly like SbgemvArgs::a.
///
/// `checksum` is the group's ABFT encoding vector (Huang-Abraham),
/// consulted only when the call carries an enabled SbgemvVerify:
/// batch entry b reads checksum + b*x_len.  For op == N the entries
/// are the matrix's column sums (sum of y equals checksum . x); for
/// op == C they are its row sums (the kernel conjugates them, so sum
/// of y equals conj(checksum) . x).
template <class T>
struct SbgemvGroup {
  const T* a = nullptr;
  index_t nrhs = 0;
  const T* checksum = nullptr;
};

/// ABFT verification request for sbgemv_grouped (the Huang-Abraham
/// column-checksum scheme).  When enabled, the main launch is
/// augmented to also compute, per (batch entry, RHS), the checksum
/// dot `checksum . x` and a magnitude estimate `sum |checksum_j x_j|`
/// — both accumulated in double and written to checksum_out /
/// scale_out at index [b + batch * r].  The kernel that next reads y
/// compares `sum_i y_i` against `alpha * dot` within
/// `tolerance * scale` (gemv_grouped_verify_block), and
/// throw_if_checksum_failed raises device::SilentCorruption on a
/// mismatch.  Requires beta == 0 (a carried-in y has no checksum).
/// The block bodies of the main launch are unchanged, so verified
/// outputs are bit-identical to unverified ones.
template <class T>
struct SbgemvVerify {
  /// Double-width accumulator type used for the checksum dots.
  using acc_t = std::conditional_t<is_complex_v<T>, cdouble, double>;

  bool enabled = false;
  /// [batch * total_nrhs] checksum dots, index b + batch * r.
  acc_t* checksum_out = nullptr;
  /// [batch * total_nrhs] magnitude estimates, same layout.
  double* scale_out = nullptr;
  /// Relative tolerance from core::verify_tolerances — calibrated so
  /// legitimate mixed-precision rounding never trips it.
  double tolerance = 0.0;
};

/// Grouped extension of the multi-RHS strided batched GEMV (the
/// cuBLAS grouped-batched-GEMM idea applied to SBGEMV): the RHS
/// dimension is partitioned into contiguous groups, each carrying its
/// own matrix base pointer, so one launch serves several operators.
/// The vector layout is exactly SbgemvMultiArgs with
/// nrhs = total_nrhs() — RHS r of group g lives at global index
/// (sum of earlier groups' nrhs) + r — and per-(batch, group, RHS)
/// arithmetic is bit-identical to one grouped call per group.
/// base.a is ignored; each group's matrix is (re)read once per batch
/// entry, so the modelled matrix traffic scales with the group count
/// while vector traffic scales with the total RHS count.
template <class T, class X = T>
struct SbgemvGroupedArgs {
  SbgemvArgs<T, X> base;
  index_t rhs_stride_x = 0;
  index_t rhs_stride_y = 0;
  std::span<const SbgemvGroup<T>> groups;

  index_t total_nrhs() const {
    index_t total = 0;
    for (const auto& g : groups) total += g.nrhs;
    return total;
  }

  /// Elements the output vectors span from base.y: one past the last
  /// (batch entry, RHS) element.
  index_t y_extent() const {
    return (base.batch - 1) * base.stride_y + (total_nrhs() - 1) * rhs_stride_y +
           base.y_len();
  }

  /// The SbgemvMultiArgs equivalent of one group: matrix `a`, RHS
  /// range [r0, r0 + nrhs).  The kernels run every group through
  /// this, which is what makes the grouped call bit-identical to one
  /// call per group.
  SbgemvMultiArgs<T, X> group_slice(const T* a, index_t r0, index_t nrhs) const {
    SbgemvMultiArgs<T, X> ma{base, nrhs, rhs_stride_x, rhs_stride_y};
    ma.base.a = a;
    ma.base.x = base.x == nullptr ? nullptr : base.x + r0 * rhs_stride_x;
    ma.base.y = base.y == nullptr ? nullptr : base.y + r0 * rhs_stride_y;
    return ma;
  }

  void validate(bool allow_null = false) const {
    if (groups.empty()) {
      throw std::invalid_argument("sbgemv_grouped: need at least one group");
    }
    for (const auto& g : groups) {
      if (g.nrhs <= 0) {
        throw std::invalid_argument("sbgemv_grouped: group nrhs must be >= 1");
      }
      if (!allow_null && g.a == nullptr) {
        throw std::invalid_argument("sbgemv_grouped: null group matrix");
      }
    }
    // The strided layout rules are those of the equivalent flat
    // multi-RHS call spanning every group.
    SbgemvMultiArgs<T, X> flat{base, total_nrhs(), rhs_stride_x, rhs_stride_y};
    flat.base.a = groups.front().a;
    flat.validate(allow_null);
  }
};

}  // namespace fftmv::blas
