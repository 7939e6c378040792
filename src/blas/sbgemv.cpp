#include "blas/sbgemv.hpp"

#include <complex>

namespace fftmv::blas {

bool use_optimized_transpose(index_t m, index_t n) {
  // Transition points from bench/ablation_dispatch on the MI300X
  // spec: the reference transpose kernel is launch-bound until each
  // block's dot product is long enough to cover the residency floor,
  // which happens around m ~ 1000; for skewed matrices (m < n) the
  // optimized tiling always wins or ties.
  return m < n || m <= 1024;
}

bool use_split_columns(index_t m, index_t n) {
  // Transition points from bench/ablation_dispatch's non-transpose
  // table on the MI300X spec.  While the rows fit one 64-row block
  // the reference grid is one block per batch entry, and for m < n
  // the split kernel wins there (up to 5.6x at 16 x 5000, batch 41)
  // in every cell but one corner, complex single at m = 6 and batch
  // 1001, where its 6 x 32 tiles fall under the per-block residency
  // floor (0.92-0.98x).  With two or more row tiles the reference
  // grid is already wide: the split wins only at small batches and
  // ties at the paper's 100 x 5000, batch 1001, on the MI300X, where
  // the reference kernel's last wave is partly empty — but loses 2%
  // (MI250X) and 4% (MI355X) there, whose wave counts come out
  // nearly whole (fig2_breakdown), so it keeps the reference kernel.
  // Beyond 65535 column tiles the split grid cannot launch.
  return m < n && m <= kRefRowsPerBlock && gemv_split_fits(n);
}

namespace {

template <class T>
using acc_t = std::conditional_t<is_complex_v<T>, std::complex<double>, double>;

template <class T>
acc_t<T> widen(const T& v) {
  if constexpr (is_complex_v<T>) {
    return std::complex<double>(v.real(), v.imag());
  } else {
    return static_cast<double>(v);
  }
}

template <class T>
T narrow(const acc_t<T>& v) {
  if constexpr (is_complex_v<T>) {
    using R = real_t<T>;
    return T(static_cast<R>(v.real()), static_cast<R>(v.imag()));
  } else {
    return static_cast<T>(v);
  }
}

}  // namespace

template <class T>
void sbgemv_host_reference(const SbgemvArgs<T>& args) {
  args.validate();
  for (index_t b = 0; b < args.batch; ++b) {
    const T* A = args.a + b * args.stride_a;
    const T* x = args.x + b * args.stride_x;
    T* y = args.y + b * args.stride_y;
    const index_t ylen = args.y_len();
    for (index_t k = 0; k < ylen; ++k) {
      acc_t<T> acc{};
      if (args.op == Op::N) {
        for (index_t j = 0; j < args.n; ++j) {
          acc += widen(A[k + j * args.lda]) * widen(x[j]);
        }
      } else {
        const T* col = A + k * args.lda;
        const bool conj = args.op == Op::C;
        for (index_t i = 0; i < args.m; ++i) {
          acc_t<T> aij = widen(col[i]);
          if constexpr (is_complex_v<T>) {
            if (conj) aij = std::conj(aij);
          }
          acc += aij * widen(x[i]);
        }
      }
      acc_t<T> out = widen(args.alpha) * acc;
      if (args.beta != T(0)) out += widen(args.beta) * widen(y[k]);
      y[k] = narrow<T>(out);
    }
  }
}

template void sbgemv_host_reference<float>(const SbgemvArgs<float>&);
template void sbgemv_host_reference<double>(const SbgemvArgs<double>&);
template void sbgemv_host_reference<cfloat>(const SbgemvArgs<cfloat>&);
template void sbgemv_host_reference<cdouble>(const SbgemvArgs<cdouble>&);

}  // namespace fftmv::blas
