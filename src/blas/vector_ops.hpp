// Level-1 vector operations (host) used by the application layer
// (CG solver, Hessian assembly) and by tests/benches for error
// metrics.
#pragma once

#include <cmath>
#include <stdexcept>

#include "util/types.hpp"

namespace fftmv::blas {

template <class T>
void axpy(index_t n, T alpha, const T* x, T* y) {
  for (index_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

template <class T>
T dot(index_t n, const T* x, const T* y) {
  T acc{};
  for (index_t i = 0; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

template <class T>
double nrm2(index_t n, const T* x) {
  double acc = 0.0;
  for (index_t i = 0; i < n; ++i) {
    if constexpr (is_complex_v<T>) {
      acc += static_cast<double>(std::norm(x[i]));
    } else {
      const double v = static_cast<double>(x[i]);
      acc += v * v;
    }
  }
  return std::sqrt(acc);
}

/// || a - b ||_2 / || b ||_2, the relative-error metric used for the
/// Pareto analysis (mixed-precision output vs double baseline).
template <class T>
double relative_l2_error(index_t n, const T* a, const T* b) {
  double num = 0.0, den = 0.0;
  for (index_t i = 0; i < n; ++i) {
    if constexpr (is_complex_v<T>) {
      num += static_cast<double>(std::norm(a[i] - b[i]));
      den += static_cast<double>(std::norm(b[i]));
    } else {
      const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
      const double r = static_cast<double>(b[i]);
      num += d * d;
      den += r * r;
    }
  }
  if (den == 0.0) return num == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
  return std::sqrt(num / den);
}

}  // namespace fftmv::blas
