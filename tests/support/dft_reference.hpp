// Naive O(N^2) discrete Fourier transform (test support): the ground
// truth of the FFT unit/property tests.  Accumulates in double
// regardless of the working precision to provide a high-accuracy
// reference.
#pragma once

#include <cmath>
#include <complex>
#include <vector>

#include "util/types.hpp"

namespace fftmv::fft {

/// Unnormalised DFT: out[k] = sum_j in[j] * exp(sign * 2*pi*i*j*k/n).
/// sign = -1 is the forward transform.
template <class Real>
std::vector<std::complex<Real>> dft_reference(
    const std::vector<std::complex<Real>>& in, int sign) {
  const auto n = static_cast<index_t>(in.size());
  std::vector<std::complex<Real>> out(in.size());
  const double theta0 = static_cast<double>(sign) * 2.0 * M_PI / static_cast<double>(n);
  for (index_t k = 0; k < n; ++k) {
    std::complex<double> acc{0.0, 0.0};
    for (index_t j = 0; j < n; ++j) {
      const double theta = theta0 * static_cast<double>((j * k) % n);
      const std::complex<double> w{std::cos(theta), std::sin(theta)};
      acc += std::complex<double>(in[j]) * w;
    }
    out[k] = std::complex<Real>(static_cast<Real>(acc.real()),
                                static_cast<Real>(acc.imag()));
  }
  return out;
}

/// Real-input forward DFT keeping the n/2+1 non-redundant bins.
template <class Real>
std::vector<std::complex<Real>> dft_reference_r2c(const std::vector<Real>& in) {
  const auto n = static_cast<index_t>(in.size());
  std::vector<std::complex<Real>> out(static_cast<std::size_t>(n / 2 + 1));
  const double theta0 = -2.0 * M_PI / static_cast<double>(n);
  for (index_t k = 0; k <= n / 2; ++k) {
    std::complex<double> acc{0.0, 0.0};
    for (index_t j = 0; j < n; ++j) {
      const double theta = theta0 * static_cast<double>((j * k) % n);
      acc += static_cast<double>(in[j]) *
             std::complex<double>{std::cos(theta), std::sin(theta)};
    }
    out[static_cast<std::size_t>(k)] = std::complex<Real>(
        static_cast<Real>(acc.real()), static_cast<Real>(acc.imag()));
  }
  return out;
}

}  // namespace fftmv::fft
