// Real-to-complex (R2C) and complex-to-real (C2R) transforms.
//
// Even lengths use the packed-pair algorithm: the length-L real
// sequence is viewed as a length-L/2 complex sequence, transformed
// with the complex engine, and unpacked to the L/2+1 non-redundant
// bins.  This is the transform shape the matvec pipeline relies on:
// with L = 2*N_t padding, the spectrum has exactly N_t + 1 bins,
// which is why the paper's Phase-3 SBGEMV operates on batches of
// N_t + 1 matrices (§3.1.1).
//
// The forward transform is unnormalised; `inverse` applies the 1/L
// scaling so that inverse(forward(x)) == x up to rounding, matching
// the IFFT operator norm 1/sqrt(L) used in the paper's error
// analysis (§3.2.1).
//
// Both directions also take their I/O through callbacks, the shape of
// cuFFT/rocFFT load and store callbacks: the inputs are read and the
// outputs handed on wherever and in whatever precision the caller
// keeps them, with the transform's arithmetic unchanged.  Every
// sample a forward transform reads goes through its load, a padding
// zero included, so a load that returns 0 past the data feeds the
// same arithmetic as an explicitly zero-padded buffer.
#pragma once

#include <cmath>
#include <complex>
#include <concepts>
#include <stdexcept>

#include "fft/complex_engine.hpp"
#include "fft/scratch.hpp"

namespace fftmv::fft {

template <class Real>
class RealFftEngine {
 public:
  using C = std::complex<Real>;

  explicit RealFftEngine(index_t length)
      : L_(length),
        packed_(length % 2 == 0 && length >= 2),
        engine_(packed_ ? length / 2 : length) {
    if (length <= 0) throw std::invalid_argument("RealFftEngine: length must be >= 1");
    if (packed_) {
      const index_t n = L_ / 2;
      unpack_tw_.resize(static_cast<std::size_t>(n + 1));
      const double theta0 = -2.0 * M_PI / static_cast<double>(L_);
      for (index_t k = 0; k <= n; ++k) {
        const double theta = theta0 * static_cast<double>(k);
        unpack_tw_[static_cast<std::size_t>(k)] = C(
            static_cast<Real>(std::cos(theta)), static_cast<Real>(std::sin(theta)));
      }
    }
  }

  index_t length() const { return L_; }
  /// Number of non-redundant spectrum bins: floor(L/2) + 1.
  index_t spectrum_size() const { return L_ / 2 + 1; }

  /// out[k] = sum_j in[j] exp(-2 pi i j k / L), k in [0, L/2].
  void forward(const Real* in, C* out, FftScratch<Real>& scratch) const {
    forward([in](index_t j) { return in[j]; },
            [out](index_t k, const C& v) { out[k] = v; }, scratch);
  }

  /// The same forward with callback I/O: sample j (j in [0, L)) is
  /// read as load(j), which returns Real, exactly once, in increasing
  /// j, and bin k (k in [0, L/2]) is handed to store(k, v) exactly
  /// once, in increasing k.
  template <class Load, class Store>
    requires std::invocable<Load&, index_t> && std::invocable<Store&, index_t, const C&>
  void forward(Load&& load, Store&& store, FftScratch<Real>& scratch) const {
    if (packed_) {
      forward_packed(load, store, scratch);
    } else {
      forward_direct(load, store, scratch);
    }
  }

  /// Exact inverse of `forward` including the 1/L scaling.  `in`
  /// holds L/2+1 bins of a conjugate-symmetric spectrum.
  void inverse(const C* in, Real* out, FftScratch<Real>& scratch) const {
    inverse([in](index_t k) { return in[k]; },
            [out](index_t j, Real v) { out[j] = v; }, scratch);
  }

  /// The same inverse with callback I/O: bin k (k in [0, L/2]) is
  /// read as load(k), which returns C, and sample j is handed to
  /// store(j, v) exactly once, in increasing j.
  template <class Load, class Store>
    requires std::invocable<Load&, index_t> && std::invocable<Store&, index_t, Real>
  void inverse(Load&& load, Store&& store, FftScratch<Real>& scratch) const {
    if (packed_) {
      inverse_packed(load, store, scratch);
    } else {
      inverse_direct(load, store, scratch);
    }
  }

  double flops_per_transform() const {
    return engine_.flops_per_transform() + 8.0 * static_cast<double>(L_);
  }

 private:
  template <class Load, class Store>
  void forward_packed(Load& load, Store& store, FftScratch<Real>& scratch) const {
    const index_t n = L_ / 2;
    scratch.ensure_packed(n);
    C* z = scratch.packed.data();
    for (index_t k = 0; k < n; ++k) {
      const Real re = load(2 * k);
      z[k] = C(re, load(2 * k + 1));
    }
    engine_.transform(z, z, -1, scratch);

    // Unpack: E = FFT(x_even), O = FFT(x_odd); X[k] = E[k] + w^k O[k].
    const Real half = Real(0.5);
    for (index_t k = 0; k <= n; ++k) {
      const C zk = (k == n) ? z[0] : z[k];
      const C znk = std::conj(k == 0 ? z[0] : z[n - k]);
      const C even = (zk + znk) * half;
      const C odd = C(0, -1) * (zk - znk) * half;
      store(k, even + unpack_tw_[static_cast<std::size_t>(k)] * odd);
    }
  }

  template <class Load, class Store>
  void inverse_packed(Load& load, Store& store, FftScratch<Real>& scratch) const {
    const index_t n = L_ / 2;
    scratch.ensure_packed(n);
    C* z = scratch.packed.data();
    const Real half = Real(0.5);
    for (index_t k = 0; k < n; ++k) {
      const C xk = load(k);
      const C xnk = std::conj(load(n - k));
      const C even = (xk + xnk) * half;
      // O[k] = conj(w^k) (X[k] - conj(X[n-k])) / 2.
      const C odd = std::conj(unpack_tw_[static_cast<std::size_t>(k)]) *
                    (xk - xnk) * half;
      z[k] = even + C(0, 1) * odd;
    }
    engine_.transform(z, z, 1, scratch);
    const Real inv_n = Real(1) / static_cast<Real>(n);
    for (index_t k = 0; k < n; ++k) {
      store(2 * k, z[k].real() * inv_n);
      store(2 * k + 1, z[k].imag() * inv_n);
    }
  }

  template <class Load, class Store>
  void forward_direct(Load& load, Store& store, FftScratch<Real>& scratch) const {
    scratch.ensure_packed(L_);
    C* z = scratch.packed.data();
    for (index_t j = 0; j < L_; ++j) z[j] = C(load(j), Real(0));
    engine_.transform(z, z, -1, scratch);
    for (index_t k = 0; k <= L_ / 2; ++k) store(k, z[k]);
  }

  template <class Load, class Store>
  void inverse_direct(Load& load, Store& store, FftScratch<Real>& scratch) const {
    scratch.ensure_packed(L_);
    C* z = scratch.packed.data();
    for (index_t k = 0; k <= L_ / 2; ++k) z[k] = load(k);
    for (index_t k = L_ / 2 + 1; k < L_; ++k) z[k] = std::conj(load(L_ - k));
    engine_.transform(z, z, 1, scratch);
    const Real inv_L = Real(1) / static_cast<Real>(L_);
    for (index_t j = 0; j < L_; ++j) store(j, z[j].real() * inv_L);
  }

  index_t L_;
  bool packed_;
  ComplexFftEngine<Real> engine_;
  std::vector<C> unpack_tw_;
};

}  // namespace fftmv::fft
