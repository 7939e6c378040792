// Reusable per-thread scratch storage for FFT execution.
//
// Engines are immutable after construction and safe to share across
// the gridblock workers of the simulated device; all mutable state
// lives in an FftScratch instance owned by the calling thread.
// Capacity is keyed on the transform length only — never the batch
// count — which is what lets one cached BatchedRealFft execute with a
// runtime batch multiplier (b * n_s sequences) without re-planning or
// extra scratch: every sequence reuses the same per-thread buffers.
#pragma once

#include <complex>
#include <vector>

#include "util/types.hpp"

namespace fftmv::fft {

template <class Real>
struct FftScratch {
  using C = std::complex<Real>;

  std::vector<C> ping;    ///< Stockham working buffer A
  std::vector<C> pong;    ///< Stockham working buffer B
  std::vector<C> chirp;   ///< Bluestein length-M modulated sequence
  std::vector<C> packed;  ///< R2C packed half-length sequence
  /// A fused round trip's samples between its two transforms (the
  /// gridblock's LDS).  Not `packed`: when both transforms share this
  /// scratch, the inverse still reads `packed` while it hands samples
  /// out.
  std::vector<Real> samples;

  void ensure_c2c(index_t n) {
    if (static_cast<index_t>(ping.size()) < n) {
      ping.resize(static_cast<std::size_t>(n));
      pong.resize(static_cast<std::size_t>(n));
    }
  }

  void ensure_bluestein(index_t m) {
    ensure_c2c(m);
    if (static_cast<index_t>(chirp.size()) < m) {
      chirp.resize(static_cast<std::size_t>(m));
    }
  }

  void ensure_packed(index_t n) {
    if (static_cast<index_t>(packed.size()) < n) {
      packed.resize(static_cast<std::size_t>(n));
    }
  }

  void ensure_samples(index_t n) {
    if (static_cast<index_t>(samples.size()) < n) {
      samples.resize(static_cast<std::size_t>(n));
    }
  }

  /// Per-thread instance for kernel-functor use.
  static FftScratch& local() {
    thread_local FftScratch scratch;
    return scratch;
  }
};

}  // namespace fftmv::fft
