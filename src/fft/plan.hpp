// Batched, strided real FFT plans with simulated-device execution.
//
// This is the library's analogue of a cuFFT/hipFFT batched plan: the
// transform length and batch shape are fixed at plan creation, and
// executions are launched on a device Stream (one gridblock per
// sequence) so that each call is charged simulated time by the cost
// model, or run host-side for plain numerics.
//
// Executions additionally accept a runtime `batch_multiplier`: the
// same cached plan transforms `batch() * multiplier` contiguous
// sequences in one launch.  Multi-RHS pipeline applies use this to
// grow the phase-2/4 batch from n_s to b * n_s without re-planning
// (twiddle tables and geometry depend only on the length).
#pragma once

#include <cmath>
#include <complex>
#include <mutex>
#include <string>

#include "device/fault_plan.hpp"
#include "device/stream.hpp"
#include "fft/real_engine.hpp"
#include "util/math.hpp"

namespace fftmv::fft {

template <class Real>
class BatchedRealFft {
 public:
  using C = std::complex<Real>;

  BatchedRealFft(index_t length, index_t batch)
      : engine_(length), batch_(batch) {
    if (batch <= 0) throw std::invalid_argument("BatchedRealFft: batch must be >= 1");
  }

  index_t length() const { return engine_.length(); }
  index_t batch() const { return batch_; }
  index_t spectrum_size() const { return engine_.spectrum_size(); }

  /// Host execution: sequence b reads in + b*in_stride (length L
  /// reals) and writes out + b*out_stride (L/2+1 bins).
  void forward(const Real* in, index_t in_stride, C* out, index_t out_stride,
               index_t batch_multiplier = 1) const {
    FftScratch<Real>& s = FftScratch<Real>::local();
    for (index_t b = 0; b < effective_batch(batch_multiplier); ++b) {
      engine_.forward(in + b * in_stride, out + b * out_stride, s);
    }
  }

  void inverse(const C* in, index_t in_stride, Real* out, index_t out_stride,
               index_t batch_multiplier = 1) const {
    FftScratch<Real>& s = FftScratch<Real>::local();
    for (index_t b = 0; b < effective_batch(batch_multiplier); ++b) {
      engine_.inverse(in + b * in_stride, out + b * out_stride, s);
    }
  }

  /// Device execution: one gridblock per sequence, parallel over the
  /// pool, simulated time charged to `stream`.
  device::KernelTiming forward_on(device::Stream& stream, const Real* in,
                                  index_t in_stride, C* out, index_t out_stride,
                                  index_t batch_multiplier = 1) const {
    return stream.launch(geometry(batch_multiplier), footprint(batch_multiplier),
                         [=, this](index_t bx, index_t, index_t) {
      engine_.forward(in + bx * in_stride, out + bx * out_stride,
                      FftScratch<Real>::local());
    });
  }

  device::KernelTiming inverse_on(device::Stream& stream, const C* in,
                                  index_t in_stride, Real* out, index_t out_stride,
                                  index_t batch_multiplier = 1) const {
    return stream.launch(geometry(batch_multiplier), footprint(batch_multiplier),
                         [=, this](index_t bx, index_t, index_t) {
      engine_.inverse(in + bx * in_stride, out + bx * out_stride,
                      FftScratch<Real>::local());
    });
  }

  /// ABFT energy check over a time/spectrum pair (Parseval's theorem
  /// for the unnormalised forward transform): for each sequence b,
  ///   sum_n time[n]^2  ==  (1/L) * (|X_0|^2 + |X_{L/2}|^2
  ///                                 + 2 * sum_{0<k<L/2} |X_k|^2)
  /// within `tolerance` relative to the energies' magnitude.  Holds
  /// for both directions (the inverse normalises by 1/L, which makes
  /// its output the forward preimage of its input), so one check
  /// covers phase 2 and phase 4.  Energies accumulate in double; a
  /// violation throws device::SilentCorruption tagged with `site`.
  /// The pass is charged through the cost model like any kernel.
  device::KernelTiming verify_parseval_on(device::Stream& stream,
                                          const Real* time, index_t time_stride,
                                          const C* spec, index_t spec_stride,
                                          index_t batch_multiplier,
                                          double tolerance,
                                          const char* site) const {
    // Sequences run concurrently on the host pool: failures are
    // recorded under a lock, keeping the lowest failing sequence.
    struct Failure {
      std::mutex mu;
      int count = 0;
      index_t seq = -1;
      double diff = 0.0;
      double bound = 0.0;
    };
    Failure fail;
    Failure* fail_ptr = &fail;
    const index_t L = engine_.length();
    const index_t half = L / 2;
    const auto timing = stream.launch(
        geometry(batch_multiplier), parseval_footprint(batch_multiplier),
        [=, this](index_t bx, index_t, index_t) {
          const Real* t = time + bx * time_stride;
          const C* s = spec + bx * spec_stride;
          double e_time = 0.0;
          for (index_t n = 0; n < L; ++n) {
            const double v = static_cast<double>(t[n]);
            e_time += v * v;
          }
          double e_spec = std::norm(std::complex<double>(s[0]));
          if (L % 2 == 0) e_spec += std::norm(std::complex<double>(s[half]));
          for (index_t k = 1; k < (L + 1) / 2; ++k) {
            e_spec += 2.0 * std::norm(std::complex<double>(s[k]));
          }
          e_spec /= static_cast<double>(L);
          const double diff = std::abs(e_time - e_spec);
          const double bound = tolerance * (e_time + e_spec);
          // Only a finite difference within the bound passes: a NaN
          // fails every comparison, and an Inf energy inflates the
          // bound along with the difference.
          if (!(std::isfinite(diff) && diff <= bound)) {
            const std::lock_guard<std::mutex> lock(fail_ptr->mu);
            if (fail_ptr->count++ == 0 || bx < fail_ptr->seq) {
              fail_ptr->seq = bx;
              fail_ptr->diff = diff;
              fail_ptr->bound = bound;
            }
          }
        });
    if (!stream.device().phantom() && fail.count > 0) {
      throw device::SilentCorruption(
          site, "sequence " + std::to_string(fail.seq) +
                    ": |energy(time) - energy(spectrum)| = " +
                    std::to_string(fail.diff) + " exceeds bound " +
                    std::to_string(fail.bound) + " (" +
                    std::to_string(fail.count) + " failing sequence(s))");
    }
    return timing;
  }

  device::LaunchGeometry geometry(index_t batch_multiplier = 1) const {
    return {.grid_x = effective_batch(batch_multiplier),
            .grid_y = 1,
            .grid_z = 1,
            .block_threads = 256};
  }

  /// Resource footprint of one batched execution.  GPU FFTs stage
  /// radix passes through LDS, touching global memory once per
  /// fused-pass group (~radix-256 per pass); we model
  /// ceil(log2(L) / 8) round trips over the complex working set.
  device::KernelFootprint footprint(index_t batch_multiplier = 1) const {
    const double L = static_cast<double>(engine_.length());
    const double passes =
        std::max(1.0, std::ceil(util::log2_ceil(util::next_pow2(engine_.length())) / 8.0));
    const double working_set = static_cast<double>(effective_batch(batch_multiplier)) *
                               L * static_cast<double>(sizeof(Real));
    device::KernelFootprint fp;
    fp.bytes_read = passes * working_set;
    fp.bytes_written = passes * working_set;
    fp.flops = static_cast<double>(effective_batch(batch_multiplier)) *
               engine_.flops_per_transform();
    fp.fp64_path = sizeof(Real) == 8;
    fp.vector_load_bytes = 16;
    fp.coalescing_efficiency = 0.9;
    return fp;
  }

  /// Footprint of the Parseval pass: one read of the time and
  /// spectrum working sets, a handful of flops per element.
  device::KernelFootprint parseval_footprint(index_t batch_multiplier) const {
    const double eb = static_cast<double>(effective_batch(batch_multiplier));
    const double L = static_cast<double>(engine_.length());
    const double bins = static_cast<double>(engine_.spectrum_size());
    device::KernelFootprint fp;
    fp.bytes_read = eb * (L * static_cast<double>(sizeof(Real)) +
                          bins * static_cast<double>(sizeof(C)));
    fp.bytes_written = 0.0;
    fp.flops = eb * (2.0 * L + 4.0 * bins);
    fp.fp64_path = true;
    fp.vector_load_bytes = 16;
    fp.coalescing_efficiency = 0.9;
    return fp;
  }

  const RealFftEngine<Real>& engine() const { return engine_; }

 private:
  index_t effective_batch(index_t multiplier) const {
    if (multiplier <= 0) {
      throw std::invalid_argument("BatchedRealFft: batch multiplier must be >= 1");
    }
    return batch_ * multiplier;
  }

  RealFftEngine<Real> engine_;
  index_t batch_;
};

}  // namespace fftmv::fft
