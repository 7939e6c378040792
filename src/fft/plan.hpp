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
//
// Both directions also run fused (forward_fused_on, inverse_fused_on):
// the launch reads its inputs and writes its outputs through caller
// callbacks, cuFFT/rocFFT load and store callbacks in shape, so the
// memory operations on either side of the transform (a pad, a cast, a
// reorder) ride it instead of costing launches of their own.  A fused
// round trip (round_trip_fused_on) chains one plan's inverse transform,
// a pointwise map and another plan's forward transform of each sequence
// in one launch, the samples between them never leaving the gridblock.
#pragma once

#include <cmath>
#include <complex>
#include <cstddef>
#include <mutex>
#include <string>
#include <type_traits>

#include "device/fault_plan.hpp"
#include "device/stream.hpp"
#include "fft/real_engine.hpp"
#include "util/math.hpp"

namespace fftmv::fft {

/// Failing sequences of a Parseval energy check.  Sequences run
/// concurrently on the host pool, so records are serialised, and the
/// sequence reported is the lowest failing one however the blocks
/// were scheduled.
class ParsevalFailure {
 public:
  void record(index_t seq, double diff, double bound) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (count_++ == 0 || seq < seq_) {
      seq_ = seq;
      diff_ = diff;
      bound_ = bound;
    }
  }

  /// Throws device::SilentCorruption tagged with `site` when any
  /// sequence failed.
  void throw_if_any(const char* site) const {
    if (count_ == 0) return;
    throw device::SilentCorruption(
        site, "sequence " + std::to_string(seq_) +
                  ": |energy(time) - energy(spectrum)| = " +
                  std::to_string(diff_) + " exceeds bound " +
                  std::to_string(bound_) + " (" + std::to_string(count_) +
                  " failing sequence(s))");
  }

 private:
  std::mutex mu_;
  int count_ = 0;
  index_t seq_ = -1;
  double diff_ = 0.0;
  double bound_ = 0.0;
};

/// A Parseval energy check riding BatchedRealFft::forward_fused_on or
/// inverse_fused_on (see verify_parseval_on for the invariant).
struct ParsevalCheck {
  double tolerance = 0.0;
  ParsevalFailure* failure = nullptr;  ///< receives failing sequences
};

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

  /// Fused forward execution: the transform of forward_on, one
  /// gridblock per sequence, with its I/O through callbacks.
  /// Gridblock q reads sample t as load(q, t), which returns Real, for
  /// every t in [0, L) in increasing t (see RealFftEngine::forward), so
  /// a zero-padded tail is the load returning 0, and hands bin k to
  /// store(q, k, v) in increasing k.  `fp` is the launch's footprint,
  /// fused_footprint().  With `parseval`, each sequence also checks
  /// its energy balance, as verify_parseval_on would over the same
  /// buffers: time energy summed from the samples as loaded, spectrum
  /// energy from the bins as stored, read back as stored(q, k).
  /// Failures are recorded for the caller to throw.
  template <class Load, class Store, class Stored = std::nullptr_t>
  device::KernelTiming forward_fused_on(device::Stream& stream,
                                        index_t batch_multiplier,
                                        device::KernelFootprint fp, Load load,
                                        Store store,
                                        const ParsevalCheck* parseval = nullptr,
                                        Stored stored = nullptr) const {
    constexpr bool can_check = !std::is_null_pointer_v<Stored>;
    if (parseval != nullptr) {
      if (!can_check) {
        throw std::invalid_argument(
            "BatchedRealFft: a fused Parseval check needs the stored bins");
      }
      fp.flops += parseval_flops(batch_multiplier);
    }
    const ParsevalCheck check = parseval != nullptr ? *parseval : ParsevalCheck{};
    return stream.launch(geometry(batch_multiplier), fp,
                         [=, this](index_t q, index_t, index_t) {
      double e_time = 0.0;
      engine_.forward(
          [&](index_t t) {
            const Real v = load(q, t);
            if (check.failure != nullptr) {
              const double d = static_cast<double>(v);
              e_time += d * d;
            }
            return v;
          },
          [&](index_t k, const C& v) { store(q, k, v); }, FftScratch<Real>::local());
      if constexpr (can_check) {
        if (check.failure != nullptr) {
          check_energy(q, e_time, [&](index_t k) { return stored(q, k); },
                       check.tolerance, *check.failure);
        }
      }
    });
  }

  /// Fused inverse execution: the transform of inverse_on, one
  /// gridblock per sequence, with its I/O through callbacks.
  /// Gridblock q reads bin k as load(q, k) and hands sample j to
  /// store(q, j, v) in increasing j (see RealFftEngine::inverse), then
  /// runs after(q), work that rides the launch.  `fp` is the launch's
  /// footprint: fused_footprint() plus whatever after() adds.  With
  /// `parseval`, each sequence also checks its energy balance — time
  /// energy summed from the samples as they are produced, spectrum
  /// energy from the bins as loaded — recording failures for the
  /// caller to throw, so it can order this check against after()'s.
  template <class Load, class Store, class After>
  device::KernelTiming inverse_fused_on(device::Stream& stream,
                                        index_t batch_multiplier,
                                        device::KernelFootprint fp, Load load,
                                        Store store, After after,
                                        const ParsevalCheck* parseval = nullptr) const {
    if (parseval != nullptr) fp.flops += parseval_flops(batch_multiplier);
    const ParsevalCheck check = parseval != nullptr ? *parseval : ParsevalCheck{};
    return stream.launch(geometry(batch_multiplier), fp,
                         [=, this](index_t q, index_t, index_t) {
      const auto bin = [&](index_t k) { return load(q, k); };
      double e_time = 0.0;
      engine_.inverse(bin,
                      [&](index_t j, Real v) {
                        if (check.failure != nullptr) {
                          const double d = static_cast<double>(v);
                          e_time += d * d;
                        }
                        store(q, j, v);
                      },
                      FftScratch<Real>::local());
      if (check.failure != nullptr) {
        check_energy(q, e_time, bin, check.tolerance, *check.failure);
      }
      after(q);
    });
  }

  /// Fused round trip: this plan's inverse transform, a pointwise map
  /// and `forward`'s transform of each sequence in one launch, one
  /// gridblock per sequence; both plans must have one length and batch.
  /// Gridblock q reads bin k as load(q, k), hands each of the first
  /// `keep` samples v (keep <= length()) to map(v), which returns a
  /// sample of `forward`'s precision kept in a per-worker buffer (the
  /// gridblock's LDS), drops the rest, then transforms those samples
  /// followed by zeros and hands bin k to store(q, k, v) in increasing
  /// k.  Each transform runs exactly the arithmetic of its fused
  /// launch, so the launch is bit-identical to inverse_fused_on
  /// storing map's argument, then forward_fused_on loading map's
  /// result.  `load_bytes` and `store_bytes` are what load and store
  /// move per sequence; the launch is charged both transforms' traffic
  /// and flops (see fused_footprint).
  template <class Out, class Load, class Map, class Store>
  device::KernelTiming round_trip_fused_on(device::Stream& stream,
                                           const BatchedRealFft<Out>& forward,
                                           index_t batch_multiplier, double load_bytes,
                                           double store_bytes, index_t keep, Load load,
                                           Map map, Store store) const {
    if (forward.length() != length() || forward.batch() != batch()) {
      throw std::invalid_argument("BatchedRealFft: a round trip needs plans of one shape");
    }
    device::KernelFootprint fp = fused_footprint(batch_multiplier, load_bytes, 0.0);
    const device::KernelFootprint out_fp =
        forward.fused_footprint(batch_multiplier, 0.0, store_bytes);
    fp.bytes_read += out_fp.bytes_read;
    fp.bytes_written += out_fp.bytes_written;
    fp.flops += out_fp.flops;
    fp.fp64_path = fp.fp64_path || out_fp.fp64_path;
    const RealFftEngine<Out>* out_engine = &forward.engine_;
    return stream.launch(geometry(batch_multiplier), fp,
                         [=, this](index_t q, index_t, index_t) {
      FftScratch<Out>& out_scratch = FftScratch<Out>::local();
      out_scratch.ensure_samples(keep);
      Out* samples = out_scratch.samples.data();
      engine_.inverse([&](index_t k) { return load(q, k); },
                      [&](index_t j, Real v) {
                        if (j < keep) samples[j] = map(v);
                      },
                      FftScratch<Real>::local());
      out_engine->forward([&](index_t t) { return t < keep ? samples[t] : Out(0); },
                          [&](index_t k, const std::complex<Out>& v) { store(q, k, v); },
                          out_scratch);
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
    ParsevalFailure fail;
    ParsevalFailure* fail_ptr = &fail;
    const index_t L = engine_.length();
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
          check_energy(bx, e_time, [s](index_t k) { return s[k]; }, tolerance,
                       *fail_ptr);
        });
    if (!stream.device().phantom()) fail.throw_if_any(site);
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

  /// Footprint of forward_fused_on, or of inverse_fused_on before its
  /// after() work: the plan's own passes over the working set, with
  /// the first pass's read and the last pass's write replaced by what
  /// the callbacks move, `load_bytes` and `store_bytes` per sequence
  /// (a zero-padded tail that the load returns without reading moves
  /// nothing).  Those accesses are strided within a sequence but
  /// contiguous across neighbouring sequences (the batch-contiguous
  /// layout cuFFT/rocFFT plans accept: element stride = batch,
  /// distance = 1), so a wavefront's neighbouring sequences coalesce
  /// and the launch is charged at the plan's own coalescing
  /// efficiency.  Accesses contiguous within a sequence (the plan's
  /// own layout: element stride = 1, distance = length) coalesce too.
  /// A round trip (round_trip_fused_on) is charged the inverse plan's
  /// fused_footprint with no store plus the forward plan's with no
  /// load: the samples between the two transforms stay on chip, and
  /// the launch takes the fp64 path when either transform is double.
  device::KernelFootprint fused_footprint(index_t batch_multiplier,
                                          double load_bytes,
                                          double store_bytes) const {
    device::KernelFootprint fp = footprint(batch_multiplier);
    const double eb = static_cast<double>(effective_batch(batch_multiplier));
    const double pass = eb * static_cast<double>(engine_.length()) *
                        static_cast<double>(sizeof(Real));
    fp.bytes_read += eb * load_bytes - pass;
    fp.bytes_written += eb * store_bytes - pass;
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
    fp.flops = parseval_flops(batch_multiplier);
    fp.fp64_path = true;
    fp.vector_load_bytes = 16;
    fp.coalescing_efficiency = 0.9;
    return fp;
  }

 private:
  template <class>
  friend class BatchedRealFft;  // a round trip runs the other plan's engine

  index_t effective_batch(index_t multiplier) const {
    if (multiplier <= 0) {
      throw std::invalid_argument("BatchedRealFft: batch multiplier must be >= 1");
    }
    return batch_ * multiplier;
  }

  /// The Parseval check's arithmetic: two energies per element.
  double parseval_flops(index_t batch_multiplier) const {
    const double eb = static_cast<double>(effective_batch(batch_multiplier));
    return eb * (2.0 * static_cast<double>(engine_.length()) +
                 4.0 * static_cast<double>(engine_.spectrum_size()));
  }

  /// One sequence's Parseval compare, shared by verify_parseval_on and
  /// the fused inverse: `e_time` is the sequence's time energy, and
  /// the spectrum energy is summed in double from the bins read as
  /// bin(k).  A failure is recorded in `fail` under `seq`.
  template <class Bin>
  void check_energy(index_t seq, double e_time, const Bin& bin, double tolerance,
                    ParsevalFailure& fail) const {
    const index_t L = engine_.length();
    double e_spec = std::norm(std::complex<double>(bin(0)));
    if (L % 2 == 0) e_spec += std::norm(std::complex<double>(bin(L / 2)));
    for (index_t k = 1; k < (L + 1) / 2; ++k) {
      e_spec += 2.0 * std::norm(std::complex<double>(bin(k)));
    }
    e_spec /= static_cast<double>(L);
    const double diff = std::abs(e_time - e_spec);
    const double bound = tolerance * (e_time + e_spec);
    // Only a finite difference within the bound passes: a NaN fails
    // every comparison, and an Inf energy inflates the bound along
    // with the difference.
    if (!(std::isfinite(diff) && diff <= bound)) fail.record(seq, diff, bound);
  }

  RealFftEngine<Real> engine_;
  index_t batch_;
};

}  // namespace fftmv::fft
