// Statistics and seeded traffic helpers of the two-clock benchmark.
//
// Every timing is reported as a median plus the highest percentile of
// a fixed ladder that still has at least kMinBeyond samples ranked
// beyond it, so a tail is never read from a handful of samples.  A
// failed op counts against error_rate and, in a latency population, as
// +infinity: it misses every limit.  Traffic (Poisson arrivals, zipf
// popularity) is drawn from util::Rng, whose output is fixed by its
// seed on every platform, so one seed always replays the same inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace perfbench {

/// One percentile of a population, with the counts behind it.
struct Percentile {
  double pct = 0.0;         ///< which percentile (100 = the maximum)
  double value = 0.0;
  std::size_t samples = 0;  ///< population size
  std::size_t beyond = 0;   ///< samples ranked strictly above `value`
};

/// Nearest-rank percentile of an ascending-sorted population.
inline Percentile percentile_sorted(std::span<const double> sorted, double pct) {
  Percentile p{pct, 0.0, sorted.size(), 0};
  if (sorted.empty()) return p;
  const double n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(pct * n / 100.0));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  p.value = sorted[rank - 1];
  p.beyond = sorted.size() - rank;
  return p;
}

inline Percentile median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return percentile_sorted(samples, 50.0);
}

inline double median_or_zero(const std::vector<double>& samples) {
  return samples.empty() ? 0.0 : median(samples).value;
}

/// Percentiles a tail may be read at, highest first.
inline constexpr double kTailLadder[] = {99.0, 90.0, 75.0, 50.0};
inline constexpr std::size_t kMinBeyond = 10;

/// The highest ladder percentile with at least kMinBeyond samples
/// beyond it; the maximum (pct 100) when even the median has fewer.
inline Percentile tail(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  for (const double pct : kTailLadder) {
    const Percentile p = percentile_sorted(samples, pct);
    if (p.beyond >= kMinBeyond) return p;
  }
  return percentile_sorted(samples, 100.0);
}

inline double tail_or_zero(const std::vector<double>& samples) {
  return samples.empty() ? 0.0 : tail(samples).value;
}

/// The tail of a long run: tail() of each chunk of `chunk` consecutive
/// samples (the last chunk takes the remainder), reported as the median
/// over chunks, so one stall of a shared host moves one chunk rather
/// than the whole figure.  `pct` and `beyond` are the smallest over the
/// chunks and `samples` the chunk size.  Fewer than two chunks' worth of
/// samples are read whole.
inline Percentile chunked_tail(std::span<const double> in_order, std::size_t chunk) {
  const std::size_t chunks = chunk > 0 ? in_order.size() / chunk : 0;
  if (chunks < 2) return tail({in_order.begin(), in_order.end()});
  Percentile out{100.0, 0.0, chunk, in_order.size()};
  std::vector<double> values;
  for (std::size_t c = 0; c < chunks; ++c) {
    const auto first = in_order.begin() + static_cast<std::ptrdiff_t>(c * chunk);
    const auto last = c + 1 == chunks ? in_order.end() : first + static_cast<std::ptrdiff_t>(chunk);
    const Percentile p = tail({first, last});
    values.push_back(p.value);
    out.pct = std::min(out.pct, p.pct);
    out.beyond = std::min(out.beyond, p.beyond);
  }
  out.value = median(values).value;
  return out;
}

inline double mean(std::span<const double> v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Attempted / failed accounting shared by every workload.
struct OpTally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  double error_rate() const {
    return attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted)
                         : 0.0;
  }
  double success_rate() const { return attempted > 0 ? 1.0 - error_rate() : 0.0; }
};

/// A latency sample: the measured seconds, or +infinity for a failed op.
inline double latency_or_miss(bool ok, double seconds) {
  return ok ? seconds : std::numeric_limits<double>::infinity();
}

/// Zipf(s) popularity over n ranks (rank 0 most popular), sampled by
/// inverse CDF from a util::Rng stream.
class Zipf {
 public:
  Zipf(std::size_t n, double s) {
    cdf_.reserve(n);
    double acc = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      acc += std::pow(static_cast<double>(k + 1), -s);
      cdf_.push_back(acc);
    }
    for (double& c : cdf_) c /= acc;
  }

  std::size_t operator()(fftmv::util::Rng& rng) const {
    const double u = rng.next_double();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

  double pmf(std::size_t k) const { return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1]; }

 private:
  std::vector<double> cdf_;
};

/// Arrival offsets (seconds from the start) of a Poisson process at
/// `rate` arrivals per second, up to `horizon` seconds.
inline std::vector<double> poisson_arrivals(fftmv::util::Rng& rng, double rate,
                                            double horizon) {
  std::vector<double> arrivals;
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-rng.next_double()) / rate;
    if (t >= horizon) return arrivals;
    arrivals.push_back(t);
  }
}

/// SplitMix64 finaliser: derives independent sub-seeds from (seed, tag).
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + tag + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
