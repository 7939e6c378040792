// Per-phase precision configuration for the dynamic mixed-precision
// framework (paper §3.2).
//
// The matvec decomposes into five computational phases (§2.4):
//   1. broadcast + zero-pad        (memory/comm)
//   2. batched FFT of the input    (compute)
//   3. Fourier-space SBGEMV        (compute)
//   4. batched IFFT of the output  (compute)
//   5. unpad + reduction           (memory/comm)
// Each phase computes in single (s) or double (d) precision, giving
// the 32 configurations of §4.2.1, written as five-letter strings
// such as "dssdd" (the artifact's -prec flag).  Input and output
// vectors are always double (§3.2); casts are inserted where the
// working precision changes and are fused into adjacent memory
// operations, which themselves run in the lowest precision of their
// neighbouring compute phases.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace fftmv::precision {

enum class Precision : unsigned char { kSingle, kDouble };

/// Machine epsilon of a working precision (paper §3.2.1 notation
/// eps_s, eps_d).
constexpr double eps(Precision p) {
  return p == Precision::kSingle ? kEpsSingle : kEpsDouble;
}

constexpr char precision_char(Precision p) {
  return p == Precision::kSingle ? 's' : 'd';
}

/// Lower of two precisions (single < double).
constexpr Precision min_precision(Precision a, Precision b) {
  return (a == Precision::kSingle || b == Precision::kSingle)
             ? Precision::kSingle
             : Precision::kDouble;
}

/// Phase indices into PrecisionConfig.
enum Phase : int {
  kPhasePad = 0,
  kPhaseFft = 1,
  kPhaseSbgemv = 2,
  kPhaseIfft = 3,
  kPhaseUnpad = 4,
  kNumPhases = 5,
};

const char* phase_name(int phase);

class PrecisionConfig {
 public:
  /// All-double baseline.
  PrecisionConfig() { phases_.fill(Precision::kDouble); }

  explicit PrecisionConfig(std::array<Precision, kNumPhases> phases)
      : phases_(phases) {}

  /// Parse a five-letter "dssdd"-style string; throws
  /// std::invalid_argument on malformed input.
  static PrecisionConfig parse(const std::string& text);

  /// All 32 configurations, in lexicographic order ("ddddd" first).
  static std::vector<PrecisionConfig> all_configs();

  Precision phase(int i) const { return phases_.at(static_cast<std::size_t>(i)); }

  bool all_double() const;
  bool all_single() const;

  /// Number of single-precision phases (used as a tie-breaker in the
  /// Pareto analysis).
  int single_count() const;

  std::string to_string() const;

  bool operator==(const PrecisionConfig& other) const {
    return phases_ == other.phases_;
  }

 private:
  std::array<Precision, kNumPhases> phases_;
};

}  // namespace fftmv::precision
