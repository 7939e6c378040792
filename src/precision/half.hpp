// Software IEEE 754 binary16 ("half") storage type.
//
// The paper stops at FP32 because "software support for half-precision
// linear algebra and FFT routines — especially those involving complex
// numbers — is sparse" (§3.2), while noting FP16 hardware throughput
// is where GPUs are headed.  This type supplies the storage format and
// round-trip conversions needed to extend the framework downward:
// half-*storage* kernels (compute still in float, like GPU tensor-core
// HGEMM accumulation) halve Phase-3 memory traffic once more.  See
// blas/sbgemv_half.hpp and bench/ablation_fp16.
//
// Conversions implement round-to-nearest-even, gradual underflow to
// subnormals, and Inf/NaN propagation.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>

namespace fftmv::precision {

class half {
 public:
  half() = default;

  explicit half(float value) : bits_(float_to_bits(value)) {}

  explicit operator float() const { return bits_to_float(bits_); }

  static half from_bits(std::uint16_t bits) {
    half h;
    h.bits_ = bits;
    return h;
  }
  std::uint16_t bits() const { return bits_; }

  bool operator==(const half& other) const {
    // IEEE semantics: NaN != NaN; +0 == -0.
    return static_cast<float>(*this) == static_cast<float>(other);
  }

  /// Machine epsilon of binary16: 2^-10.
  static constexpr double epsilon() { return 9.765625e-04; }

 private:
  static std::uint16_t float_to_bits(float value) {
    const std::uint32_t f = std::bit_cast<std::uint32_t>(value);
    const std::uint32_t sign = (f >> 16) & 0x8000u;
    const std::int32_t exponent = static_cast<std::int32_t>((f >> 23) & 0xFF) - 127;
    std::uint32_t mantissa = f & 0x7FFFFFu;

    if (exponent == 128) {  // Inf / NaN
      return static_cast<std::uint16_t>(sign | 0x7C00u | (mantissa ? 0x200u : 0u));
    }
    if (exponent > 15) {  // overflow -> Inf
      return static_cast<std::uint16_t>(sign | 0x7C00u);
    }
    if (exponent >= -14) {  // normal range
      // Round mantissa from 23 to 10 bits, to nearest even.
      std::uint32_t m = mantissa + 0xFFFu + ((mantissa >> 13) & 1u);
      std::uint32_t e = static_cast<std::uint32_t>(exponent + 15);
      if (m & 0x800000u) {  // mantissa rounding carried out
        m = 0;
        ++e;
        if (e >= 31) return static_cast<std::uint16_t>(sign | 0x7C00u);
      }
      return static_cast<std::uint16_t>(sign | (e << 10) | (m >> 13));
    }
    if (exponent >= -24) {  // subnormal half
      // Implicit leading 1, shifted into a denormal mantissa.
      mantissa |= 0x800000u;
      const int shift = -exponent - 14 + 13;  // 14..23
      const std::uint32_t rounded =
          (mantissa + (1u << (shift - 1)) - 1u + ((mantissa >> shift) & 1u)) >> shift;
      return static_cast<std::uint16_t>(sign | rounded);
    }
    return static_cast<std::uint16_t>(sign);  // underflow -> signed zero
  }

  static float bits_to_float(std::uint16_t h) {
    const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
    const std::uint32_t exponent = (h >> 10) & 0x1Fu;
    const std::uint32_t mantissa = h & 0x3FFu;

    std::uint32_t f;
    if (exponent == 0) {
      if (mantissa == 0) {
        f = sign;  // signed zero
      } else {
        // Subnormal: normalise.
        int e = -1;
        std::uint32_t m = mantissa;
        do {
          ++e;
          m <<= 1;
        } while ((m & 0x400u) == 0);
        f = sign | static_cast<std::uint32_t>(127 - 15 - e) << 23 |
            ((m & 0x3FFu) << 13);
      }
    } else if (exponent == 31) {
      f = sign | 0x7F800000u | (mantissa << 13);  // Inf / NaN
    } else {
      f = sign | ((exponent - 15 + 127) << 23) | (mantissa << 13);
    }
    return std::bit_cast<float>(f);
  }

  std::uint16_t bits_ = 0;
};

/// Epsilon for the half precision tier (paper notation extension).
inline constexpr double kEpsHalf = 9.765625e-04;

}  // namespace fftmv::precision
