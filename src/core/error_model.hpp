// First-order rounding-error model of the mixed-precision matvec —
// Eq. (6) of the paper (§3.2.1):
//
//   ||dv5|| / ||v5|| <= kappa(F_hat) * [ c1 e1
//        + (c_F e_d + c2 e2 + c4 e4) log2(N_t)
//        + c3 e3 n_m + c5 e5 log2(p_c) ]
//
// with n_m -> n_d and p_c -> p_r for the adjoint matvec, e_i the
// machine epsilon of phase i's precision and c_i O(1) algorithm
// constants.  c1 is zero when phase 1 runs in double: a pure memory
// operation in the input precision is exact.
#pragma once

#include "core/problem.hpp"
#include "precision/precision.hpp"
#include "util/math.hpp"

namespace fftmv::core {

struct ErrorModelConstants {
  double c1 = 1.0;
  double c2 = 1.0;
  double c3 = 1.0;
  double c4 = 1.0;
  double c5 = 1.0;
  double c_setup_fft = 1.0;  ///< c_F: setup FFT of the operator (double)
};

/// Inputs that depend on the run: the amplification factor and the
/// distribution.  `amplification` plays the role of kappa(F_hat); in
/// practice we use the observed normwise amplification
/// ||F_hat||_F ||v0|| / ||v5|| (the BoundContainment test in
/// tests/test_error_model.cpp computes it) because the exact
/// condition number of the rectangular frequency blocks is not
/// available in-application.
struct ErrorModelInputs {
  LocalDims dims;
  index_t reduce_ranks = 1;  ///< p_c for F, p_r for F*
  bool adjoint = false;
  double amplification = 1.0;
};

inline double error_bound(const precision::PrecisionConfig& config,
                          const ErrorModelInputs& in,
                          const ErrorModelConstants& c = {}) {
  using precision::Precision;
  const double e1 = precision::eps(config.phase(precision::kPhasePad));
  const double e2 = precision::eps(config.phase(precision::kPhaseFft));
  const double e3 = precision::eps(config.phase(precision::kPhaseSbgemv));
  const double e4 = precision::eps(config.phase(precision::kPhaseIfft));
  const double e5 = precision::eps(config.phase(precision::kPhaseUnpad));

  // Memory-only phases are exact in double (c1 := 0, §3.2.1).
  const double c1 = config.phase(precision::kPhasePad) == Precision::kDouble
                        ? 0.0
                        : c.c1;
  const double c5 = config.phase(precision::kPhaseUnpad) == Precision::kDouble &&
                            in.reduce_ranks <= 1
                        ? 0.0
                        : c.c5;

  const double log_nt = util::log2_ceil(util::next_pow2(in.dims.n_t()));
  const double n_loc = static_cast<double>(in.adjoint ? in.dims.n_d_local
                                                      : in.dims.n_m_local);
  const double log_p =
      in.reduce_ranks > 1 ? util::log2_ceil(util::next_pow2(in.reduce_ranks)) : 1.0;

  const double terms = c1 * e1 +
                       (c.c_setup_fft * kEpsDouble + c.c2 * e2 + c.c4 * e4) * log_nt +
                       c.c3 * e3 * n_loc + c5 * e5 * log_p;
  return in.amplification * terms;
}

/// Safety factor over the first-order ABFT tolerance terms.  The
/// error-model constants are O(1) but not sharp, kernel summation
/// orders differ from the sequential model (tree reductions, lane
/// striding), and the checksum encoding itself rounds — a generous
/// constant absorbs all of that while staying orders of magnitude
/// below an exponent-bit flip.  Validated by the zero-false-positive
/// property test across all 32 precision configs.
inline constexpr double kVerifySafety = 64.0;

/// Per-phase ABFT verification tolerances, calibrated from the same
/// per-config epsilons as error_bound so a legitimate mixed-precision
/// rounding (even `sssss`) never trips a false positive.
///
/// gemv: the checksum relation  sum_i y_i == alpha * (checksum . x)
/// is compared at a scale that already carries the data's magnitude
/// (see blas::SbgemvVerify), so the tolerance only needs the relative
/// rounding headroom: x_len * eps3 for the phase-3 dots on either
/// side of the relation (the y sum inherits each element's GEMV
/// rounding; the checksum dot re-rounds the encoding row), plus
/// (x_len + y_len) * eps_d for the double-precision reductions the
/// verify pass itself performs.
///
/// fft: Parseval compares energies, whose relative error is twice the
/// amplitude error, itself bounded by the FFT's O(log2 L) rounding
/// growth in the phase precision plus the double energy reductions.
struct VerifyTolerances {
  double gemv = 0.0;
  double fft_forward = 0.0;
  double fft_inverse = 0.0;
};

inline VerifyTolerances verify_tolerances(
    const precision::PrecisionConfig& config, const LocalDims& dims,
    bool adjoint) {
  const double e2 = precision::eps(config.phase(precision::kPhaseFft));
  const double e3 = precision::eps(config.phase(precision::kPhaseSbgemv));
  const double e4 = precision::eps(config.phase(precision::kPhaseIfft));
  const double x_len = static_cast<double>(adjoint ? dims.n_d_local
                                                   : dims.n_m_local);
  const double y_len = static_cast<double>(adjoint ? dims.n_m_local
                                                   : dims.n_d_local);
  const double log_l =
      util::log2_ceil(util::next_pow2(2 * dims.n_t())) + 2.0;
  VerifyTolerances tol;
  tol.gemv = kVerifySafety * ((x_len + y_len) * kEpsDouble + x_len * e3);
  tol.fft_forward = kVerifySafety * log_l * (e2 + kEpsDouble);
  tol.fft_inverse = kVerifySafety * log_l * (e4 + kEpsDouble);
  return tol;
}

}  // namespace fftmv::core
