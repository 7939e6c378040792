// FFT substrate tests: correctness against the O(N^2) reference DFT,
// algebraic properties (roundtrip, linearity, Parseval), precision
// scaling (the c * eps * log2 N behaviour the paper's error analysis
// depends on), and the batched strided plans on the simulated device.
#include <gtest/gtest.h>

#include <complex>
#include <functional>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "device/device.hpp"
#include "device/fault_plan.hpp"
#include "device/stream.hpp"
#include "fft/complex_engine.hpp"
#include "fft/plan.hpp"
#include "fft/real_engine.hpp"
#include "support/dft_reference.hpp"
#include "util/rng.hpp"

namespace fftmv::fft {
namespace {

template <class Real>
std::vector<std::complex<Real>> random_complex(index_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::complex<Real>> v(static_cast<std::size_t>(n));
  for (auto& x : v) {
    x = {static_cast<Real>(rng.uniform(-1, 1)), static_cast<Real>(rng.uniform(-1, 1))};
  }
  return v;
}

template <class Real>
std::vector<Real> random_real(index_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Real> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<Real>(rng.uniform(-1, 1));
  return v;
}

/// The message of the device::SilentCorruption `fn` throws (its site
/// must be "unit"), or "" when it throws none.
template <class Fn>
std::string message(Fn&& fn) {
  try {
    fn();
  } catch (const device::SilentCorruption& e) {
    EXPECT_EQ(e.site(), "unit");
    return e.what();
  }
  return "";
}

template <class C>
double rel_err(const std::vector<C>& a, const std::vector<C>& b) {
  double num = 0, den = 1e-300;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num += std::norm(std::complex<double>(a[i]) - std::complex<double>(b[i]));
    den += std::norm(std::complex<double>(b[i]));
  }
  return std::sqrt(num / den);
}

// --------------------------------------------------- parameterized C2C
class C2CSizes : public ::testing::TestWithParam<index_t> {};

TEST_P(C2CSizes, MatchesReferenceDftDouble) {
  const index_t n = GetParam();
  ComplexFftEngine<double> eng(n);
  FftScratch<double> scratch;
  const auto x = random_complex<double>(n, 42 + static_cast<std::uint64_t>(n));
  std::vector<cdouble> y(static_cast<std::size_t>(n));
  eng.transform(x.data(), y.data(), -1, scratch);
  EXPECT_LT(rel_err(y, dft_reference(x, -1)), 1e-13) << "n=" << n;
}

TEST_P(C2CSizes, InverseMatchesReference) {
  const index_t n = GetParam();
  ComplexFftEngine<double> eng(n);
  FftScratch<double> scratch;
  const auto x = random_complex<double>(n, 7 + static_cast<std::uint64_t>(n));
  std::vector<cdouble> y(static_cast<std::size_t>(n));
  eng.transform(x.data(), y.data(), +1, scratch);
  EXPECT_LT(rel_err(y, dft_reference(x, +1)), 1e-13);
}

TEST_P(C2CSizes, RoundTripIsIdentity) {
  const index_t n = GetParam();
  ComplexFftEngine<double> eng(n);
  FftScratch<double> scratch;
  const auto x = random_complex<double>(n, 3);
  std::vector<cdouble> y(static_cast<std::size_t>(n)), back(static_cast<std::size_t>(n));
  eng.transform(x.data(), y.data(), -1, scratch);
  eng.transform(y.data(), back.data(), +1, scratch);
  for (auto& v : back) v /= static_cast<double>(n);
  EXPECT_LT(rel_err(back, x), 1e-13);
}

TEST_P(C2CSizes, Parseval) {
  const index_t n = GetParam();
  ComplexFftEngine<double> eng(n);
  FftScratch<double> scratch;
  const auto x = random_complex<double>(n, 5);
  std::vector<cdouble> y(static_cast<std::size_t>(n));
  eng.transform(x.data(), y.data(), -1, scratch);
  double ex = 0, ey = 0;
  for (auto& v : x) ex += std::norm(v);
  for (auto& v : y) ey += std::norm(v);
  EXPECT_NEAR(ey, ex * static_cast<double>(n), ex * n * 1e-12);
}

TEST_P(C2CSizes, Linearity) {
  const index_t n = GetParam();
  ComplexFftEngine<double> eng(n);
  FftScratch<double> scratch;
  const auto a = random_complex<double>(n, 11);
  const auto b = random_complex<double>(n, 13);
  std::vector<cdouble> fa(a.size()), fb(b.size()), fab(a.size());
  std::vector<cdouble> combo(a.size());
  const cdouble alpha{0.3, -1.2}, beta{-0.5, 0.25};
  for (std::size_t i = 0; i < a.size(); ++i) combo[i] = alpha * a[i] + beta * b[i];
  eng.transform(a.data(), fa.data(), -1, scratch);
  eng.transform(b.data(), fb.data(), -1, scratch);
  eng.transform(combo.data(), fab.data(), -1, scratch);
  std::vector<cdouble> expect(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) expect[i] = alpha * fa[i] + beta * fb[i];
  EXPECT_LT(rel_err(fab, expect), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sizes, C2CSizes,
                         ::testing::Values<index_t>(1, 2, 3, 4, 5, 8, 12, 16,
                                                    27, 37, 64, 100, 128, 250,
                                                    256, 441, 1000, 1024, 2000),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param);
                         });

TEST(C2C, BluesteinDispatchesOnNonPow2) {
  EXPECT_FALSE(ComplexFftEngine<double>(1024).uses_bluestein());
  ComplexFftEngine<double> e(1000);
  EXPECT_TRUE(e.uses_bluestein());
  EXPECT_EQ(e.bluestein_length(), 2048);  // next_pow2(2*1000 - 1)
}

TEST(C2C, InvalidArguments) {
  EXPECT_THROW(ComplexFftEngine<double>(0), std::invalid_argument);
  EXPECT_THROW(ComplexFftEngine<double>(-8), std::invalid_argument);
  ComplexFftEngine<double> e(8);
  FftScratch<double> s;
  std::vector<cdouble> x(8), y(8);
  EXPECT_THROW(e.transform(x.data(), y.data(), 2, s), std::invalid_argument);
}

TEST(C2C, ImpulseGivesFlatSpectrum) {
  ComplexFftEngine<double> e(64);
  FftScratch<double> s;
  std::vector<cdouble> x(64, cdouble{}), y(64);
  x[0] = 1.0;
  e.transform(x.data(), y.data(), -1, s);
  for (auto& v : y) EXPECT_NEAR(std::abs(v - cdouble{1.0, 0.0}), 0.0, 1e-14);
}

// Single-precision error grows like c * eps_s * log2(n) (Van Loan),
// the scaling the paper's Eq. (6) uses for the FFT phases.
TEST(C2C, FloatErrorScalesWithLogN) {
  for (index_t n : {64, 256, 1024, 4096}) {
    ComplexFftEngine<float> ef(n);
    FftScratch<float> sf;
    const auto xf = random_complex<float>(n, 21);
    std::vector<cfloat> yf(static_cast<std::size_t>(n));
    ef.transform(xf.data(), yf.data(), -1, sf);
    std::vector<cdouble> xd(xf.size());
    for (std::size_t i = 0; i < xf.size(); ++i) xd[i] = cdouble(xf[i]);
    const auto ref = dft_reference(xd, -1);
    double num = 0, den = 0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      num += std::norm(cdouble(yf[i]) - ref[i]);
      den += std::norm(ref[i]);
    }
    const double err = std::sqrt(num / den);
    const double bound = 4.0 * kEpsSingle * util::log2_ceil(n);
    EXPECT_LT(err, bound) << "n=" << n;
    EXPECT_GT(err, kEpsSingle * 0.1) << "n=" << n;  // not vacuous
  }
}

// --------------------------------------------------- parameterized R2C
class R2CSizes : public ::testing::TestWithParam<index_t> {};

TEST_P(R2CSizes, MatchesReferenceAndRoundTrips) {
  const index_t L = GetParam();
  RealFftEngine<double> eng(L);
  FftScratch<double> scratch;
  EXPECT_EQ(eng.spectrum_size(), L / 2 + 1);
  const auto x = random_real<double>(L, 71 + static_cast<std::uint64_t>(L));
  std::vector<cdouble> X(static_cast<std::size_t>(eng.spectrum_size()));
  eng.forward(x.data(), X.data(), scratch);
  const auto ref = dft_reference_r2c(x);
  EXPECT_LT(rel_err(X, ref), 1e-13) << "L=" << L;

  std::vector<double> back(static_cast<std::size_t>(L));
  eng.inverse(X.data(), back.data(), scratch);
  double err = 0, nrm = 1e-300;
  for (index_t i = 0; i < L; ++i) {
    err += (back[static_cast<std::size_t>(i)] - x[static_cast<std::size_t>(i)]) *
           (back[static_cast<std::size_t>(i)] - x[static_cast<std::size_t>(i)]);
    nrm += x[static_cast<std::size_t>(i)] * x[static_cast<std::size_t>(i)];
  }
  EXPECT_LT(std::sqrt(err / nrm), 1e-13);
}

INSTANTIATE_TEST_SUITE_P(Sizes, R2CSizes,
                         ::testing::Values<index_t>(1, 2, 4, 6, 10, 16, 31, 64,
                                                    100, 129, 256, 500, 2000),
                         [](const auto& info) {
                           return "L" + std::to_string(info.param);
                         });

TEST(R2C, DcAndNyquistAreReal) {
  RealFftEngine<double> eng(128);
  FftScratch<double> s;
  const auto x = random_real<double>(128, 5);
  std::vector<cdouble> X(65);
  eng.forward(x.data(), X.data(), s);
  EXPECT_NEAR(X[0].imag(), 0.0, 1e-14);
  EXPECT_NEAR(X[64].imag(), 0.0, 1e-14);
}

TEST(R2C, PaddedLengthTwoNtHasNtPlusOneBins) {
  // The structural fact behind the SBGEMV batch count (§3.1.1).
  const index_t nt = 137;
  RealFftEngine<double> eng(2 * nt);
  EXPECT_EQ(eng.spectrum_size(), nt + 1);
}

// ------------------------------------------------------- batched plans
TEST(BatchedPlan, StridedBatchesMatchSingleTransforms) {
  const index_t L = 64, batch = 7, in_stride = L + 3, out_stride = L / 2 + 5;
  BatchedRealFft<double> plan(L, batch);
  RealFftEngine<double> single(L);
  FftScratch<double> scratch;

  std::vector<double> in(static_cast<std::size_t>(batch * in_stride), 0.0);
  util::Rng rng(3);
  for (auto& v : in) v = rng.uniform(-1, 1);
  std::vector<cdouble> out(static_cast<std::size_t>(batch * out_stride));
  plan.forward(in.data(), in_stride, out.data(), out_stride);

  for (index_t b = 0; b < batch; ++b) {
    std::vector<cdouble> expect(static_cast<std::size_t>(L / 2 + 1));
    single.forward(in.data() + b * in_stride, expect.data(), scratch);
    for (index_t k = 0; k <= L / 2; ++k) {
      EXPECT_NEAR(std::abs(out[static_cast<std::size_t>(b * out_stride + k)] -
                           expect[static_cast<std::size_t>(k)]),
                  0.0, 1e-14);
    }
  }
}

TEST(BatchedPlan, DeviceExecutionMatchesHost) {
  const index_t L = 200, batch = 33;
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  BatchedRealFft<double> plan(L, batch);

  std::vector<double> in(static_cast<std::size_t>(batch * L));
  util::Rng rng(17);
  for (auto& v : in) v = rng.uniform(-1, 1);
  std::vector<cdouble> host_out(static_cast<std::size_t>(batch * (L / 2 + 1)));
  std::vector<cdouble> dev_out(host_out.size());

  plan.forward(in.data(), L, host_out.data(), L / 2 + 1);
  const auto timing =
      plan.forward_on(stream, in.data(), L, dev_out.data(), L / 2 + 1);
  EXPECT_EQ(host_out, dev_out);  // bit-identical: same code path
  EXPECT_GT(timing.seconds, 0.0);
  EXPECT_GT(stream.now(), 0.0);
}

TEST(BatchedPlan, InverseOnDeviceRoundTrips) {
  const index_t L = 128, batch = 9;
  device::Device dev(device::make_mi250x_gcd());
  device::Stream stream(dev);
  BatchedRealFft<float> plan(L, batch);

  std::vector<float> in(static_cast<std::size_t>(batch * L));
  util::Rng rng(29);
  for (auto& v : in) v = static_cast<float>(rng.uniform(-1, 1));
  std::vector<cfloat> spec(static_cast<std::size_t>(batch * (L / 2 + 1)));
  std::vector<float> back(in.size());
  plan.forward_on(stream, in.data(), L, spec.data(), L / 2 + 1);
  plan.inverse_on(stream, spec.data(), L / 2 + 1, back.data(), L);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_NEAR(back[i], in[i], 2e-6);
  }
}

TEST(BatchedPlan, InvalidBatchThrows) {
  EXPECT_THROW(BatchedRealFft<double>(64, 0), std::invalid_argument);
  EXPECT_THROW(BatchedRealFft<double>(0, 4), std::invalid_argument);
}

TEST(BatchedPlan, RuntimeMultiplierMatchesWiderPlan) {
  // One cached plan executing batch * mult sequences must equal a
  // plan created at the wider batch — numerics, geometry, footprint
  // and simulated time — so batched applies never re-plan.
  const index_t L = 96, batch = 4, mult = 3;
  device::Device dev(device::make_mi300x());
  device::Stream narrow_stream(dev), wide_stream(dev);
  BatchedRealFft<double> narrow(L, batch);
  BatchedRealFft<double> wide(L, batch * mult);

  std::vector<double> in(static_cast<std::size_t>(batch * mult * L));
  util::Rng rng(37);
  for (auto& v : in) v = rng.uniform(-1, 1);
  const index_t nf = L / 2 + 1;
  std::vector<cdouble> spec_n(static_cast<std::size_t>(batch * mult * nf));
  std::vector<cdouble> spec_w(spec_n.size());

  narrow.forward_on(narrow_stream, in.data(), L, spec_n.data(), nf, mult);
  wide.forward_on(wide_stream, in.data(), L, spec_w.data(), nf);
  EXPECT_EQ(spec_n, spec_w);
  EXPECT_DOUBLE_EQ(narrow_stream.now(), wide_stream.now());

  EXPECT_EQ(narrow.geometry(mult).grid_x, wide.geometry().grid_x);
  EXPECT_DOUBLE_EQ(narrow.footprint(mult).total_bytes(),
                   wide.footprint().total_bytes());
  EXPECT_DOUBLE_EQ(narrow.footprint(mult).flops, wide.footprint().flops);

  // Inverse round-trips through the multiplied path too.
  std::vector<double> back(in.size());
  narrow.inverse_on(narrow_stream, spec_n.data(), nf, back.data(), L, mult);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_NEAR(back[i], in[i], 1e-12);
  }
}

TEST(BatchedPlan, HostMultiplierMatchesDevice) {
  const index_t L = 64, batch = 3, mult = 2;
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  BatchedRealFft<float> plan(L, batch);
  std::vector<float> in(static_cast<std::size_t>(batch * mult * L));
  util::Rng rng(41);
  for (auto& v : in) v = static_cast<float>(rng.uniform(-1, 1));
  const index_t nf = L / 2 + 1;
  std::vector<cfloat> host_out(static_cast<std::size_t>(batch * mult * nf));
  std::vector<cfloat> dev_out(host_out.size());
  plan.forward(in.data(), L, host_out.data(), nf, mult);
  plan.forward_on(stream, in.data(), L, dev_out.data(), nf, mult);
  EXPECT_EQ(host_out, dev_out);
}

TEST(BatchedPlan, InvalidMultiplierThrows) {
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  BatchedRealFft<double> plan(32, 2);
  std::vector<double> in(64);
  std::vector<cdouble> out(static_cast<std::size_t>(2 * 17));
  EXPECT_THROW(plan.forward_on(stream, in.data(), 32, out.data(), 17, 0),
               std::invalid_argument);
  EXPECT_THROW(plan.geometry(-1), std::invalid_argument);
}

// ---------------------------------------------- fused entry points
//
// The fused launches run forward_on's and inverse_on's transforms with
// their I/O through callbacks.  Callbacks that read and write plain
// strided buffers must reproduce the plain launches bit for bit, and a
// fused footprint whose callbacks move one pass of the working set
// each way is charged exactly the plain footprint's simulated time.
// Lengths 1..64 plus 80, 256 and 2000 cover the direct path (odd L),
// the packed power-of-two path and the packed Bluestein path.

std::vector<index_t> fused_lengths() {
  std::vector<index_t> lengths;
  for (index_t L = 1; L <= 64; ++L) lengths.push_back(L);
  for (const index_t L : {80, 256, 2000}) lengths.push_back(L);
  return lengths;
}

template <class Real>
void expect_fused_matches_plain(index_t L, index_t mult) {
  using C = std::complex<Real>;
  const std::string what = "L=" + std::to_string(L) + " mult=" + std::to_string(mult);
  device::Device dev(device::make_mi300x());
  device::Stream plain_stream(dev), fused_stream(dev);
  const index_t batch = 2, nf = L / 2 + 1, seqs = batch * mult;
  BatchedRealFft<Real> plan(L, batch);
  const auto fp = plan.fused_footprint(mult, static_cast<double>(L * sizeof(Real)),
                                       static_cast<double>(L * sizeof(Real)));
  const auto in = random_real<Real>(seqs * L, 300 + static_cast<std::uint64_t>(L));

  std::vector<C> spec(static_cast<std::size_t>(seqs * nf)), fused_spec(spec.size());
  plan.forward_on(plain_stream, in.data(), L, spec.data(), nf, mult);
  plan.forward_fused_on(
      fused_stream, mult, fp, [&](index_t q, index_t t) { return in[q * L + t]; },
      [&](index_t q, index_t k, const C& v) { fused_spec[q * nf + k] = v; });
  EXPECT_EQ(fused_spec, spec) << what;
  EXPECT_EQ(fused_stream.now(), plain_stream.now()) << what;

  std::vector<Real> back(in.size()), fused_back(in.size());
  plan.inverse_on(plain_stream, spec.data(), nf, back.data(), L, mult);
  plan.inverse_fused_on(
      fused_stream, mult, fp, [&](index_t q, index_t k) { return spec[q * nf + k]; },
      [&](index_t q, index_t j, Real v) { fused_back[q * L + j] = v; },
      [](index_t) {});
  EXPECT_EQ(fused_back, back) << what;
  EXPECT_EQ(fused_stream.now(), plain_stream.now()) << what;
}

TEST(FusedPlan, IdentityCallbacksMatchPlainLaunchesBitForBit) {
  for (const index_t L : fused_lengths()) {
    for (const index_t mult : {1, 3}) {
      expect_fused_matches_plain<double>(L, mult);
      expect_fused_matches_plain<float>(L, mult);
    }
  }
}

// The matvec's phase-1 fold: a load that returns 0 past the n data
// samples feeds the engine the zero-padded buffer's arithmetic, zeros
// included, so the spectrum equals forward_on over an explicitly
// padded buffer bit for bit (L = 2n as in the matvec, and L = 2n + 1
// for the direct path).
template <class Real>
void expect_zero_load_matches_padded(index_t n, index_t L) {
  using C = std::complex<Real>;
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  const index_t batch = 3, mult = 2, nf = L / 2 + 1, seqs = batch * mult;
  BatchedRealFft<Real> plan(L, batch);
  const auto data = random_real<Real>(seqs * n, 400 + static_cast<std::uint64_t>(n));
  std::vector<Real> padded(static_cast<std::size_t>(seqs * L), Real(0));
  for (index_t q = 0; q < seqs; ++q) {
    for (index_t t = 0; t < n; ++t) padded[q * L + t] = data[q * n + t];
  }
  std::vector<C> spec(static_cast<std::size_t>(seqs * nf)), fused_spec(spec.size());
  plan.forward_on(stream, padded.data(), L, spec.data(), nf, mult);
  plan.forward_fused_on(
      stream, mult, plan.fused_footprint(mult, static_cast<double>(n * sizeof(Real)),
                                         static_cast<double>(nf * sizeof(C))),
      [&](index_t q, index_t t) { return t < n ? data[q * n + t] : Real(0); },
      [&](index_t q, index_t k, const C& v) { fused_spec[q * nf + k] = v; });
  EXPECT_EQ(fused_spec, spec) << "n=" << n << " L=" << L;
}

TEST(FusedPlan, ZeroLoadsPastTheDataMatchAnExplicitlyPaddedBuffer) {
  for (const index_t n : {1, 2, 5, 16, 20, 40, 64, 128, 1000}) {
    for (const index_t L : {2 * n, 2 * n + 1}) {
      expect_zero_load_matches_padded<double>(n, L);
      expect_zero_load_matches_padded<float>(n, L);
    }
  }
}

// The fused forward's Parseval check reads the bins back as stored, so
// a bin corrupted on its way to memory trips it, and its verdict and
// message are verify_parseval_on's over the same buffers.  Both FFT
// paths: L = 16 (packed power of two) and L = 40 (packed Bluestein).
TEST(FusedPlan, CorruptedStoredBinTripsTheForwardParsevalCheck) {
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  const double tol = 1e-10;  // far above double rounding, far below a flip
  for (const index_t L : {16, 40}) {
    const index_t batch = 2, nf = L / 2 + 1;
    BatchedRealFft<double> fft(L, batch);
    const auto time = random_real<double>(batch * L, 81);
    const auto fp = fft.fused_footprint(1, static_cast<double>(L * sizeof(double)),
                                        static_cast<double>(nf * sizeof(cdouble)));
    // Bin 3 of the SECOND sequence goes through `corrupt`.
    const auto run = [&](auto corrupt, std::vector<cdouble>& spec) {
      spec.assign(static_cast<std::size_t>(batch * nf), cdouble{});
      ParsevalFailure fail;
      const ParsevalCheck check{tol, &fail};
      fft.forward_fused_on(
          stream, 1, fp, [&](index_t q, index_t t) { return time[q * L + t]; },
          [&](index_t q, index_t k, const cdouble& v) {
            spec[q * nf + k] = q == 1 && k == 3 ? corrupt(v) : v;
          },
          &check, [&](index_t q, index_t k) { return spec[q * nf + k]; });
      return message([&] { fail.throw_if_any("unit"); });
    };
    const auto plain = [&](const std::vector<cdouble>& spec) {
      return message([&] {
        fft.verify_parseval_on(stream, time.data(), L, spec.data(), nf, 1, tol, "unit");
      });
    };
    std::vector<cdouble> spec;
    EXPECT_EQ(run([](const cdouble& v) { return v; }, spec), "") << "L=" << L;
    EXPECT_EQ(plain(spec), "") << "L=" << L;
    const auto nan = std::numeric_limits<double>::quiet_NaN();
    const auto inf = std::numeric_limits<double>::infinity();
    for (const auto& corrupt : std::vector<std::function<cdouble(const cdouble&)>>{
             [](const cdouble& v) { return v * 2.0; },
             [&](const cdouble& v) { return cdouble{nan, v.imag()}; },
             [&](const cdouble& v) { return cdouble{inf, v.imag()}; }}) {
      const std::string fused = run(corrupt, spec);
      EXPECT_NE(fused, "") << "L=" << L << ": a corrupted stored bin passed";
      EXPECT_EQ(fused, plain(spec)) << "L=" << L;
    }
  }
  // Without the stored bins there is nothing to check against.
  BatchedRealFft<double> fft(16, 1);
  ParsevalFailure fail;
  const ParsevalCheck check{tol, &fail};
  EXPECT_THROW(fft.forward_fused_on(
                   stream, 1, fft.footprint(), [](index_t, index_t) { return 0.0; },
                   [](index_t, index_t, const cdouble&) {}, &check),
               std::invalid_argument);
}

// ---------------------------------------------- transform theorems
class FftTheorems : public ::testing::TestWithParam<index_t> {};

TEST_P(FftTheorems, CircularConvolutionTheorem) {
  // FFT(x (*) y) == FFT(x) .* FFT(y) — the identity the whole matvec
  // pipeline is built on (circulant diagonalisation, §2.4).
  const index_t n = GetParam();
  ComplexFftEngine<double> eng(n);
  FftScratch<double> scratch;
  const auto x = random_complex<double>(n, 101);
  const auto y = random_complex<double>(n, 102);

  // Direct circular convolution.
  std::vector<cdouble> conv(static_cast<std::size_t>(n), cdouble{});
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      conv[static_cast<std::size_t>((i + j) % n)] +=
          x[static_cast<std::size_t>(i)] * y[static_cast<std::size_t>(j)];
    }
  }
  std::vector<cdouble> conv_hat(conv.size());
  eng.transform(conv.data(), conv_hat.data(), -1, scratch);

  std::vector<cdouble> xh(x.size()), yh(y.size()), prod(x.size());
  eng.transform(x.data(), xh.data(), -1, scratch);
  eng.transform(y.data(), yh.data(), -1, scratch);
  for (std::size_t k = 0; k < prod.size(); ++k) prod[k] = xh[k] * yh[k];
  EXPECT_LT(rel_err(conv_hat, prod), 1e-11) << "n=" << n;
}

TEST_P(FftTheorems, TimeShiftTheorem) {
  // FFT(x shifted by s)[k] == FFT(x)[k] * exp(-2 pi i s k / n).
  const index_t n = GetParam();
  const index_t shift = n / 3 + 1;
  ComplexFftEngine<double> eng(n);
  FftScratch<double> scratch;
  const auto x = random_complex<double>(n, 103);
  std::vector<cdouble> shifted(x.size());
  for (index_t i = 0; i < n; ++i) {
    shifted[static_cast<std::size_t>((i + shift) % n)] = x[static_cast<std::size_t>(i)];
  }
  std::vector<cdouble> xh(x.size()), sh(x.size()), expect(x.size());
  eng.transform(x.data(), xh.data(), -1, scratch);
  eng.transform(shifted.data(), sh.data(), -1, scratch);
  for (index_t k = 0; k < n; ++k) {
    const double theta = -2.0 * M_PI * static_cast<double>((shift * k) % n) /
                         static_cast<double>(n);
    expect[static_cast<std::size_t>(k)] =
        xh[static_cast<std::size_t>(k)] * cdouble{std::cos(theta), std::sin(theta)};
  }
  EXPECT_LT(rel_err(sh, expect), 1e-12);
}

TEST_P(FftTheorems, RealInputHasConjugateSymmetricSpectrum) {
  const index_t n = GetParam();
  if (n < 2) GTEST_SKIP();
  ComplexFftEngine<double> eng(n);
  FftScratch<double> scratch;
  std::vector<cdouble> x(static_cast<std::size_t>(n));
  util::Rng rng(104);
  for (auto& v : x) v = {rng.uniform(-1, 1), 0.0};
  std::vector<cdouble> xh(x.size());
  eng.transform(x.data(), xh.data(), -1, scratch);
  for (index_t k = 1; k < n; ++k) {
    EXPECT_NEAR(std::abs(xh[static_cast<std::size_t>(k)] -
                         std::conj(xh[static_cast<std::size_t>(n - k)])),
                0.0, 1e-12)
        << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftTheorems,
                         ::testing::Values<index_t>(8, 12, 37, 64, 100, 256),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param);
                         });

TEST(BatchedPlan, FootprintScalesWithBatchAndLength) {
  BatchedRealFft<double> small(128, 10), big(128, 100);
  EXPECT_NEAR(big.footprint().total_bytes() / small.footprint().total_bytes(),
              10.0, 1e-9);
  BatchedRealFft<double> longer(4096, 10);
  EXPECT_GT(longer.footprint().total_bytes(), small.footprint().total_bytes());
  EXPECT_GT(longer.footprint().flops, small.footprint().flops);
}

}  // namespace
}  // namespace fftmv::fft
