// Mixed-precision framework tests: the 5-phase configuration strings,
// the 32-configuration enumeration, and the cast-fused memory kernels
// (pad, unpad, transpose) in every precision combination.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "device/device.hpp"
#include "device/stream.hpp"
#include "precision/convert.hpp"
#include "precision/precision.hpp"
#include "util/rng.hpp"

namespace fftmv::precision {
namespace {

// ----------------------------------------------------------- config
TEST(Config, DefaultIsAllDouble) {
  PrecisionConfig c;
  EXPECT_TRUE(c.all_double());
  EXPECT_EQ(c.to_string(), "ddddd");
  EXPECT_EQ(c.single_count(), 0);
}

TEST(Config, ParsePaperOptimalConfigs) {
  // The paper's optimal configs: "dssdd" (F) and "dssds" (>=512 GPUs).
  const auto f = PrecisionConfig::parse("dssdd");
  EXPECT_EQ(f.phase(kPhasePad), Precision::kDouble);
  EXPECT_EQ(f.phase(kPhaseFft), Precision::kSingle);
  EXPECT_EQ(f.phase(kPhaseSbgemv), Precision::kSingle);
  EXPECT_EQ(f.phase(kPhaseIfft), Precision::kDouble);
  EXPECT_EQ(f.phase(kPhaseUnpad), Precision::kDouble);
  EXPECT_EQ(f.to_string(), "dssdd");
  EXPECT_EQ(f.single_count(), 2);

  const auto scaled = PrecisionConfig::parse("dssds");
  EXPECT_EQ(scaled.phase(kPhaseUnpad), Precision::kSingle);
}

TEST(Config, ParseRejectsMalformed) {
  EXPECT_THROW(PrecisionConfig::parse(""), std::invalid_argument);
  EXPECT_THROW(PrecisionConfig::parse("dd"), std::invalid_argument);
  EXPECT_THROW(PrecisionConfig::parse("dddddd"), std::invalid_argument);
  EXPECT_THROW(PrecisionConfig::parse("dxsdd"), std::invalid_argument);
  EXPECT_THROW(PrecisionConfig::parse("DSSDD"), std::invalid_argument);
}

TEST(Config, AllConfigsEnumerates32Unique) {
  const auto all = PrecisionConfig::all_configs();
  ASSERT_EQ(all.size(), 32u);  // §4.2.1: "the 32 possible configurations"
  std::set<std::string> seen;
  for (const auto& c : all) seen.insert(c.to_string());
  EXPECT_EQ(seen.size(), 32u);
  EXPECT_EQ(all.front().to_string(), "ddddd");
  EXPECT_EQ(all.back().to_string(), "sssss");
}

TEST(Config, RoundTripsThroughString) {
  for (const auto& c : PrecisionConfig::all_configs()) {
    EXPECT_EQ(PrecisionConfig::parse(c.to_string()), c);
  }
}

TEST(Config, EpsAndMinPrecision) {
  EXPECT_EQ(eps(Precision::kSingle), kEpsSingle);
  EXPECT_EQ(eps(Precision::kDouble), kEpsDouble);
  EXPECT_EQ(min_precision(Precision::kDouble, Precision::kSingle),
            Precision::kSingle);
  EXPECT_EQ(min_precision(Precision::kDouble, Precision::kDouble),
            Precision::kDouble);
}

TEST(Config, PhaseNames) {
  EXPECT_STREQ(phase_name(kPhasePad), "Pad");
  EXPECT_STREQ(phase_name(kPhaseSbgemv), "SBGEMV");
  EXPECT_STREQ(phase_name(kPhaseUnpad), "Unpad");
}

// ------------------------------------------------------ cast kernels
class ConvertFixture : public ::testing::Test {
 protected:
  device::Device dev_{device::make_mi300x()};
  device::Stream stream_{dev_};
};

TEST_F(ConvertFixture, ConvertArrayRoundsToFloat) {
  util::Rng rng(1);
  std::vector<double> src(100);
  util::fill_uniform_unrepresentable(rng, src.data(), 100);
  std::vector<float> dst(100);
  convert_array(stream_, src.data(), dst.data(), 100);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(dst[static_cast<std::size_t>(i)],
              static_cast<float>(src[static_cast<std::size_t>(i)]));
    EXPECT_NE(static_cast<double>(dst[static_cast<std::size_t>(i)]),
              src[static_cast<std::size_t>(i)]);  // lossy by construction
  }
}

TEST_F(ConvertFixture, ConvertArrayComplex) {
  std::vector<cdouble> src{{1.00000000123, -2.5}, {0.25, 3e-9}};
  std::vector<cfloat> dst(2);
  convert_array(stream_, src.data(), dst.data(), 2);
  EXPECT_EQ(dst[0], cfloat(static_cast<float>(src[0].real()),
                           static_cast<float>(src[0].imag())));
}

TEST_F(ConvertFixture, TransposePadCastLaysOutSotiWithZeroTail) {
  const index_t nt = 5, ns = 3, L = 12;
  util::Rng rng(2);
  std::vector<double> src(static_cast<std::size_t>(nt * ns));  // TOSI
  util::fill_uniform(rng, src.data(), nt * ns);
  std::vector<float> dst(static_cast<std::size_t>(ns * L), -1.0f);
  transpose_pad_cast<float>(stream_, src.data(), dst.data(), nt, ns, L);
  for (index_t s = 0; s < ns; ++s) {
    for (index_t t = 0; t < nt; ++t) {
      EXPECT_EQ(dst[static_cast<std::size_t>(s * L + t)],
                static_cast<float>(src[static_cast<std::size_t>(t * ns + s)]));
    }
    for (index_t t = nt; t < L; ++t) {
      EXPECT_EQ(dst[static_cast<std::size_t>(s * L + t)], 0.0f);
    }
  }
}

TEST_F(ConvertFixture, UnpadTransposeCastInvertsPad) {
  const index_t nt = 7, ns = 4, L = 16;
  util::Rng rng(3);
  std::vector<double> original(static_cast<std::size_t>(nt * ns));
  util::fill_uniform(rng, original.data(), nt * ns);
  std::vector<double> padded(static_cast<std::size_t>(ns * L));
  transpose_pad_cast<double>(stream_, original.data(), padded.data(), nt, ns, L);
  std::vector<double> back(static_cast<std::size_t>(nt * ns));
  unpad_transpose_cast<double>(stream_, padded.data(), back.data(), nt, ns, L);
  EXPECT_EQ(back, original);
}

// The RHS-batched forms, as the matvec drives them: one launch pads
// (unpads) vectors held in separate allocations, and each value takes
// the rounding of the cast precision P on its way between a double
// source and a double destination.
TEST_F(ConvertFixture, BatchedPadUnpadRoundThroughCastPrecision) {
  const index_t nt = 5, ns = 11, L = 12, b = 3;  // ns > 8: two row blocks
  util::Rng rng(5);
  std::vector<std::vector<double>> src(static_cast<std::size_t>(b));
  std::vector<const double*> srcs;
  for (auto& v : src) {
    v.resize(static_cast<std::size_t>(nt * ns));
    util::fill_uniform_unrepresentable(rng, v.data(), nt * ns);
    srcs.push_back(v.data());
  }
  const auto rounded = [&](index_t r, index_t i) {
    return static_cast<double>(static_cast<float>(
        src[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)]));
  };
  std::vector<double> padded(static_cast<std::size_t>(b * ns * L), -1.0);
  transpose_pad_cast<float>(stream_, std::span<const double* const>(srcs),
                            padded.data(), nt, ns, L);
  for (index_t r = 0; r < b; ++r) {
    for (index_t s = 0; s < ns; ++s) {
      for (index_t t = 0; t < L; ++t) {
        EXPECT_EQ(padded[static_cast<std::size_t>((r * ns + s) * L + t)],
                  t < nt ? rounded(r, t * ns + s) : 0.0);
      }
    }
  }
  std::vector<std::vector<double>> back(
      static_cast<std::size_t>(b),
      std::vector<double>(static_cast<std::size_t>(nt * ns), -1.0));
  std::vector<double*> dsts;
  for (auto& v : back) dsts.push_back(v.data());
  unpad_transpose_cast<float>(stream_, padded.data(),
                              std::span<double* const>(dsts), nt, ns, L);
  for (index_t r = 0; r < b; ++r) {
    for (index_t i = 0; i < nt * ns; ++i) {
      const double got = back[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)];
      EXPECT_EQ(got, rounded(r, i));
      // Lossy by construction: the rounding through P happened.
      EXPECT_NE(got, src[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)]);
    }
  }
}

TEST_F(ConvertFixture, TransposeCastComplexBothDirections) {
  const index_t rows = 6, cols = 9;
  util::Rng rng(4);
  std::vector<cdouble> src(static_cast<std::size_t>(rows * cols));
  for (auto& v : src) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  // double -> float
  std::vector<cfloat> down(static_cast<std::size_t>(rows * cols));
  transpose_cast<cfloat>(stream_, src.data(), down.data(), rows, cols);
  for (index_t r = 0; r < rows; ++r) {
    for (index_t c = 0; c < cols; ++c) {
      const cdouble v = src[static_cast<std::size_t>(r * cols + c)];
      EXPECT_EQ(down[static_cast<std::size_t>(c * rows + r)],
                cfloat(static_cast<float>(v.real()), static_cast<float>(v.imag())));
    }
  }
  // float -> double (upcast is exact)
  std::vector<cdouble> up(static_cast<std::size_t>(rows * cols));
  transpose_cast<cdouble>(stream_, down.data(), up.data(), cols, rows);
  for (index_t r = 0; r < rows; ++r) {
    for (index_t c = 0; c < cols; ++c) {
      EXPECT_EQ(up[static_cast<std::size_t>(r * cols + c)],
                cdouble(down[static_cast<std::size_t>(c * rows + r)]));
    }
  }
}

TEST_F(ConvertFixture, FusedKernelsChargeSingleLaunch) {
  // Fusion exists to avoid extra kernel launches (§3.2); one fused
  // call must cost less simulated time than memory-op + cast.
  const index_t nt = 256, ns = 128, L = 512;
  std::vector<double> src(static_cast<std::size_t>(nt * ns), 1.0);
  std::vector<float> fused_dst(static_cast<std::size_t>(ns * L));
  std::vector<double> unfused_mid(static_cast<std::size_t>(ns * L));
  std::vector<float> unfused_dst(static_cast<std::size_t>(ns * L));

  device::Stream fused(dev_), unfused(dev_);
  transpose_pad_cast<float>(fused, src.data(), fused_dst.data(), nt, ns, L);
  transpose_pad_cast<double>(unfused, src.data(), unfused_mid.data(), nt, ns, L);
  convert_array(unfused, unfused_mid.data(), unfused_dst.data(), ns * L);
  EXPECT_LT(fused.now(), unfused.now());
  EXPECT_EQ(fused_dst, unfused_dst);  // numerics identical
}

}  // namespace
}  // namespace fftmv::precision
