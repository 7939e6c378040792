// Error-model tests (Eq. 6, §3.2.1): structural properties of the
// bound and empirical containment — for every one of the 32 precision
// configurations and several problem sizes the measured relative
// error must stay below the modelled bound with O(1) constants.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "blas/vector_ops.hpp"
#include "core/block_toeplitz.hpp"
#include "core/error_model.hpp"
#include "core/matvec_plan.hpp"
#include "core/synthetic.hpp"
#include "device/device_spec.hpp"

namespace fftmv::core {
namespace {

using precision::PrecisionConfig;

ErrorModelInputs inputs_for(index_t n_m, index_t n_d, index_t n_t,
                            double amplification = 1.0) {
  ErrorModelInputs in;
  in.dims = LocalDims::single_rank({n_m, n_d, n_t});
  in.amplification = amplification;
  return in;
}

TEST(ErrorModel, AllDoubleBoundIsTiny) {
  const auto b = error_bound(PrecisionConfig{}, inputs_for(5000, 100, 1000));
  EXPECT_LT(b, 1e-11);
  EXPECT_GT(b, 0.0);
}

TEST(ErrorModel, SingleSbgemvDominates) {
  // §3.2.1: "the dominant error term comes from the SBGEMV".
  const auto in = inputs_for(5000, 100, 1000);
  const double gemv_single =
      error_bound(PrecisionConfig::parse("ddsdd"), in);
  for (const char* other : {"sdddd", "dsddd", "dddsd", "dddds"}) {
    EXPECT_GT(gemv_single, error_bound(PrecisionConfig::parse(other), in))
        << other;
  }
}

TEST(ErrorModel, BoundGrowsWithLocalWidth) {
  // The n_m factor of the SBGEMV term.
  const auto cfg = PrecisionConfig::parse("ddsdd");
  EXPECT_GT(error_bound(cfg, inputs_for(10000, 100, 1000)),
            error_bound(cfg, inputs_for(1000, 100, 1000)));
}

TEST(ErrorModel, AdjointUsesSensorWidth) {
  // For F* the n_m factor becomes n_d (much smaller here).
  auto in = inputs_for(5000, 100, 1000);
  const auto cfg = PrecisionConfig::parse("ddsdd");
  const double fwd = error_bound(cfg, in);
  in.adjoint = true;
  const double adj = error_bound(cfg, in);
  EXPECT_GT(fwd, adj);
}

TEST(ErrorModel, ReductionTermScalesWithLogRanks) {
  auto in = inputs_for(5000, 100, 1000);
  const auto cfg = PrecisionConfig::parse("dddds");
  const double p1 = error_bound(cfg, in);
  in.reduce_ranks = 4096;
  const double p4096 = error_bound(cfg, in);
  EXPECT_GT(p4096, p1);
  in.reduce_ranks = 64;
  EXPECT_LT(error_bound(cfg, in), p4096);
}

TEST(ErrorModel, DoublePadContributesNothing) {
  // c1 := 0 when phase 1 is double (§3.2.1): making only phase 1
  // single must strictly raise the bound.
  const auto in = inputs_for(500, 10, 100);
  EXPECT_GT(error_bound(PrecisionConfig::parse("sdddd"), in),
            error_bound(PrecisionConfig::parse("ddddd"), in));
}

TEST(ErrorModel, AmplificationIsMultiplicative) {
  const auto cfg = PrecisionConfig::parse("dssdd");
  const double base = error_bound(cfg, inputs_for(500, 10, 100, 1.0));
  const double amp = error_bound(cfg, inputs_for(500, 10, 100, 7.5));
  EXPECT_NEAR(amp / base, 7.5, 1e-12);
}

// ------------------------------------------------------- containment
class BoundContainment
    : public ::testing::TestWithParam<std::tuple<index_t, index_t, index_t>> {};

TEST_P(BoundContainment, MeasuredErrorBelowBoundForAll32Configs) {
  const auto [n_m, n_d, n_t] = GetParam();
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  const ProblemDims dims{n_m, n_d, n_t};
  const auto local = LocalDims::single_rank(dims);
  const auto col = make_first_block_col(local, 2024);
  const auto m = make_input_vector(n_t * n_m, 2025);

  BlockToeplitzOperator op(dev, stream, local, col);
  FftMatvecPlan plan(dev, stream, local);
  std::vector<double> baseline(static_cast<std::size_t>(n_t * n_d));
  plan.forward(op, m, baseline, PrecisionConfig{});

  // Observed normwise amplification (see error_model.hpp), with
  // ||F_hat||_F summed over the double spectrum in storage order.
  double spectrum_sq = 0.0;
  for (index_t k = 0; k < op.spectrum_elems(); ++k) {
    spectrum_sq += std::norm(op.spectrum_d()[k]);
  }
  const double amp = std::sqrt(spectrum_sq) *
                     blas::nrm2<double>(n_t * n_m, m.data()) /
                     std::max(1e-300, blas::nrm2<double>(
                                          n_t * n_d, baseline.data()));

  ErrorModelInputs in;
  in.dims = local;
  in.amplification = amp;
  ErrorModelConstants constants;  // all c_i = 1

  std::vector<double> out(baseline.size());
  for (const auto& cfg : PrecisionConfig::all_configs()) {
    plan.forward(op, m, out, cfg);
    const double measured =
        blas::relative_l2_error(n_t * n_d, out.data(), baseline.data());
    const double bound = error_bound(cfg, in, constants);
    EXPECT_LT(measured, bound) << cfg.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, BoundContainment,
    ::testing::Values(std::make_tuple<index_t, index_t, index_t>(32, 4, 16),
                      std::make_tuple<index_t, index_t, index_t>(64, 8, 25),
                      std::make_tuple<index_t, index_t, index_t>(128, 4, 32),
                      std::make_tuple<index_t, index_t, index_t>(48, 16, 20)),
    [](const auto& info) {
      // Appended piece by piece: GCC 12 flags the inlined
      // "m" + std::to_string(...) chain with a false -Wrestrict.
      std::string name = "m";
      name += std::to_string(std::get<0>(info.param));
      name += "d";
      name += std::to_string(std::get<1>(info.param));
      name += "t";
      name += std::to_string(std::get<2>(info.param));
      return name;
    });

TEST(ErrorModel, BoundIsNotVacuous) {
  // For the all-single config the measured error should be within a
  // few orders of magnitude of the bound, not astronomically below.
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  const ProblemDims dims{64, 4, 32};
  const auto local = LocalDims::single_rank(dims);
  const auto col = make_first_block_col(local, 3000);
  const auto m = make_input_vector(dims.n_t * dims.n_m, 3001);
  BlockToeplitzOperator op(dev, stream, local, col);
  FftMatvecPlan plan(dev, stream, local);
  std::vector<double> baseline(static_cast<std::size_t>(dims.n_t * dims.n_d));
  std::vector<double> out(baseline.size());
  plan.forward(op, m, baseline, PrecisionConfig{});
  plan.forward(op, m, out, PrecisionConfig::parse("sssss"));
  const double measured = blas::relative_l2_error(
      dims.n_t * dims.n_d, out.data(), baseline.data());
  ErrorModelInputs in;
  in.dims = local;
  in.amplification = 1.0;
  const double bound = error_bound(PrecisionConfig::parse("sssss"), in);
  EXPECT_GT(measured, bound * 1e-4);
}

}  // namespace
}  // namespace fftmv::core
