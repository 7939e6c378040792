// Core matvec tests: the FFT-based pipeline against the dense
// block-triangular Toeplitz reference, the adjoint identity, all 32
// mixed-precision configurations, fused-vs-unfused casts, kernel
// policies, Bluestein vs power-of-two padding, timings, and phantom
// dry runs.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "blas/vector_ops.hpp"
#include "core/block_toeplitz.hpp"
#include "core/dense_reference.hpp"
#include "core/matvec_plan.hpp"
#include "core/synthetic.hpp"
#include "device/device_spec.hpp"
#include "device/fault_plan.hpp"
#include "util/thread_pool.hpp"

namespace fftmv::core {
namespace {

using precision::PrecisionConfig;

struct Problem {
  ProblemDims dims;
  std::vector<double> first_col;
  std::vector<double> m;
  std::vector<double> d;
};

Problem make_problem(index_t n_m, index_t n_d, index_t n_t, std::uint64_t seed) {
  Problem p;
  p.dims = {n_m, n_d, n_t};
  const auto local = LocalDims::single_rank(p.dims);
  p.first_col = make_first_block_col(local, seed);
  p.m = make_input_vector(n_t * n_m, seed + 1);
  p.d = make_input_vector(n_t * n_d, seed + 2);
  return p;
}

class MatvecFixture : public ::testing::Test {
 protected:
  device::Device dev_{device::make_mi300x()};
  device::Stream stream_{dev_};
};

// ------------------------------------------------- dense agreement
class MatvecSizes
    : public ::testing::TestWithParam<std::tuple<index_t, index_t, index_t>> {};

TEST_P(MatvecSizes, ForwardMatchesDenseReference) {
  const auto [n_m, n_d, n_t] = GetParam();
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  auto p = make_problem(n_m, n_d, n_t, 100);
  const auto local = LocalDims::single_rank(p.dims);

  BlockToeplitzOperator op(dev, stream, local, p.first_col);
  FftMatvecPlan plan(dev, stream, local);
  std::vector<double> d_fft(static_cast<std::size_t>(n_t * n_d));
  plan.forward(op, p.m, d_fft, PrecisionConfig{});

  std::vector<double> d_dense(d_fft.size());
  dense_forward(local, p.first_col, p.m, d_dense);
  EXPECT_LT(blas::relative_l2_error(n_t * n_d, d_fft.data(), d_dense.data()),
            1e-12)
      << "n_m=" << n_m << " n_d=" << n_d << " n_t=" << n_t;
}

TEST_P(MatvecSizes, AdjointMatchesDenseReference) {
  const auto [n_m, n_d, n_t] = GetParam();
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  auto p = make_problem(n_m, n_d, n_t, 200);
  const auto local = LocalDims::single_rank(p.dims);

  BlockToeplitzOperator op(dev, stream, local, p.first_col);
  FftMatvecPlan plan(dev, stream, local);
  std::vector<double> m_fft(static_cast<std::size_t>(n_t * n_m));
  plan.adjoint(op, p.d, m_fft, PrecisionConfig{});

  std::vector<double> m_dense(m_fft.size());
  dense_adjoint(local, p.first_col, p.d, m_dense);
  EXPECT_LT(blas::relative_l2_error(n_t * n_m, m_fft.data(), m_dense.data()),
            1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, MatvecSizes,
    ::testing::Values(
        std::make_tuple<index_t, index_t, index_t>(1, 1, 1),
        std::make_tuple<index_t, index_t, index_t>(8, 3, 5),
        std::make_tuple<index_t, index_t, index_t>(33, 4, 16),
        std::make_tuple<index_t, index_t, index_t>(50, 2, 25),   // Bluestein
        std::make_tuple<index_t, index_t, index_t>(64, 8, 32),
        std::make_tuple<index_t, index_t, index_t>(5, 5, 40),    // n_d == n_m
        std::make_tuple<index_t, index_t, index_t>(3, 7, 12)),   // n_d > n_m
    [](const auto& info) {
      return "m" + std::to_string(std::get<0>(info.param)) + "d" +
             std::to_string(std::get<1>(info.param)) + "t" +
             std::to_string(std::get<2>(info.param));
    });

// -------------------------------------------------- algebraic laws
TEST_F(MatvecFixture, AdjointIdentity) {
  // <F m, d> == <m, F* d> up to rounding.
  auto p = make_problem(40, 6, 24, 7);
  const auto local = LocalDims::single_rank(p.dims);
  BlockToeplitzOperator op(dev_, stream_, local, p.first_col);
  FftMatvecPlan plan(dev_, stream_, local);

  std::vector<double> Fm(static_cast<std::size_t>(24 * 6));
  std::vector<double> Ftd(static_cast<std::size_t>(24 * 40));
  plan.forward(op, p.m, Fm, PrecisionConfig{});
  plan.adjoint(op, p.d, Ftd, PrecisionConfig{});

  const double lhs = blas::dot<double>(24 * 6, Fm.data(), p.d.data());
  const double rhs = blas::dot<double>(24 * 40, p.m.data(), Ftd.data());
  EXPECT_NEAR(lhs, rhs, 1e-10 * (std::abs(lhs) + 1.0));
}

TEST_F(MatvecFixture, Linearity) {
  auto p = make_problem(20, 3, 16, 9);
  const auto local = LocalDims::single_rank(p.dims);
  BlockToeplitzOperator op(dev_, stream_, local, p.first_col);
  FftMatvecPlan plan(dev_, stream_, local);

  auto m2 = make_input_vector(16 * 20, 77);
  std::vector<double> combo(m2.size());
  for (std::size_t i = 0; i < combo.size(); ++i) {
    combo[i] = 2.0 * p.m[i] - 0.5 * m2[i];
  }
  std::vector<double> f1(static_cast<std::size_t>(16 * 3)), f2(f1.size()),
      fc(f1.size());
  plan.forward(op, p.m, f1, PrecisionConfig{});
  plan.forward(op, m2, f2, PrecisionConfig{});
  plan.forward(op, combo, fc, PrecisionConfig{});
  for (std::size_t i = 0; i < fc.size(); ++i) {
    EXPECT_NEAR(fc[i], 2.0 * f1[i] - 0.5 * f2[i],
                1e-11 * (std::abs(fc[i]) + 1.0));
  }
}

TEST_F(MatvecFixture, ZeroInputGivesZeroOutput) {
  auto p = make_problem(16, 2, 8, 3);
  const auto local = LocalDims::single_rank(p.dims);
  BlockToeplitzOperator op(dev_, stream_, local, p.first_col);
  FftMatvecPlan plan(dev_, stream_, local);
  std::vector<double> zero(static_cast<std::size_t>(8 * 16), 0.0);
  std::vector<double> out(static_cast<std::size_t>(8 * 2), 1.0);
  plan.forward(op, zero, out, PrecisionConfig{});
  for (double v : out) EXPECT_NEAR(v, 0.0, 1e-13);
}

TEST_F(MatvecFixture, RepeatApplicationsAreBitIdentical) {
  auto p = make_problem(24, 4, 20, 15);
  const auto local = LocalDims::single_rank(p.dims);
  BlockToeplitzOperator op(dev_, stream_, local, p.first_col);
  FftMatvecPlan plan(dev_, stream_, local);
  std::vector<double> a(static_cast<std::size_t>(20 * 4)), b(a.size());
  const auto cfg = PrecisionConfig::parse("dssdd");
  plan.forward(op, p.m, a, cfg);
  plan.forward(op, p.m, b, cfg);
  EXPECT_EQ(a, b);
}

// --------------------------------------------- mixed precision (32)
TEST_F(MatvecFixture, AllThirtyTwoConfigsStayAccurate) {
  auto p = make_problem(48, 4, 32, 21);
  const auto local = LocalDims::single_rank(p.dims);
  BlockToeplitzOperator op(dev_, stream_, local, p.first_col);
  FftMatvecPlan plan(dev_, stream_, local);

  std::vector<double> baseline(static_cast<std::size_t>(32 * 4));
  plan.forward(op, p.m, baseline, PrecisionConfig{});

  std::vector<double> out(baseline.size());
  for (const auto& cfg : PrecisionConfig::all_configs()) {
    plan.forward(op, p.m, out, cfg);
    const double err =
        blas::relative_l2_error(32 * 4, out.data(), baseline.data());
    if (cfg.all_double()) {
      EXPECT_EQ(err, 0.0);
    } else {
      // Any single-precision phase: error visible but far below the
      // single-precision cliff.
      EXPECT_LT(err, 1e-3) << cfg.to_string();
      EXPECT_GT(err, 1e-12) << cfg.to_string();
    }
  }
}

TEST_F(MatvecFixture, SingleSbgemvDominatesErrorOverSinglePad) {
  // §3.2.1: the SBGEMV term carries the n_m factor, so "dsdds"-style
  // configs with single SBGEMV must err more than single-pad-only.
  auto p = make_problem(64, 4, 32, 33);
  const auto local = LocalDims::single_rank(p.dims);
  BlockToeplitzOperator op(dev_, stream_, local, p.first_col);
  FftMatvecPlan plan(dev_, stream_, local);

  std::vector<double> baseline(static_cast<std::size_t>(32 * 4));
  plan.forward(op, p.m, baseline, PrecisionConfig{});
  std::vector<double> out(baseline.size());

  plan.forward(op, p.m, out, PrecisionConfig::parse("sdddd"));
  const double err_pad =
      blas::relative_l2_error(32 * 4, out.data(), baseline.data());
  plan.forward(op, p.m, out, PrecisionConfig::parse("ddsdd"));
  const double err_gemv =
      blas::relative_l2_error(32 * 4, out.data(), baseline.data());
  EXPECT_GT(err_gemv, err_pad);
}

TEST_F(MatvecFixture, MantissaTrickMakesPadPhaseLossy) {
  // Without unrepresentable inputs a single-precision broadcast would
  // be error-free and bias the Pareto analysis (§4.2.1).  Our
  // synthetic inputs must therefore make "sdddd" differ from "ddddd".
  auto p = make_problem(16, 2, 8, 41);
  const auto local = LocalDims::single_rank(p.dims);
  BlockToeplitzOperator op(dev_, stream_, local, p.first_col);
  FftMatvecPlan plan(dev_, stream_, local);
  std::vector<double> a(static_cast<std::size_t>(8 * 2)), b(a.size());
  plan.forward(op, p.m, a, PrecisionConfig{});
  plan.forward(op, p.m, b, PrecisionConfig::parse("sdddd"));
  EXPECT_NE(a, b);
}

// ------------------------------------------------ options / fusion
// The fusion ablation is the unfused 7-launch pipeline, every
// precision change a cast kernel of its own, so it is an independent
// reference for what the fused 3-launch pipeline does in-kernel
// (double -> p1 -> p2 and the zero-padded half in the forward FFT's
// sample loads, the reorder in its bin stores, the GEMV's p2 -> p3
// reads, and the inverse FFT's p3 -> p4 bin loads and p4 -> p5 ->
// double sample stores): outputs must be bit-identical in every
// config, direction, batch size and verify mode, on both FFT paths
// (N_t = 16 runs the packed power-of-two transform, N_t = 20 packed
// Bluestein), and fusing must be strictly faster in every case.
TEST_F(MatvecFixture, UnfusedCastsGiveSameNumbersSlower) {
  for (const index_t n_t : {16, 20}) {
    auto p = make_problem(32, 4, n_t, 55);
    const auto local = LocalDims::single_rank(p.dims);
    BlockToeplitzOperator op(dev_, stream_, local, p.first_col);
    op.spectrum_f(stream_);  // warm the lazy casts outside both plans' timings
    for (const bool adjoint : {false, true}) {
      op.checksum_d(stream_, adjoint);
      op.checksum_f(stream_, adjoint);
    }

    MatvecOptions fused_opt;
    MatvecOptions unfused_opt;
    unfused_opt.fuse_casts = false;

    device::Stream s1(dev_), s2(dev_);
    FftMatvecPlan fused(dev_, s1, local, fused_opt);
    FftMatvecPlan unfused(dev_, s2, local, unfused_opt);

    for (const index_t b : {1, 3}) {
      for (const auto direction : {ApplyDirection::kForward, ApplyDirection::kAdjoint}) {
        const bool forward = direction == ApplyDirection::kForward;
        const index_t in_len = p.dims.n_t * (forward ? p.dims.n_m : p.dims.n_d);
        const index_t out_len = p.dims.n_t * (forward ? p.dims.n_d : p.dims.n_m);
        std::vector<std::vector<double>> ins;
        std::vector<ConstVectorView> in_views;
        for (index_t r = 0; r < b; ++r) {
          ins.push_back(make_input_vector(in_len, 560 + static_cast<std::uint64_t>(r)));
        }
        for (const auto& in : ins) in_views.emplace_back(in);
        // b == 1 unverified goes through the single-RHS spellings.
        const auto run = [&](FftMatvecPlan& plan, const PrecisionConfig& cfg,
                             VerifyMode verify, std::vector<std::vector<double>>& outs) {
          outs.assign(static_cast<std::size_t>(b),
                      std::vector<double>(static_cast<std::size_t>(out_len)));
          if (b == 1 && verify == VerifyMode::kOff) {
            if (forward) {
              plan.forward(op, ins[0], outs[0], cfg);
            } else {
              plan.adjoint(op, ins[0], outs[0], cfg);
            }
            return;
          }
          std::vector<VectorView> out_views;
          for (auto& out : outs) out_views.emplace_back(out);
          plan.apply_batch(op, direction, cfg, in_views, out_views, verify);
        };
        for (const auto verify :
             {VerifyMode::kOff, VerifyMode::kChecksum, VerifyMode::kParanoid}) {
          for (const auto& cfg : PrecisionConfig::all_configs()) {
            const std::string what = cfg.to_string() + (forward ? " F" : " F*") +
                                     " b=" + std::to_string(b) +
                                     " N_t=" + std::to_string(n_t) + " " +
                                     verify_mode_name(verify);
            std::vector<std::vector<double>> a, c;
            run(fused, cfg, verify, a);
            run(unfused, cfg, verify, c);
            EXPECT_EQ(a, c) << what;
            // The unpad rounds through p5, so a single-precision phase 5
            // leaves float-representable outputs: narrowing them is exact
            // (DistributedMatvecPlan reduces grid partials in float on
            // this).
            if (cfg.phase(precision::kPhaseUnpad) == precision::Precision::kSingle) {
              for (const auto& out : a) {
                for (const double y : out) {
                  ASSERT_EQ(y, static_cast<double>(static_cast<float>(y))) << what;
                }
              }
            }
            EXPECT_LT(fused.last_timings().compute_total(),
                      unfused.last_timings().compute_total())
                << what;
          }
        }
      }
    }
  }
}

// Three launches per serial apply_batch — the fused forward FFT, the
// GEMV and the fused inverse FFT — whatever its RHS count, and
// verification adds none (the checksum compare rides the fused inverse
// FFT, and the Parseval checks ride both FFTs).  The unfused ablation
// keeps the pad, the reorders and the unpad: 7.  Launches are counted
// by a zero-rate FaultPlan, which sees every launch and injects
// nothing.
TEST_F(MatvecFixture, SerialBatchLaunchesDoNotGrowWithB) {
  auto p = make_problem(32, 4, 16, 57);
  const auto local = LocalDims::single_rank(p.dims);
  BlockToeplitzOperator op(dev_, stream_, local, p.first_col);
  FftMatvecPlan plan(dev_, stream_, local);
  MatvecOptions unfused_opt;
  unfused_opt.fuse_casts = false;
  FftMatvecPlan unfused(dev_, stream_, local, unfused_opt);
  auto faults = std::make_shared<device::FaultPlan>();
  dev_.set_fault_plan(faults);
  const auto launches = [&](ApplyDirection direction, const PrecisionConfig& cfg,
                            VerifyMode verify, index_t b,
                            FftMatvecPlan* which = nullptr) {
    const bool forward = direction == ApplyDirection::kForward;
    const index_t in_len = p.dims.n_t * (forward ? p.dims.n_m : p.dims.n_d);
    const index_t out_len = p.dims.n_t * (forward ? p.dims.n_d : p.dims.n_m);
    std::vector<std::vector<double>> ins, outs;
    std::vector<ConstVectorView> in_views;
    std::vector<VectorView> out_views;
    for (index_t r = 0; r < b; ++r) {
      ins.push_back(make_input_vector(in_len, 570 + static_cast<std::uint64_t>(r)));
      outs.emplace_back(static_cast<std::size_t>(out_len));
    }
    for (index_t r = 0; r < b; ++r) {
      in_views.emplace_back(ins[static_cast<std::size_t>(r)]);
      out_views.emplace_back(outs[static_cast<std::size_t>(r)]);
    }
    const auto before = faults->stats().kernel_launches;
    (which != nullptr ? *which : plan)
        .apply_batch(op, direction, cfg, in_views, out_views, verify);
    return faults->stats().kernel_launches - before;
  };
  for (const auto direction : {ApplyDirection::kForward, ApplyDirection::kAdjoint}) {
    const char* dir = direction == ApplyDirection::kForward ? " F" : " F*";
    for (const char* cfg_str : {"ddddd", "dssdd", "sdsds"}) {
      const auto cfg = PrecisionConfig::parse(cfg_str);
      // Warm the operator's lazy single-precision spectrum and checksum
      // rows, which launch once on first use.
      launches(direction, cfg, VerifyMode::kChecksum, 1);
      for (const auto verify :
           {VerifyMode::kOff, VerifyMode::kChecksum, VerifyMode::kParanoid}) {
        for (const index_t b : {1, 5, 16}) {
          EXPECT_EQ(launches(direction, cfg, verify, b), 3u)
              << cfg_str << dir << " " << verify_mode_name(verify) << " b=" << b;
        }
      }
    }
    const auto ddddd = PrecisionConfig::parse("ddddd");
    for (const index_t b : {1, 5}) {
      EXPECT_EQ(launches(direction, ddddd, VerifyMode::kOff, b, &unfused), 7u)
          << "unfused ddddd" << dir << " b=" << b;
    }
  }
  EXPECT_EQ(faults->stats().kernel_faults, 0u);
}

// The host pool only schedules gridblocks: each block computes its
// outputs from the same inputs in the same order whichever worker runs
// it, so no output may depend on how the blocks are chunked.  One
// apply_batch per config, F and F*, b = 3, on pools of 1, 2, 3 and 8
// workers (N_t = 20, so both fused FFTs run the Bluestein path).
TEST(PoolWidth, ApplyBatchOutputsDoNotDependOnWorkerCount) {
  auto p = make_problem(24, 5, 20, 91);
  const auto local = LocalDims::single_rank(p.dims);
  const index_t b = 3;
  // The 1-worker pool's outputs, keyed by config and direction.
  std::map<std::string, std::vector<std::vector<double>>> reference;
  for (const unsigned width : {1u, 2u, 3u, 8u}) {
    util::ThreadPool pool(width);
    device::Device dev(device::make_mi300x(), &pool);
    device::Stream stream(dev);
    BlockToeplitzOperator op(dev, stream, local, p.first_col);
    FftMatvecPlan plan(dev, stream, local);
    for (const auto& cfg : PrecisionConfig::all_configs()) {
      for (const auto direction : {ApplyDirection::kForward, ApplyDirection::kAdjoint}) {
        const bool forward = direction == ApplyDirection::kForward;
        const index_t in_len = p.dims.n_t * (forward ? p.dims.n_m : p.dims.n_d);
        const index_t out_len = p.dims.n_t * (forward ? p.dims.n_d : p.dims.n_m);
        std::vector<std::vector<double>> ins, outs;
        std::vector<ConstVectorView> in_views;
        std::vector<VectorView> out_views;
        for (index_t r = 0; r < b; ++r) {
          ins.push_back(make_input_vector(in_len, 910 + static_cast<std::uint64_t>(r)));
          outs.emplace_back(static_cast<std::size_t>(out_len));
        }
        for (index_t r = 0; r < b; ++r) {
          in_views.emplace_back(ins[static_cast<std::size_t>(r)]);
          out_views.emplace_back(outs[static_cast<std::size_t>(r)]);
        }
        plan.apply_batch(op, direction, cfg, in_views, out_views);
        const std::string key = cfg.to_string() + (forward ? " F" : " F*");
        if (width == 1) {
          reference[key] = outs;
        } else {
          EXPECT_EQ(outs, reference[key]) << key << " on " << width << " workers";
        }
      }
    }
  }
}

// --------------------------------------------------------- timings
//
// Reduced-size problems are launch-overhead-bound on the real specs
// (microsecond kernels vs the paper's millisecond kernels), so the
// timing-*ratio* tests use an overhead-free MI300X variant: they
// assert the phase byte-ratio structure, which is scale-invariant.
device::DeviceSpec mi300x_no_overhead() {
  auto spec = device::make_mi300x();
  spec.launch_overhead_s = 0.0;
  spec.block_residency_floor_s = 0.0;
  return spec;
}

TEST(MatvecTimings, PopulatedAndSbgemvDominates) {
  // With the paper's aspect ratio (n_d << n_m) the SBGEMV phase
  // dominates the runtime (~92% in Figure 2).
  device::Device dev(mi300x_no_overhead());
  device::Stream stream(dev);
  auto p = make_problem(256, 16, 64, 77);
  const auto local = LocalDims::single_rank(p.dims);
  BlockToeplitzOperator op(dev, stream, local, p.first_col);
  FftMatvecPlan plan(dev, stream, local);
  std::vector<double> d(static_cast<std::size_t>(64 * 16));
  plan.forward(op, p.m, d, PrecisionConfig{});
  const auto& t = plan.last_timings();
  EXPECT_EQ(t.pad, 0.0);  // the fused forward FFT reads the inputs
  EXPECT_GT(t.fft, 0.0);
  EXPECT_GT(t.sbgemv, 0.0);
  EXPECT_GT(t.ifft, 0.0);
  EXPECT_EQ(t.unpad, 0.0);  // the fused inverse FFT writes the outputs
  EXPECT_EQ(t.comm, 0.0);  // single rank
  EXPECT_GT(t.sbgemv / t.compute_total(), 0.6);
}

TEST(MatvecTimings, MixedPrecisionIsFasterThanDouble) {
  device::Device dev(mi300x_no_overhead());
  device::Stream stream(dev);
  auto p = make_problem(256, 16, 64, 88);
  const auto local = LocalDims::single_rank(p.dims);
  BlockToeplitzOperator op(dev, stream, local, p.first_col);
  FftMatvecPlan plan(dev, stream, local);
  std::vector<double> d(static_cast<std::size_t>(64 * 16));

  plan.forward(op, p.m, d, PrecisionConfig{});
  const double t_double = plan.last_timings().compute_total();
  // Warm the single-precision operator copy, then measure.
  plan.forward(op, p.m, d, PrecisionConfig::parse("dssdd"));
  plan.forward(op, p.m, d, PrecisionConfig::parse("dssdd"));
  const double t_mixed = plan.last_timings().compute_total();
  EXPECT_LT(t_mixed, t_double);
  EXPECT_GT(t_double / t_mixed, 1.3);
}

// --------------------------------------------------------- phantom
TEST(PhantomMatvec, PaperScaleDryRunMatchesReducedScaleStructure) {
  // A paper-scale (N_m=5000, N_d=100, N_t=1000) dry run must work on
  // this machine without allocating, and show the Figure-2 structure.
  util::ThreadPool& pool = util::ThreadPool::global();
  device::Device dev(device::make_mi300x(), &pool, /*phantom=*/true);
  device::Stream stream(dev);
  const ProblemDims dims{5000, 100, 1000};
  const auto local = LocalDims::single_rank(dims);
  BlockToeplitzOperator op(dev, stream, local, {});
  FftMatvecPlan plan(dev, stream, local);
  std::vector<double> empty;
  plan.forward(op, {}, empty, PrecisionConfig{});
  const auto& t = plan.last_timings();
  EXPECT_GT(t.sbgemv / t.compute_total(), 0.85);  // ~92% in the paper
  // Total in the single-digit-millisecond range on MI300X (Fig. 2).
  EXPECT_GT(t.compute_total(), 5e-4);
  EXPECT_LT(t.compute_total(), 2e-2);
}

// ------------------------------------------------------ validation
TEST_F(MatvecFixture, WrongExtentsThrow) {
  auto p = make_problem(16, 2, 8, 4);
  const auto local = LocalDims::single_rank(p.dims);
  BlockToeplitzOperator op(dev_, stream_, local, p.first_col);
  FftMatvecPlan plan(dev_, stream_, local);
  std::vector<double> short_in(3), out(static_cast<std::size_t>(8 * 2));
  EXPECT_THROW(plan.forward(op, short_in, out, PrecisionConfig{}),
               std::invalid_argument);
  std::vector<double> short_out(3);
  EXPECT_THROW(plan.forward(op, p.m, short_out, PrecisionConfig{}),
               std::invalid_argument);
}

TEST_F(MatvecFixture, OperatorRejectsWrongColumnExtent) {
  const ProblemDims dims{16, 2, 8};
  const auto local = LocalDims::single_rank(dims);
  std::vector<double> wrong(10);
  EXPECT_THROW(BlockToeplitzOperator(dev_, stream_, local, wrong),
               std::invalid_argument);
}

// --------------------------------------------------- batched applies
struct BatchCase {
  std::vector<std::vector<double>> inputs;
  std::vector<std::vector<double>> batched;
  std::vector<std::vector<double>> independent;
};

/// Run b RHS through one apply_batch and through b independent
/// forward()/adjoint() calls on an identically-constructed plan.
BatchCase run_batch_vs_independent(device::Device& dev, device::Stream& stream,
                                   const Problem& p, index_t b, bool adjoint,
                                   const PrecisionConfig& config) {
  const auto local = LocalDims::single_rank(p.dims);
  const index_t in_len = p.dims.n_t * (adjoint ? p.dims.n_d : p.dims.n_m);
  const index_t out_len = p.dims.n_t * (adjoint ? p.dims.n_m : p.dims.n_d);

  BatchCase c;
  for (index_t r = 0; r < b; ++r) {
    c.inputs.push_back(make_input_vector(in_len, 900 + static_cast<std::uint64_t>(r)));
  }
  c.batched.assign(static_cast<std::size_t>(b),
                   std::vector<double>(static_cast<std::size_t>(out_len)));
  c.independent = c.batched;

  BlockToeplitzOperator op(dev, stream, local, p.first_col);
  {
    FftMatvecPlan plan(dev, stream, local);
    std::vector<ConstVectorView> in_views(c.inputs.begin(), c.inputs.end());
    std::vector<VectorView> out_views(c.batched.begin(), c.batched.end());
    plan.apply_batch(op,
                     adjoint ? ApplyDirection::kAdjoint : ApplyDirection::kForward,
                     config, in_views, out_views);
  }
  {
    FftMatvecPlan plan(dev, stream, local);
    for (index_t r = 0; r < b; ++r) {
      auto& out = c.independent[static_cast<std::size_t>(r)];
      if (adjoint) {
        plan.adjoint(op, c.inputs[static_cast<std::size_t>(r)], out, config);
      } else {
        plan.forward(op, c.inputs[static_cast<std::size_t>(r)], out, config);
      }
    }
  }
  return c;
}

TEST_F(MatvecFixture, ApplyBatchBitIdenticalToIndependentAppliesDouble) {
  auto p = make_problem(40, 6, 24, 71);
  for (bool adjoint : {false, true}) {
    const auto c = run_batch_vs_independent(dev_, stream_, p, 4, adjoint,
                                            PrecisionConfig{});
    for (std::size_t r = 0; r < c.batched.size(); ++r) {
      EXPECT_EQ(c.batched[r], c.independent[r])
          << (adjoint ? "adjoint" : "forward") << " rhs " << r;
    }
  }
}

TEST_F(MatvecFixture, ApplyBatchMixedConfigsMatchDenseReference) {
  auto p = make_problem(32, 4, 20, 73);
  const auto local = LocalDims::single_rank(p.dims);
  for (const char* cfg_str : {"ddddd", "dssdd", "sssss"}) {
    const auto cfg = PrecisionConfig::parse(cfg_str);
    const auto c = run_batch_vs_independent(dev_, stream_, p, 3, false, cfg);
    for (std::size_t r = 0; r < c.batched.size(); ++r) {
      // Bit-identical to the single-RHS path in every config...
      EXPECT_EQ(c.batched[r], c.independent[r]) << cfg_str << " rhs " << r;
      // ...and within the config's tolerance of the dense reference.
      std::vector<double> dense(c.batched[r].size());
      dense_forward(local, p.first_col, c.inputs[r], dense);
      const double err = blas::relative_l2_error(
          static_cast<index_t>(dense.size()), c.batched[r].data(), dense.data());
      EXPECT_LT(err, cfg.all_double() ? 1e-12 : 1e-5) << cfg_str << " rhs " << r;
    }
  }
}

TEST_F(MatvecFixture, ApplyBatchSingleRhsDegeneratesToForward) {
  auto p = make_problem(24, 3, 16, 77);
  const auto c = run_batch_vs_independent(dev_, stream_, p, 1, false,
                                          PrecisionConfig::parse("dssdd"));
  EXPECT_EQ(c.batched[0], c.independent[0]);
}

/// One side of the single-RHS vs b=1 apply_batch comparison: its own
/// device, stream, operator and plan, so the two sides' stream clocks
/// and device-memory high-waters can be compared directly.
struct B1Rig {
  device::Device dev;
  device::Stream stream{dev};
  BlockToeplitzOperator op;
  FftMatvecPlan plan;
  B1Rig(bool phantom, const LocalDims& local, const std::vector<double>& col,
        const MatvecOptions& options)
      : dev(device::make_mi300x(), &util::ThreadPool::global(), phantom),
        op(dev, stream, local, col),
        plan(dev, stream, local, options) {}
};

TEST(SingleRhsEquivalence, ForwardAdjointEqualB1ApplyBatch) {
  // forward()/adjoint() and a b=1 apply_batch must agree on outputs,
  // the stream clock, every PhaseTimings field and memory_used(), for
  // all 32 configs x both directions x {fused casts, unfused casts},
  // on a backed shape and the paper-scale phantom.
  struct Shape {
    const char* name;
    ProblemDims dims;
    bool phantom;
  };
  const Shape shapes[] = {{"backed 40x6x24", {40, 6, 24}, false},
                          {"phantom 5000x100x1000", {5000, 100, 1000}, true}};
  MatvecOptions unfused;
  unfused.fuse_casts = false;
  const std::pair<const char*, MatvecOptions> variants[] = {
      {"fused", MatvecOptions{}}, {"unfused", unfused}};

  for (const auto& shape : shapes) {
    const auto local = LocalDims::single_rank(shape.dims);
    const auto col =
        shape.phantom ? std::vector<double>{} : make_first_block_col(local, 61);
    for (const auto& [variant, options] : variants) {
      B1Rig single(shape.phantom, local, col, options);
      B1Rig batch(shape.phantom, local, col, options);
      for (const auto& cfg : PrecisionConfig::all_configs()) {
        for (const bool adjoint : {false, true}) {
          const std::string what = std::string(shape.name) + " " + variant + " " +
                                   cfg.to_string() + (adjoint ? " F*" : " F");
          const index_t nt = shape.dims.n_t;
          const index_t in_len = nt * (adjoint ? shape.dims.n_d : shape.dims.n_m);
          const index_t out_len = nt * (adjoint ? shape.dims.n_m : shape.dims.n_d);
          const auto in = shape.phantom ? std::vector<double>{}
                                        : make_input_vector(in_len, 62);
          std::vector<double> out_single(
              static_cast<std::size_t>(shape.phantom ? 0 : out_len));
          auto out_batch = out_single;

          if (adjoint) {
            single.plan.adjoint(single.op, in, out_single, cfg);
          } else {
            single.plan.forward(single.op, in, out_single, cfg);
          }
          const ConstVectorView in_views[] = {in};
          const VectorView out_views[] = {out_batch};
          batch.plan.apply_batch(
              batch.op, adjoint ? ApplyDirection::kAdjoint : ApplyDirection::kForward,
              cfg, in_views, out_views);

          EXPECT_EQ(out_single, out_batch) << what;
          EXPECT_EQ(single.stream.now(), batch.stream.now()) << what;
          EXPECT_EQ(single.dev.memory_used(), batch.dev.memory_used()) << what;
          const PhaseTimings& ts = single.plan.last_timings();
          const PhaseTimings& tb = batch.plan.last_timings();
          EXPECT_EQ(ts.pad, tb.pad) << what;
          EXPECT_EQ(ts.fft, tb.fft) << what;
          EXPECT_EQ(ts.sbgemv, tb.sbgemv) << what;
          EXPECT_EQ(ts.ifft, tb.ifft) << what;
          EXPECT_EQ(ts.unpad, tb.unpad) << what;
          EXPECT_EQ(ts.comm, tb.comm) << what;
          EXPECT_EQ(ts.makespan, tb.makespan) << what;
        }
      }
      EXPECT_EQ(single.plan.executions(), batch.plan.executions()) << variant;
    }
  }
}

TEST_F(MatvecFixture, ApplyBatchOddRhsCountsWork) {
  // Non-power-of-two b (a ragged final serving batch lands here).
  auto p = make_problem(20, 3, 12, 79);
  for (index_t b : {3, 5}) {
    const auto c =
        run_batch_vs_independent(dev_, stream_, p, b, true, PrecisionConfig{});
    for (std::size_t r = 0; r < c.batched.size(); ++r) {
      EXPECT_EQ(c.batched[r], c.independent[r]) << "b=" << b << " rhs " << r;
    }
  }
}

TEST_F(MatvecFixture, ApplyBatchCountsOneExecutionAndBeatsIndependentSimTime) {
  auto p = make_problem(48, 6, 32, 81);
  const auto local = LocalDims::single_rank(p.dims);
  const index_t b = 8;
  BlockToeplitzOperator op(dev_, stream_, local, p.first_col);

  std::vector<std::vector<double>> inputs, outputs(
      static_cast<std::size_t>(b),
      std::vector<double>(static_cast<std::size_t>(p.dims.n_t * p.dims.n_d)));
  for (index_t r = 0; r < b; ++r) {
    inputs.push_back(make_input_vector(p.dims.n_t * p.dims.n_m,
                                       500 + static_cast<std::uint64_t>(r)));
  }
  std::vector<ConstVectorView> in_views(inputs.begin(), inputs.end());
  std::vector<VectorView> out_views(outputs.begin(), outputs.end());

  FftMatvecPlan plan(dev_, stream_, local);
  EXPECT_EQ(plan.executions(), 0);
  const double sim0 = stream_.now();
  plan.apply_batch(op, ApplyDirection::kForward, PrecisionConfig{}, in_views,
                   out_views);
  const double batched_sim = stream_.now() - sim0;
  // One pipeline execution for the whole batch, with populated
  // per-phase timings.
  EXPECT_EQ(plan.executions(), 1);
  EXPECT_NEAR(plan.last_timings().compute_total(), batched_sim, 1e-12);
  EXPECT_GT(plan.last_timings().sbgemv, 0.0);

  // The fused pipeline must beat b sequential applies on simulated
  // time — the whole point of batching (launch amortisation + matrix
  // traffic paid once per frequency block).
  double independent_sim = 0.0;
  std::vector<double> out(outputs[0].size());
  for (index_t r = 0; r < b; ++r) {
    plan.forward(op, inputs[static_cast<std::size_t>(r)], out, PrecisionConfig{});
    independent_sim += plan.last_timings().compute_total();
  }
  EXPECT_EQ(plan.executions(), 1 + b);
  EXPECT_LT(batched_sim, independent_sim);
}

// ------------------------------------------- grouped batched applies
/// Run the given per-group RHS counts through ONE grouped apply_batch
/// (distinct operators, seeds 600+g) and through per-operator
/// apply_batch calls on an identically-constructed plan; both output
/// sets are returned for bit-compare.
struct GroupedCase {
  std::vector<std::vector<double>> inputs;
  std::vector<std::vector<double>> grouped;
  std::vector<std::vector<double>> per_tenant;
};

GroupedCase run_grouped_vs_per_tenant(device::Device& dev, device::Stream& stream,
                                      const ProblemDims& dims,
                                      const std::vector<index_t>& rhs_counts,
                                      bool adjoint,
                                      const PrecisionConfig& config) {
  const auto local = LocalDims::single_rank(dims);
  const index_t in_len = dims.n_t * (adjoint ? dims.n_d : dims.n_m);
  const index_t out_len = dims.n_t * (adjoint ? dims.n_m : dims.n_d);
  const auto direction =
      adjoint ? ApplyDirection::kAdjoint : ApplyDirection::kForward;

  std::vector<std::unique_ptr<BlockToeplitzOperator>> ops;
  std::vector<FftMatvecPlan::OperatorGroup> groups;
  GroupedCase c;
  index_t b = 0;
  for (std::size_t g = 0; g < rhs_counts.size(); ++g) {
    const auto col =
        make_first_block_col(local, 600 + static_cast<std::uint64_t>(g));
    ops.push_back(std::make_unique<BlockToeplitzOperator>(dev, stream, local, col));
    groups.push_back({ops.back().get(), rhs_counts[g]});
    for (index_t r = 0; r < rhs_counts[g]; ++r) {
      c.inputs.push_back(
          make_input_vector(in_len, 700 + static_cast<std::uint64_t>(b + r)));
    }
    b += rhs_counts[g];
  }
  c.grouped.assign(static_cast<std::size_t>(b),
                   std::vector<double>(static_cast<std::size_t>(out_len)));
  c.per_tenant = c.grouped;

  std::vector<ConstVectorView> in_views(c.inputs.begin(), c.inputs.end());
  {
    FftMatvecPlan plan(dev, stream, local);
    std::vector<VectorView> out_views(c.grouped.begin(), c.grouped.end());
    plan.apply_batch(groups, direction, config, in_views, out_views);
  }
  {
    FftMatvecPlan plan(dev, stream, local);
    std::vector<VectorView> out_views(c.per_tenant.begin(), c.per_tenant.end());
    std::size_t r0 = 0;
    for (const auto& g : groups) {
      const auto n = static_cast<std::size_t>(g.rhs_count);
      plan.apply_batch(*g.op, direction, config, {in_views.data() + r0, n},
                       {out_views.data() + r0, n});
      r0 += n;
    }
  }
  return c;
}

TEST_F(MatvecFixture, GroupedApplyBatchBitIdenticalToPerTenantApplies) {
  // Ragged groups (3 + 2 + 1), forward and adjoint, every precision
  // mix: the grouped dispatch must agree bit for bit with per-tenant
  // apply_batch calls (which are themselves bit-identical to
  // independent applies — the tested PR 3 contract).
  const auto dims = ProblemDims{32, 4, 20};
  for (const char* cfg_str : {"ddddd", "dssdd", "sssss"}) {
    const auto cfg = PrecisionConfig::parse(cfg_str);
    for (bool adjoint : {false, true}) {
      const auto c = run_grouped_vs_per_tenant(dev_, stream_, dims, {3, 2, 1},
                                               adjoint, cfg);
      for (std::size_t r = 0; r < c.grouped.size(); ++r) {
        EXPECT_EQ(c.grouped[r], c.per_tenant[r])
            << cfg_str << (adjoint ? " adjoint" : " forward") << " rhs " << r;
      }
    }
  }
}

TEST_F(MatvecFixture, GroupedApplyBatchSingleGroupDegeneratesToApplyBatch) {
  const auto c = run_grouped_vs_per_tenant(dev_, stream_, ProblemDims{24, 3, 16},
                                           {4}, false, PrecisionConfig{});
  for (std::size_t r = 0; r < c.grouped.size(); ++r) {
    EXPECT_EQ(c.grouped[r], c.per_tenant[r]) << "rhs " << r;
  }
}

TEST_F(MatvecFixture, GroupedApplyBatchMatchesDenseReferencePerOperator) {
  // Each RHS must be applied through ITS OWN group's operator — a
  // pointer mix-up would still pass grouped-vs-grouped comparisons,
  // but not the per-operator dense reference.
  const auto dims = ProblemDims{28, 4, 16};
  const auto local = LocalDims::single_rank(dims);
  device::Stream stream(dev_);
  std::vector<std::vector<double>> cols;
  std::vector<std::unique_ptr<BlockToeplitzOperator>> ops;
  std::vector<FftMatvecPlan::OperatorGroup> groups;
  for (std::size_t g = 0; g < 2; ++g) {
    cols.push_back(make_first_block_col(local, 810 + static_cast<std::uint64_t>(g)));
    ops.push_back(std::make_unique<BlockToeplitzOperator>(dev_, stream, local,
                                                          cols.back()));
    groups.push_back({ops.back().get(), 2});
  }
  std::vector<std::vector<double>> inputs, outputs(
      4, std::vector<double>(static_cast<std::size_t>(dims.n_t * dims.n_d)));
  for (std::uint64_t r = 0; r < 4; ++r) {
    inputs.push_back(make_input_vector(dims.n_t * dims.n_m, 820 + r));
  }
  std::vector<ConstVectorView> in_views(inputs.begin(), inputs.end());
  std::vector<VectorView> out_views(outputs.begin(), outputs.end());
  FftMatvecPlan plan(dev_, stream, local);
  plan.apply_batch(groups, ApplyDirection::kForward, PrecisionConfig{}, in_views,
                   out_views);
  for (std::size_t r = 0; r < 4; ++r) {
    std::vector<double> dense(outputs[r].size());
    dense_forward(local, cols[r / 2], inputs[r], dense);
    EXPECT_LT(blas::relative_l2_error(static_cast<index_t>(dense.size()),
                                      outputs[r].data(), dense.data()),
              1e-12)
        << "rhs " << r;
  }
}

TEST_F(MatvecFixture, GroupedApplyBatchCountsOneExecutionAndAttributesTimings) {
  const auto dims = ProblemDims{32, 4, 20};
  const auto local = LocalDims::single_rank(dims);
  device::Stream stream(dev_);
  const auto col_a = make_first_block_col(local, 830);
  const auto col_b = make_first_block_col(local, 831);
  BlockToeplitzOperator op_a(dev_, stream, local, col_a);
  BlockToeplitzOperator op_b(dev_, stream, local, col_b);
  // A singleton group next to a 5-wide group.
  const FftMatvecPlan::OperatorGroup groups[] = {{&op_a, 1}, {&op_b, 5}};

  std::vector<std::vector<double>> inputs, outputs(
      6, std::vector<double>(static_cast<std::size_t>(dims.n_t * dims.n_d)));
  for (std::uint64_t r = 0; r < 6; ++r) {
    inputs.push_back(make_input_vector(dims.n_t * dims.n_m, 840 + r));
  }
  std::vector<ConstVectorView> in_views(inputs.begin(), inputs.end());
  std::vector<VectorView> out_views(outputs.begin(), outputs.end());
  FftMatvecPlan plan(dev_, stream, local);
  const double sim0 = stream.now();
  plan.apply_batch(groups, ApplyDirection::kForward, PrecisionConfig{}, in_views,
                   out_views);
  const double sim = stream.now() - sim0;
  EXPECT_EQ(plan.executions(), 1);

  // The per-RHS attribution covers the whole batch exactly...
  const auto& shares = plan.last_batch_timings();
  ASSERT_EQ(shares.size(), 6u);
  PhaseTimings sum;
  for (const auto& s : shares) sum += s;
  EXPECT_NEAR(sum.compute_total(), plan.last_timings().compute_total(), 1e-12);
  EXPECT_NEAR(sum.sbgemv, plan.last_timings().sbgemv, 1e-12);
  EXPECT_NEAR(sum.makespan, plan.last_timings().makespan, 1e-12);
  EXPECT_NEAR(plan.last_timings().compute_total(), sim, 1e-12);
  // ...splits the tenant-agnostic phases evenly...
  EXPECT_DOUBLE_EQ(shares[0].fft, shares[5].fft);
  EXPECT_DOUBLE_EQ(shares[0].unpad, shares[5].unpad);
  // ...and charges the singleton more SBGEMV than a 5-wide member
  // (its matrix read amortises over one request, not five).
  EXPECT_GT(shares[0].sbgemv, shares[1].sbgemv);
}

// A short-and-wide forward GEMV (6 x 96) runs the split-column kernel
// with K = 3 tiles.  It keeps every bit-identity contract of the
// executor: batched equals independent applies and the fused pipeline
// equals the fuse_casts = false ablation in all 32 configs, and
// grouped equals per-tenant applies.
TEST_F(MatvecFixture, SplitColumnForwardKeepsEveryBitIdentity) {
  auto p = make_problem(96, 6, 16, 111);
  ASSERT_EQ(blas::auto_policy(blas::Op::N, p.dims.n_d, p.dims.n_m),
            blas::GemvKernelPolicy::kOptimized);
  ASSERT_EQ(blas::gemv_split_tiles(blas::GemvKernelKind::kSplitN, p.dims.n_m), 3);
  const auto local = LocalDims::single_rank(p.dims);
  BlockToeplitzOperator op(dev_, stream_, local, p.first_col);
  MatvecOptions unfused_opt;
  unfused_opt.fuse_casts = false;
  FftMatvecPlan unfused(dev_, stream_, local, unfused_opt);
  for (const auto& cfg : PrecisionConfig::all_configs()) {
    const auto c = run_batch_vs_independent(dev_, stream_, p, 3, false, cfg);
    std::vector<std::vector<double>> ablation(
        c.batched.size(), std::vector<double>(c.batched[0].size()));
    std::vector<ConstVectorView> in_views(c.inputs.begin(), c.inputs.end());
    std::vector<VectorView> out_views(ablation.begin(), ablation.end());
    unfused.apply_batch(op, ApplyDirection::kForward, cfg, in_views, out_views);
    for (std::size_t r = 0; r < c.batched.size(); ++r) {
      EXPECT_EQ(c.batched[r], c.independent[r]) << cfg.to_string() << " rhs " << r;
      EXPECT_EQ(c.batched[r], ablation[r]) << cfg.to_string() << " rhs " << r;
    }
  }
  for (const char* cfg_str : {"ddddd", "dssdd", "sssss"}) {
    const auto c = run_grouped_vs_per_tenant(dev_, stream_, p.dims, {2, 1}, false,
                                             PrecisionConfig::parse(cfg_str));
    for (std::size_t r = 0; r < c.grouped.size(); ++r) {
      EXPECT_EQ(c.grouped[r], c.per_tenant[r]) << cfg_str << " rhs " << r;
    }
  }
}

// The per-RHS GEMV shares come from the footprint the launch is
// charged with, split partial sums included: a singleton group next to
// a 5-wide group splits the launch in the ratio of the two groups'
// gemv_grouped_footprint bytes, the shares sum to the totals, and one
// group splits evenly.
TEST_F(MatvecFixture, SplitColumnGemvSharesFollowTheChargedFootprint) {
  const auto dims = ProblemDims{96, 6, 20};
  const auto local = LocalDims::single_rank(dims);
  device::Stream stream(dev_);
  BlockToeplitzOperator op_a(dev_, stream, local, make_first_block_col(local, 860));
  BlockToeplitzOperator op_b(dev_, stream, local, make_first_block_col(local, 861));
  std::vector<std::vector<double>> inputs, outputs(
      6, std::vector<double>(static_cast<std::size_t>(dims.n_t * dims.n_d)));
  for (std::uint64_t r = 0; r < 6; ++r) {
    inputs.push_back(make_input_vector(dims.n_t * dims.n_m, 870 + r));
  }
  std::vector<ConstVectorView> in_views(inputs.begin(), inputs.end());
  std::vector<VectorView> out_views(outputs.begin(), outputs.end());
  FftMatvecPlan plan(dev_, stream, local);

  const FftMatvecPlan::OperatorGroup groups[] = {{&op_a, 1}, {&op_b, 5}};
  plan.apply_batch(groups, ApplyDirection::kForward, PrecisionConfig{}, in_views,
                   out_views);
  const auto& shares = plan.last_batch_timings();
  ASSERT_EQ(shares.size(), 6u);
  PhaseTimings sum;
  for (const auto& s : shares) sum += s;
  EXPECT_NEAR(sum.sbgemv, plan.last_timings().sbgemv, 1e-15);
  EXPECT_NEAR(sum.compute_total(), plan.last_timings().compute_total(), 1e-15);
  const auto bytes = [&](index_t nrhs) {
    return blas::gemv_grouped_footprint<cdouble>(blas::GemvKernelKind::kSplitN, dims.n_d,
                                                 dims.n_m, dims.num_frequencies(), 1, nrhs)
        .total_bytes();
  };
  EXPECT_NEAR(shares[0].sbgemv / shares[1].sbgemv, bytes(1) / (bytes(5) / 5.0), 1e-12);

  plan.apply_batch(op_a, ApplyDirection::kForward, PrecisionConfig{},
                   std::span(in_views).first(4), std::span(out_views).first(4));
  const auto& even = plan.last_batch_timings();
  ASSERT_EQ(even.size(), 4u);
  for (const auto& s : even) EXPECT_EQ(s.sbgemv, even[0].sbgemv);
  EXPECT_NEAR(4.0 * even[0].sbgemv, plan.last_timings().sbgemv, 1e-15);
}

TEST_F(MatvecFixture, SerialAppliesRecordMakespanEqualToTotal) {
  auto p = make_problem(24, 3, 16, 101);
  const auto local = LocalDims::single_rank(p.dims);
  BlockToeplitzOperator op(dev_, stream_, local, p.first_col);
  FftMatvecPlan plan(dev_, stream_, local);
  std::vector<double> d(static_cast<std::size_t>(p.dims.n_t * p.dims.n_d));
  plan.forward(op, p.m, d, PrecisionConfig{});
  EXPECT_NEAR(plan.last_timings().makespan, plan.last_timings().total(), 1e-15);
  EXPECT_DOUBLE_EQ(plan.last_timings().span(), plan.last_timings().makespan);
}

TEST_F(MatvecFixture, GroupedApplyBatchValidates) {
  const auto dims = ProblemDims{16, 2, 8};
  const auto local = LocalDims::single_rank(dims);
  const auto col = make_first_block_col(local, 850);
  BlockToeplitzOperator op(dev_, stream_, local, col);
  BlockToeplitzOperator other_op(
      dev_, stream_, LocalDims::single_rank(ProblemDims{12, 2, 8}),
      make_first_block_col(LocalDims::single_rank(ProblemDims{12, 2, 8}), 851));
  FftMatvecPlan plan(dev_, stream_, local);

  std::vector<double> in(static_cast<std::size_t>(8 * 16));
  std::vector<double> out(static_cast<std::size_t>(8 * 2));
  const ConstVectorView in_views[] = {in};
  VectorView out_views[] = {out};

  // No groups at all.
  EXPECT_THROW(plan.apply_batch(std::span<const FftMatvecPlan::OperatorGroup>{},
                                ApplyDirection::kForward, PrecisionConfig{},
                                in_views, out_views),
               std::invalid_argument);
  // Group RHS counts must sum to the input count.
  const FftMatvecPlan::OperatorGroup wrong_sum[] = {{&op, 2}};
  EXPECT_THROW(plan.apply_batch(wrong_sum, ApplyDirection::kForward,
                                PrecisionConfig{}, in_views, out_views),
               std::invalid_argument);
  // Null operator and non-positive counts are rejected.
  const FftMatvecPlan::OperatorGroup null_op[] = {{nullptr, 1}};
  EXPECT_THROW(plan.apply_batch(null_op, ApplyDirection::kForward,
                                PrecisionConfig{}, in_views, out_views),
               std::invalid_argument);
  const FftMatvecPlan::OperatorGroup zero_rhs[] = {{&op, 0}, {&op, 1}};
  EXPECT_THROW(plan.apply_batch(zero_rhs, ApplyDirection::kForward,
                                PrecisionConfig{}, in_views, out_views),
               std::invalid_argument);
  // Every group's operator must match the plan's shape.
  const FftMatvecPlan::OperatorGroup wrong_dims[] = {{&other_op, 1}};
  EXPECT_THROW(plan.apply_batch(wrong_dims, ApplyDirection::kForward,
                                PrecisionConfig{}, in_views, out_views),
               std::invalid_argument);
}

TEST_F(MatvecFixture, ApplyBatchValidatesSpans) {
  auto p = make_problem(16, 2, 8, 83);
  const auto local = LocalDims::single_rank(p.dims);
  BlockToeplitzOperator op(dev_, stream_, local, p.first_col);
  FftMatvecPlan plan(dev_, stream_, local);

  std::vector<double> good_in(static_cast<std::size_t>(8 * 16));
  std::vector<double> good_out(static_cast<std::size_t>(8 * 2));
  std::vector<double> bad(3);

  const ConstVectorView in_views[] = {good_in};
  VectorView out_views[] = {good_out};
  EXPECT_THROW(plan.apply_batch(op, ApplyDirection::kForward, PrecisionConfig{},
                                {}, {}),
               std::invalid_argument);
  EXPECT_THROW(plan.apply_batch(op, ApplyDirection::kForward, PrecisionConfig{},
                                in_views, {}),
               std::invalid_argument);
  const ConstVectorView bad_in[] = {bad};
  EXPECT_THROW(plan.apply_batch(op, ApplyDirection::kForward, PrecisionConfig{},
                                bad_in, out_views),
               std::invalid_argument);
  VectorView bad_out[] = {bad};
  EXPECT_THROW(plan.apply_batch(op, ApplyDirection::kForward, PrecisionConfig{},
                                in_views, bad_out),
               std::invalid_argument);
}

}  // namespace
}  // namespace fftmv::core
