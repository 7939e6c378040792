// Inverse-problem layer tests: Thomas solver, the LTI PDE substrate
// and its Toeplitz structure, Bayesian MAP estimation through the
// FFTMatvec Hessian, and greedy optimal sensor placement.
#include <gtest/gtest.h>

#include <cmath>

#include "blas/vector_ops.hpp"
#include "core/block_toeplitz.hpp"
#include "core/dense_reference.hpp"
#include "core/matvec_plan.hpp"
#include "device/device_spec.hpp"
#include "device/fault_plan.hpp"
#include "inverse/bayes.hpp"
#include "inverse/dense.hpp"
#include "inverse/lti_system.hpp"
#include "inverse/oed.hpp"
#include "inverse/tridiagonal.hpp"
#include "util/rng.hpp"

namespace fftmv::inverse {
namespace {

using precision::PrecisionConfig;

// ----------------------------------------------------------- Thomas
TEST(Tridiagonal, SolveInvertsMultiply) {
  util::Rng rng(5);
  const index_t n = 50;
  std::vector<double> lower(n - 1), diag(n), upper(n - 1);
  for (auto& v : lower) v = rng.uniform(-0.4, 0.4);
  for (auto& v : upper) v = rng.uniform(-0.4, 0.4);
  for (auto& v : diag) v = rng.uniform(2.0, 3.0);  // diagonally dominant
  TridiagonalSolver solver(lower, diag, upper);

  std::vector<double> x(static_cast<std::size_t>(n)), b(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.uniform(-1, 1);
  solver.multiply(x.data(), b.data());
  solver.solve(b.data());
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(b[static_cast<std::size_t>(i)], x[static_cast<std::size_t>(i)], 1e-11);
  }
}

TEST(Tridiagonal, TransposeSolver) {
  util::Rng rng(7);
  const index_t n = 20;
  std::vector<double> lower(n - 1), diag(n), upper(n - 1);
  for (auto& v : lower) v = rng.uniform(-0.3, 0.3);
  for (auto& v : upper) v = rng.uniform(-0.3, 0.3);
  for (auto& v : diag) v = rng.uniform(2.0, 3.0);
  TridiagonalSolver a(lower, diag, upper);
  TridiagonalSolver at = TridiagonalSolver::transpose_of(a);

  // <A x, y> == <x, A^T y>.
  std::vector<double> x(static_cast<std::size_t>(n)), y(static_cast<std::size_t>(n));
  std::vector<double> ax(static_cast<std::size_t>(n)), aty(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.uniform(-1, 1);
  for (auto& v : y) v = rng.uniform(-1, 1);
  a.multiply(x.data(), ax.data());
  at.multiply(y.data(), aty.data());
  EXPECT_NEAR(blas::dot<double>(n, ax.data(), y.data()),
              blas::dot<double>(n, x.data(), aty.data()), 1e-12);
}

TEST(Tridiagonal, RejectsBadExtentsAndSingularity) {
  EXPECT_THROW(TridiagonalSolver({1.0}, {1.0, 1.0, 1.0}, {1.0}),
               std::invalid_argument);
  EXPECT_THROW(TridiagonalSolver({}, {0.0}, {}), std::invalid_argument);
}

// ------------------------------------------------------------- LTI
LtiConfig small_config() {
  LtiConfig c = LtiConfig::with_uniform_sensors(24, 12, 3);
  return c;
}

TEST(Lti, UniformSensorsAreInterior) {
  const auto c = LtiConfig::with_uniform_sensors(100, 10, 4);
  EXPECT_EQ(c.n_d(), 4);
  for (index_t s : c.sensors) {
    EXPECT_GT(s, 0);
    EXPECT_LT(s, 100);
  }
}

TEST(Lti, Validation) {
  LtiConfig c = small_config();
  c.sensors = {99};  // out of range for n_x = 24
  EXPECT_THROW(AdvectionDiffusion1D{c}, std::invalid_argument);
  c = small_config();
  c.sensors.clear();
  EXPECT_THROW(AdvectionDiffusion1D{c}, std::invalid_argument);
}

TEST(Lti, FirstBlockColumnReproducesTimeStepping) {
  // The p2o map applied via the dense Toeplitz expansion of the
  // impulse-response column must equal direct time stepping — this
  // validates both the Toeplitz structure (time invariance) and the
  // adjoint-sweep construction (§2.4).
  const auto cfg = small_config();
  AdvectionDiffusion1D sys(cfg);
  const auto col = sys.first_block_column();

  util::Rng rng(9);
  std::vector<double> m(static_cast<std::size_t>(cfg.n_t * cfg.n_m()));
  for (auto& v : m) v = rng.uniform(-1, 1);

  std::vector<double> d_pde(static_cast<std::size_t>(cfg.n_t * cfg.n_d()));
  sys.apply_p2o(m, d_pde);

  core::LocalDims local =
      core::LocalDims::single_rank({cfg.n_m(), cfg.n_d(), cfg.n_t});
  std::vector<double> d_dense(d_pde.size());
  core::dense_forward(local, col, m, d_dense);

  EXPECT_LT(blas::relative_l2_error(static_cast<index_t>(d_pde.size()),
                                    d_dense.data(), d_pde.data()),
            1e-12);
}

TEST(Lti, FftMatvecReproducesTimeStepping) {
  // End-to-end: PDE -> first block column -> Fourier-space operator
  // -> FFT matvec == direct PDE solve.
  const auto cfg = small_config();
  AdvectionDiffusion1D sys(cfg);
  const auto col = sys.first_block_column();

  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  const core::ProblemDims dims{cfg.n_m(), cfg.n_d(), cfg.n_t};
  const auto local = core::LocalDims::single_rank(dims);
  core::BlockToeplitzOperator op(dev, stream, local, col);
  core::FftMatvecPlan plan(dev, stream, local);

  util::Rng rng(10);
  std::vector<double> m(static_cast<std::size_t>(cfg.n_t * cfg.n_m()));
  for (auto& v : m) v = rng.uniform(-1, 1);
  std::vector<double> d_pde(static_cast<std::size_t>(cfg.n_t * cfg.n_d()));
  std::vector<double> d_fft(d_pde.size());
  sys.apply_p2o(m, d_pde);
  plan.forward(op, m, d_fft, PrecisionConfig{});
  EXPECT_LT(blas::relative_l2_error(static_cast<index_t>(d_pde.size()),
                                    d_fft.data(), d_pde.data()),
            1e-11);
}

TEST(Lti, AdjointConsistency) {
  const auto cfg = small_config();
  AdvectionDiffusion1D sys(cfg);
  util::Rng rng(11);
  std::vector<double> m(static_cast<std::size_t>(cfg.n_t * cfg.n_m()));
  std::vector<double> d(static_cast<std::size_t>(cfg.n_t * cfg.n_d()));
  for (auto& v : m) v = rng.uniform(-1, 1);
  for (auto& v : d) v = rng.uniform(-1, 1);
  std::vector<double> Fm(d.size()), Ftd(m.size());
  sys.apply_p2o(m, Fm);
  sys.apply_p2o_adjoint(d, Ftd);
  const double lhs = blas::dot<double>(static_cast<index_t>(d.size()), Fm.data(), d.data());
  const double rhs = blas::dot<double>(static_cast<index_t>(m.size()), m.data(), Ftd.data());
  EXPECT_NEAR(lhs, rhs, 1e-12 * (std::abs(lhs) + 1.0));
}

// ----------------------------------------------------------- priors
TEST(Prior, CovarianceInvertsInverseCovariance) {
  PriorModel prior;
  prior.n_m = 16;
  prior.sigma = 0.8;
  prior.alpha = 0.5;
  util::Rng rng(13);
  std::vector<double> x(static_cast<std::size_t>(3 * 16)), mid(x.size()), back(x.size());
  for (auto& v : x) v = rng.uniform(-1, 1);
  prior.apply_inverse_covariance(3, x, mid);
  prior.apply_covariance(3, mid, back);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(back[i], x[i], 1e-11);
}

// ------------------------------------------------------------- dense
TEST(DenseSpd, CholeskyLogDetAndSolve) {
  // A = [[4, 2], [2, 3]]: det = 8.
  std::vector<double> a{4, 2, 2, 3};
  EXPECT_NEAR(DenseSpd::log_det(2, a), std::log(8.0), 1e-12);
  std::vector<double> b{10, 8};  // x = [2.25? ...] solve and verify.
  DenseSpd::solve(2, a, b.data());
  EXPECT_NEAR(4 * b[0] + 2 * b[1], 10.0, 1e-12);
  EXPECT_NEAR(2 * b[0] + 3 * b[1], 8.0, 1e-12);
  std::vector<double> indef{1, 2, 2, 1};
  EXPECT_THROW(DenseSpd::log_det(2, indef), std::domain_error);
}

// ---------------------------------------------------------- CG + MAP
TEST(Cg, SolvesSmallSpdSystem) {
  // A = diag(1..5) via lambda.
  std::vector<double> b{5, 8, 9, 8, 5};
  std::vector<double> x(5);
  const auto result = conjugate_gradient(
      [](std::span<const double> in, std::span<double> out) {
        for (int i = 0; i < 5; ++i) {
          out[static_cast<std::size_t>(i)] = (i + 1.0) * in[static_cast<std::size_t>(i)];
        }
      },
      b, x, 1e-12, 50);
  EXPECT_TRUE(result.converged);
  for (int i = 0; i < 5; ++i) {
    EXPECT_NEAR(x[static_cast<std::size_t>(i)], b[static_cast<std::size_t>(i)] / (i + 1.0), 1e-9);
  }
}

TEST(Cg, ZeroRhsConvergesImmediately) {
  std::vector<double> b(4, 0.0), x(4, 1.0);
  const auto r = conjugate_gradient(
      [](std::span<const double> in, std::span<double> out) {
        std::copy(in.begin(), in.end(), out.begin());
      },
      b, x, 1e-10, 10);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0);
}

struct MapSetup {
  LtiConfig cfg = LtiConfig::with_uniform_sensors(32, 16, 4);
  std::unique_ptr<AdvectionDiffusion1D> sys;
  std::unique_ptr<device::Device> dev;
  std::unique_ptr<device::Stream> stream;
  std::unique_ptr<core::BlockToeplitzOperator> op;
  std::unique_ptr<core::FftMatvecPlan> plan;
  PriorModel prior;
  NoiseModel noise;
  std::vector<double> m_true;
  std::vector<double> d_obs;

  explicit MapSetup(std::uint64_t seed) {
    sys = std::make_unique<AdvectionDiffusion1D>(cfg);
    dev = std::make_unique<device::Device>(device::make_mi300x());
    stream = std::make_unique<device::Stream>(*dev);
    const core::ProblemDims dims{cfg.n_m(), cfg.n_d(), cfg.n_t};
    const auto local = core::LocalDims::single_rank(dims);
    op = std::make_unique<core::BlockToeplitzOperator>(*dev, *stream, local,
                                                       sys->first_block_column());
    plan = std::make_unique<core::FftMatvecPlan>(*dev, *stream, local);
    prior.n_m = cfg.n_m();
    prior.sigma = 2.0;
    prior.alpha = 2.0;
    noise.sigma = 1e-4;

    // Smooth ground-truth source and clean observations.
    m_true.resize(static_cast<std::size_t>(cfg.n_t * cfg.n_m()));
    for (index_t t = 0; t < cfg.n_t; ++t) {
      for (index_t i = 0; i < cfg.n_m(); ++i) {
        const double x = static_cast<double>(i + 1) / (cfg.n_m() + 1);
        m_true[static_cast<std::size_t>(t * cfg.n_m() + i)] =
            std::sin(2 * M_PI * x) *
            std::exp(-0.1 * static_cast<double>(t));
      }
    }
    d_obs.resize(static_cast<std::size_t>(cfg.n_t * cfg.n_d()));
    sys->apply_p2o(m_true, d_obs);
    util::Rng rng(seed);
    for (auto& v : d_obs) v += noise.sigma * 0.1 * rng.normal();
  }
};

TEST(Map, HessianIsSymmetricPositive) {
  MapSetup s(21);
  HessianOperator h(*s.plan, *s.op, s.prior, s.noise, PrecisionConfig{});
  util::Rng rng(22);
  std::vector<double> x(static_cast<std::size_t>(h.parameter_size()));
  std::vector<double> y(x.size()), hx(x.size()), hy(x.size());
  for (auto& v : x) v = rng.uniform(-1, 1);
  for (auto& v : y) v = rng.uniform(-1, 1);
  h.apply(x, hx);
  h.apply(y, hy);
  const index_t n = h.parameter_size();
  EXPECT_NEAR(blas::dot<double>(n, x.data(), hy.data()),
              blas::dot<double>(n, y.data(), hx.data()),
              1e-8 * blas::nrm2<double>(n, hx.data()));
  EXPECT_GT(blas::dot<double>(n, x.data(), hx.data()), 0.0);
}

TEST(Map, RecoversObservationsThroughMapPoint) {
  MapSetup s(23);
  HessianOperator h(*s.plan, *s.op, s.prior, s.noise, PrecisionConfig{});
  std::vector<double> m_map(static_cast<std::size_t>(h.parameter_size()));
  const auto cg = solve_map(h, s.d_obs, m_map, 1e-9, 400);
  EXPECT_TRUE(cg.converged);
  EXPECT_GT(h.matvec_count(), 2);

  // The MAP point must reproduce the observations well (data misfit
  // small relative to the signal) even though the parameter itself is
  // only identifiable in the observed subspace.
  std::vector<double> d_fit(s.d_obs.size());
  s.sys->apply_p2o(m_map, d_fit);
  EXPECT_LT(blas::relative_l2_error(static_cast<index_t>(s.d_obs.size()),
                                    d_fit.data(), s.d_obs.data()),
            0.05);
}

TEST(Map, MixedPrecisionHessianCloseToDouble) {
  MapSetup s(24);
  HessianOperator hd(*s.plan, *s.op, s.prior, s.noise, PrecisionConfig{});
  HessianOperator hm(*s.plan, *s.op, s.prior, s.noise,
                     PrecisionConfig::parse("dssdd"));
  util::Rng rng(25);
  std::vector<double> x(static_cast<std::size_t>(hd.parameter_size()));
  for (auto& v : x) v = rng.uniform(-1, 1);
  std::vector<double> yd(x.size()), ym(x.size());
  hd.apply(x, yd);
  hm.apply(x, ym);
  EXPECT_LT(blas::relative_l2_error(hd.parameter_size(), ym.data(), yd.data()),
            1e-4);
}

// A Hessian action is one FftMatvecPlan::apply_normal plus the prior
// term.  It must be bit-identical to the composition perfbench's traced
// solve rebuilds — F, the double vector scaled by G_n^{-1}, F*, then
// G_pr^{-1} x added — and count one F and one F* action.
TEST(Map, HessianActionBitIdenticalToForwardScaleAdjoint) {
  MapSetup s(26);
  const index_t n_t = s.cfg.n_t;
  for (const char* cfg_str : {"ddddd", "dssdd", "sdsds"}) {
    const auto cfg = PrecisionConfig::parse(cfg_str);
    HessianOperator h(*s.plan, *s.op, s.prior, s.noise, cfg);
    util::Rng rng(27);
    std::vector<double> x(static_cast<std::size_t>(h.parameter_size()));
    for (auto& v : x) v = rng.uniform(-1, 1);
    std::vector<double> y(x.size());
    const index_t count = h.matvec_count();
    h.apply(x, y);
    EXPECT_EQ(h.matvec_count(), count + 2) << cfg_str;

    std::vector<double> d(static_cast<std::size_t>(h.data_size()));
    std::vector<double> ftd(x.size()), composed(x.size());
    s.plan->forward(*s.op, x, d, cfg);
    for (auto& v : d) v *= s.noise.inv_variance();
    s.plan->adjoint(*s.op, d, ftd, cfg);
    s.prior.apply_inverse_covariance(n_t, x, composed);
    for (std::size_t i = 0; i < composed.size(); ++i) composed[i] += ftd[i];
    EXPECT_EQ(y, composed) << cfg_str;
  }
}

// After a warm-up solve (the operator's lazy single-precision spectrum
// launches once), a MAP solve issues one 3-launch adjoint for its
// right-hand side and one 5-launch Hessian action per CG iteration.
// A zero-rate FaultPlan counts the launches.
TEST(Map, SolveIssuesFiveLaunchesPerIteration) {
  MapSetup s(28);
  HessianOperator h(*s.plan, *s.op, s.prior, s.noise, PrecisionConfig::parse("dssdd"));
  std::vector<double> m_map(static_cast<std::size_t>(h.parameter_size()));
  ASSERT_TRUE(solve_map(h, s.d_obs, m_map, 1e-6, 400).converged);
  auto faults = std::make_shared<device::FaultPlan>();
  s.dev->set_fault_plan(faults);
  const index_t count = h.matvec_count();
  const auto cg = solve_map(h, s.d_obs, m_map, 1e-6, 400);
  ASSERT_TRUE(cg.converged);
  EXPECT_GT(cg.iterations, 1);
  EXPECT_EQ(faults->stats().kernel_launches,
            3u + 5u * static_cast<std::uint64_t>(cg.iterations));
  EXPECT_EQ(h.matvec_count(), count + 1 + 2 * cg.iterations);
  EXPECT_EQ(faults->stats().kernel_faults, 0u);
  s.dev->set_fault_plan(nullptr);
}

// -------------------------------------------------------------- OED
TEST(Oed, GramIsSymmetricPsd) {
  MapSetup s(26);
  index_t used = 0;
  const auto gram = assemble_data_space_gram(*s.plan, *s.op, s.prior, s.noise,
                                             PrecisionConfig{}, &used);
  const index_t n = s.cfg.n_t * s.cfg.n_d();
  EXPECT_EQ(used, 2 * n);  // N_d * N_t columns, F* + F each (Remark 1)
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < i; ++j) {
      EXPECT_NEAR(gram[static_cast<std::size_t>(i * n + j)],
                  gram[static_cast<std::size_t>(j * n + i)],
                  1e-6 * (std::abs(gram[static_cast<std::size_t>(i * n + j)]) + 1.0));
    }
  }
  // I + H must be SPD (log_det must not throw).
  std::vector<double> eye_plus(gram);
  for (index_t i = 0; i < n; ++i) eye_plus[static_cast<std::size_t>(i * n + i)] += 1.0;
  EXPECT_NO_THROW(DenseSpd::log_det(n, eye_plus));
}

TEST(Oed, GreedyGainsMonotone) {
  MapSetup s(27);
  const auto gram = assemble_data_space_gram(*s.plan, *s.op, s.prior, s.noise,
                                             PrecisionConfig{});
  const auto result =
      greedy_sensor_placement(gram, s.cfg.n_d(), s.cfg.n_t, s.cfg.n_d());
  ASSERT_EQ(result.chosen_sensors.size(), static_cast<std::size_t>(s.cfg.n_d()));
  // Cumulative EIG must increase with every added sensor.
  for (std::size_t k = 1; k < result.information_gain.size(); ++k) {
    EXPECT_GT(result.information_gain[k], result.information_gain[k - 1]);
  }
  // Chosen sensors are distinct.
  std::set<index_t> unique(result.chosen_sensors.begin(),
                           result.chosen_sensors.end());
  EXPECT_EQ(unique.size(), result.chosen_sensors.size());
}

TEST(Oed, GreedyBreaksTiesTowardTheLowestSensor) {
  // One time step and a diagonal Gram: sensor s adds log(1 + h_s) / 2.
  const auto picks = [](const std::vector<double>& h) {
    const index_t n = static_cast<index_t>(h.size());
    std::vector<double> gram(static_cast<std::size_t>(n * n), 0.0);
    for (index_t s = 0; s < n; ++s) {
      gram[static_cast<std::size_t>(s * n + s)] = h[static_cast<std::size_t>(s)];
    }
    return greedy_sensor_placement(gram, n, 1, n).chosen_sensors;
  };
  // Sensor 3 leads sensor 1 by ~5e-10 relative, inside kGainTieRtol:
  // they tie, and the lower index goes first.
  EXPECT_EQ(picks({1.0, 3.0, 2.0, 3.0 * (1.0 + 1e-9)}),
            (std::vector<index_t>{1, 3, 2, 0}));
  // A lead of ~5e-5 relative is a real difference.
  EXPECT_EQ(picks({3.0, 3.0 * (1.0 + 1e-4)}), (std::vector<index_t>{1, 0}));
}

TEST(Oed, MixedPrecisionGramSelectsTheDoubleDesign) {
  // The sensor_placement example's problem: uniformly spaced sensors
  // whose gains agree to 1e-8 relative or closer, below the dssdd
  // Gram's ~1e-7 rounding, so a strict argmax would pick by rounding.
  const auto cfg = LtiConfig::with_uniform_sensors(64, 24, 8);
  AdvectionDiffusion1D sys(cfg);
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  const auto local =
      core::LocalDims::single_rank(core::ProblemDims{cfg.n_m(), cfg.n_d(), cfg.n_t});
  core::BlockToeplitzOperator op(dev, stream, local, sys.first_block_column());
  core::FftMatvecPlan plan(dev, stream, local);
  PriorModel prior;
  prior.n_m = cfg.n_m();
  prior.sigma = 1.0;
  prior.alpha = 2.0;
  NoiseModel noise;
  noise.sigma = 1e-3;
  const auto design = [&](const PrecisionConfig& config) {
    const auto gram = assemble_data_space_gram(plan, op, prior, noise, config);
    return greedy_sensor_placement(gram, cfg.n_d(), cfg.n_t, 4).chosen_sensors;
  };
  EXPECT_EQ(design(PrecisionConfig::parse("dssdd")), design(PrecisionConfig{}));
}

TEST(Oed, InvalidBudget) {
  std::vector<double> gram(16 * 16, 0.0);
  EXPECT_THROW(greedy_sensor_placement(gram, 4, 4, 0), std::invalid_argument);
  EXPECT_THROW(greedy_sensor_placement(gram, 4, 4, 5), std::invalid_argument);
  EXPECT_THROW(greedy_sensor_placement(gram, 3, 4, 2), std::invalid_argument);
}

}  // namespace
}  // namespace fftmv::inverse
