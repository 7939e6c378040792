// Digital-twin-style Bayesian source inversion (the paper's flagship
// application, §1/§5: FFTMatvec has been used for tsunami early
// warning; here the stand-in physics is a 1-D advection-diffusion
// transport of a hazardous release).
//
// Workflow:
//  1. an LTI PDE system defines the parameter-to-observable map; its
//     first block column comes from N_d adjoint PDE solves (§2.4),
//  2. synthetic observations are generated from a hidden "true"
//     source and polluted with sensor noise,
//  3. the MAP point solves (F* G_n^-1 F + G_pr^-1) m = F* G_n^-1 d
//     by conjugate gradients, with every F/F* action running through
//     the FFT-based matvec,
//  4. the same inversion runs with the dssdd mixed-precision config;
//     the twin must reach the same answer faster (simulated device
//     time), quantifying what mixed precision buys a real-time
//     inversion pipeline.
// Self-checking: exits 1 unless both MAP solves converge and the dssdd
// predicted observations lie within 1e-3 (relative L2) of the double
// ones.
#include <cmath>
#include <iostream>

#include "blas/vector_ops.hpp"
#include "core/block_toeplitz.hpp"
#include "core/matvec_plan.hpp"
#include "device/device_spec.hpp"
#include "example_common.hpp"
#include "inverse/bayes.hpp"
#include "inverse/lti_system.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace fftmv;

namespace {

/// Hidden truth: a localized release pulsing near x = 0.3.
std::vector<double> true_source(const inverse::LtiConfig& cfg) {
  std::vector<double> m(static_cast<std::size_t>(cfg.n_t * cfg.n_m()));
  for (index_t t = 0; t < cfg.n_t; ++t) {
    const double pulse = std::exp(-0.5 * std::pow((t - 8.0) / 4.0, 2.0));
    for (index_t i = 0; i < cfg.n_x; ++i) {
      const double x = static_cast<double>(i + 1) / (cfg.n_x + 1);
      m[static_cast<std::size_t>(t * cfg.n_x + i)] =
          pulse * std::exp(-0.5 * std::pow((x - 0.3) / 0.05, 2.0));
    }
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli(argc, argv);
  cli.check_known({"nx", "Nt", "nd", "noise"});
  inverse::LtiConfig cfg = inverse::LtiConfig::with_uniform_sensors(
      cli.get_int("nx", 96), cli.get_int("Nt", 48), cli.get_int("nd", 6));
  const double noise_sigma = cli.get_double("noise", 1e-4);

  std::cout << "Bayesian source inversion digital twin\n"
            << "  transport PDE: 1-D advection-diffusion, " << cfg.n_x
            << " grid points, " << cfg.n_t << " time steps, " << cfg.n_d()
            << " sensors\n";

  // --- 1. PDE system -> block-Toeplitz p2o map ------------------
  inverse::AdvectionDiffusion1D system(cfg);
  const auto first_col = system.first_block_column();
  std::cout << "  first block column from " << cfg.n_d()
            << " adjoint PDE solves (" << first_col.size() << " entries)\n";

  device::Device dev(examples::example_device());
  device::Stream stream(dev);
  const core::ProblemDims dims{cfg.n_m(), cfg.n_d(), cfg.n_t};
  const auto local = core::LocalDims::single_rank(dims);
  core::BlockToeplitzOperator op(dev, stream, local, first_col);
  core::FftMatvecPlan plan(dev, stream, local);

  // --- 2. Synthetic observations --------------------------------
  const auto m_true = true_source(cfg);
  std::vector<double> d_obs(static_cast<std::size_t>(cfg.n_t * cfg.n_d()));
  system.apply_p2o(m_true, d_obs);
  util::Rng rng(2026);
  double signal = blas::nrm2<double>(static_cast<index_t>(d_obs.size()), d_obs.data());
  for (auto& v : d_obs) v += noise_sigma * rng.normal();
  std::cout << "  observations: " << d_obs.size() << " values, noise sigma "
            << noise_sigma << " (signal norm "
            << util::Table::fmt(signal, 3) << ")\n\n";

  // --- 3./4. MAP inversion, double vs mixed precision ------------
  inverse::PriorModel prior;
  prior.n_m = cfg.n_m();
  prior.sigma = 2.0;
  prior.alpha = 4.0;
  inverse::NoiseModel noise;
  noise.sigma = noise_sigma;

  // MAP points of an ill-posed problem are only identifiable in the
  // observed subspace, so configs are compared through their
  // predicted observations F m_map rather than in parameter space.
  util::Table table({"config", "CG iters", "matvecs", "sim. matvec time ms",
                     "data misfit", "pred. rel diff vs double"});
  std::vector<double> m_map_double;  // holds the double-MAP predictions
  bool converged = true;
  double pred_diff = 0.0;
  for (const char* cfg_str : {"ddddd", "dssdd"}) {
    const auto pcfg = precision::PrecisionConfig::parse(cfg_str);
    inverse::HessianOperator hessian(plan, op, prior, noise, pcfg);
    std::vector<double> m_map(static_cast<std::size_t>(hessian.parameter_size()));

    const double t0 = stream.now();
    // CG tolerance matched to the mixed-precision matvec accuracy:
    // tightening it further only makes the low-precision solver burn
    // iterations fighting its own rounding floor (the paper's
    // "iterative methods ... taking more iterations" trade-off).
    const auto cg = inverse::solve_map(hessian, d_obs, m_map, 1e-5, 400);
    const double sim_time = stream.now() - t0;
    converged = converged && cg.converged;

    std::vector<double> d_fit(d_obs.size());
    system.apply_p2o(m_map, d_fit);
    const double misfit = blas::relative_l2_error(
        static_cast<index_t>(d_obs.size()), d_fit.data(), d_obs.data());

    std::string rel = "-";
    if (std::string(cfg_str) == "ddddd") {
      m_map_double = d_fit;  // predicted observations of the double MAP
    } else {
      pred_diff = blas::relative_l2_error(static_cast<index_t>(d_fit.size()),
                                          d_fit.data(), m_map_double.data());
      rel = util::Table::fmt_sci(pred_diff);
    }
    table.add_row({cfg_str, std::to_string(cg.iterations),
                   std::to_string(hessian.matvec_count()),
                   util::Table::fmt(sim_time * 1e3, 2),
                   util::Table::fmt_sci(misfit), rel});
  }
  table.print(std::cout);

  std::cout << "\nThe mixed-precision twin reproduces the double-precision\n"
               "MAP point while each Hessian action (one F + one F*) runs\n"
               "substantially faster — the margin that matters when the\n"
               "inversion gates an early-warning decision.\n";
  if (!converged || !(pred_diff <= 1e-3)) {
    std::cerr << "self-check failed: MAP solves "
              << (converged ? "converged" : "did not converge")
              << ", dssdd predictions differ from double by " << pred_diff
              << " (limit 1e-3)\n";
    return 1;
  }
  return 0;
}
