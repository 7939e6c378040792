// Multi-channel signal deconvolution — one of the other application
// domains the paper names for block-triangular Toeplitz matvecs
// (§2/§5: "multi-channel signal processing and vector-autoregressive-
// moving-average models in econometrics").
//
// A bank of N_d receivers records causal FIR-filtered mixtures of
// N_m source channels.  The map sources -> recordings is exactly a
// block-lower-triangular Toeplitz operator whose first block column
// holds the filter taps, so forward convolution runs as an F matvec
// and matched filtering (correlation) as F*.  The sources are then
// recovered with regularised CG on the normal equations, every
// operator action going through the FFT pipeline in mixed precision.
#include <cmath>
#include <iostream>

#include "blas/vector_ops.hpp"
#include "core/block_toeplitz.hpp"
#include "core/matvec_plan.hpp"
#include "device/device_spec.hpp"
#include "example_common.hpp"
#include "inverse/bayes.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace fftmv;

namespace {

/// Random decaying FIR taps: tap t of channel pair (receiver, source)
/// decays like exp(-t/8) — causal, stable filters.
std::vector<double> make_filter_bank(const core::ProblemDims& dims,
                                     std::uint64_t seed) {
  std::vector<double> taps(
      static_cast<std::size_t>(dims.n_t * dims.n_d * dims.n_m));
  util::Rng rng(seed);
  for (index_t t = 0; t < dims.n_t; ++t) {
    const double decay = std::exp(-static_cast<double>(t) / 8.0);
    for (index_t k = 0; k < dims.n_d * dims.n_m; ++k) {
      taps[static_cast<std::size_t>(t * dims.n_d * dims.n_m + k)] =
          decay * rng.uniform(-1.0, 1.0);
    }
  }
  return taps;
}

/// Band-limited test sources: sums of a few sinusoids per channel.
std::vector<double> make_sources(const core::ProblemDims& dims) {
  std::vector<double> s(static_cast<std::size_t>(dims.n_t * dims.n_m));
  for (index_t t = 0; t < dims.n_t; ++t) {
    for (index_t c = 0; c < dims.n_m; ++c) {
      const double phase = 2.0 * M_PI * static_cast<double>(t) / dims.n_t;
      s[static_cast<std::size_t>(t * dims.n_m + c)] =
          std::sin((c + 1.0) * phase) + 0.5 * std::cos((c + 3.0) * phase);
    }
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli(argc, argv);
  cli.check_known({"channels", "receivers", "samples"});
  // n_m source channels, n_d receivers, n_t samples.
  const core::ProblemDims dims{cli.get_int("channels", 12),
                               cli.get_int("receivers", 16),
                               cli.get_int("samples", 64)};
  std::cout << "Multi-channel deconvolution: " << dims.n_m << " sources -> "
            << dims.n_d << " receivers, " << dims.n_t << " samples\n\n";

  device::Device dev(examples::example_device());
  device::Stream stream(dev);
  const auto local = core::LocalDims::single_rank(dims);
  const auto taps = make_filter_bank(dims, 7);
  core::BlockToeplitzOperator op(dev, stream, local, taps);
  core::FftMatvecPlan plan(dev, stream, local);
  const auto mixed = precision::PrecisionConfig::parse("dssdd");

  // Forward: record the mixtures (F matvec = batched causal FIR).
  const auto sources = make_sources(dims);
  std::vector<double> recordings(static_cast<std::size_t>(dims.n_t * dims.n_d));
  plan.forward(op, sources, recordings, precision::PrecisionConfig{});
  util::Rng rng(8);
  for (auto& v : recordings) v += 1e-6 * rng.normal();

  // Deconvolve: CG on the Tikhonov normal equations
  //   (F* F + lambda I) s = F* r,  all operator actions via FFTMatvec.
  const double lambda = 1e-6;
  const index_t n = dims.n_t * dims.n_m;
  std::vector<double> rhs(static_cast<std::size_t>(n));
  plan.adjoint(op, recordings, rhs, mixed);

  index_t matvecs = 0;
  std::vector<double> tmp_m(rhs.size());
  auto normal_op = [&](std::span<const double> in, std::span<double> out) {
    // F* F in as one chained apply (weight 1), an F and an F* action.
    const core::ConstVectorView ins[] = {in};
    const core::VectorView outs[] = {tmp_m};
    plan.apply_normal(op, mixed, ins, 1.0, outs);
    matvecs += 2;
    for (index_t i = 0; i < n; ++i) {
      out[static_cast<std::size_t>(i)] =
          tmp_m[static_cast<std::size_t>(i)] + lambda * in[static_cast<std::size_t>(i)];
    }
  };

  std::vector<double> recovered(static_cast<std::size_t>(n));
  const double t0 = stream.now();
  const auto cg = inverse::conjugate_gradient(normal_op, rhs, recovered, 1e-8, 600);
  const double sim_s = stream.now() - t0;

  const double err = blas::relative_l2_error(n, recovered.data(), sources.data());
  util::Table table({"quantity", "value"});
  table.add_row({"CG iterations", std::to_string(cg.iterations)});
  table.add_row({"converged", cg.converged ? "yes" : "no"});
  table.add_row({"F/F* actions", std::to_string(matvecs)});
  table.add_row({"simulated device time", util::Table::fmt(sim_s * 1e3, 2) + " ms"});
  table.add_row({"source recovery rel err", util::Table::fmt_sci(err)});
  table.print(std::cout);

  std::cout << "\nRecovery error is bounded by the regularisation and the\n"
               "injected receiver noise; the FFT pipeline turns every\n"
               "convolution/correlation into O(N log N) work.\n";
  return cg.converged && err < 0.05 ? 0 : 1;
}
