// fft_matvec — the FFTMatvec application executable, mirroring the
// artifact's interface (paper AE appendix):
//
//   fft_matvec -nm 512 -nd 16 -Nt 128 -prec dssdd -rand [-raw]
//              [-reps 20] [-device mi300x] [-s DIR] [-t]
//
//   -nm/-nd/-Nt   problem size, each >= 1 (defaults are host-friendly;
//                 the paper's size is -nm 5000 -nd 100 -Nt 1000)
//   -reps N       timed F/F* repetitions, N >= 1 (default 20)
//   -prec xxxxx   five-phase precision config (d/s per phase)
//   -rand         random operator/vectors with the §4.2.1 mantissa-
//                 filling initialisation (default: deterministic seed)
//   -raw          machine-parseable output (bare numbers)
//   -s DIR        save the F and F* outputs to DIR/fwd.bin, DIR/adj.bin
//                 for offline comparison across configs
//   -t            self-test (matvec vs dense reference + adjoint
//                 identity), exit status reports the result
//
// Timing output follows the artifact's layout: three lines of
// setup/total/cleanup, then mean/min/max for the F matvec, then
// mean/min/max for F* (here across repetitions; the artifact reports
// across processes).
#include <iostream>
#include <stdexcept>
#include <string>

#include "blas/vector_ops.hpp"
#include "core/block_toeplitz.hpp"
#include "core/dense_reference.hpp"
#include "core/matvec_plan.hpp"
#include "core/synthetic.hpp"
#include "device/device_spec.hpp"
#include "util/cli.hpp"
#include "util/io.hpp"
#include "util/timer.hpp"

using namespace fftmv;

namespace {

int self_test() {
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  const core::ProblemDims dims{64, 4, 32};
  const auto local = core::LocalDims::single_rank(dims);
  const auto col = core::make_first_block_col(local, 1);
  const auto m = core::make_input_vector(dims.n_t * dims.n_m, 2);
  const auto d_in = core::make_input_vector(dims.n_t * dims.n_d, 3);

  core::BlockToeplitzOperator op(dev, stream, local, col);
  core::FftMatvecPlan plan(dev, stream, local);

  std::vector<double> d(static_cast<std::size_t>(dims.n_t * dims.n_d));
  std::vector<double> d_ref(d.size());
  plan.forward(op, m, d, precision::PrecisionConfig{});
  core::dense_forward(local, col, m, d_ref);
  const double fwd_err = blas::relative_l2_error(
      static_cast<index_t>(d.size()), d.data(), d_ref.data());

  std::vector<double> mt(static_cast<std::size_t>(dims.n_t * dims.n_m));
  plan.adjoint(op, d_in, mt, precision::PrecisionConfig{});
  const double lhs =
      blas::dot<double>(static_cast<index_t>(d.size()), d.data(), d_in.data());
  const double rhs =
      blas::dot<double>(static_cast<index_t>(m.size()), m.data(), mt.data());
  const double adj_err = std::abs(lhs - rhs) / (std::abs(lhs) + 1e-300);

  const bool pass = fwd_err < 1e-12 && adj_err < 1e-10;
  std::cout << "self-test: forward-vs-dense rel err = " << fwd_err
            << ", adjoint identity rel err = " << adj_err << " -> "
            << (pass ? "PASSED" : "FAILED") << "\n";
  return pass ? 0 : 1;
}

struct RepStats {
  util::StatAccumulator stats;
  void print(const char* name, bool raw) {
    if (raw) {
      std::cout << stats.mean() << "\n" << stats.min() << "\n" << stats.max() << "\n";
    } else {
      std::cout << name << " mean: " << stats.mean() * 1e3 << " ms\n"
                << name << " min:  " << stats.min() * 1e3 << " ms\n"
                << name << " max:  " << stats.max() * 1e3 << " ms\n";
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::CliParser cli(argc, argv);
    cli.check_known({"nm", "nd", "Nt", "prec", "rand", "raw", "reps", "device", "s", "t"});
    if (cli.get_flag("t")) return self_test();

    // A count flag's value, rejected naming the flag when below 1.
    const auto count = [&](const std::string& flag, index_t fallback) {
      const index_t v = cli.get_int(flag, fallback);
      if (v < 1) {
        throw std::invalid_argument("-" + flag + ": expected a count >= 1, got " +
                                    std::to_string(v));
      }
      return v;
    };
    const core::ProblemDims dims{count("nm", 512), count("nd", 16), count("Nt", 128)};
    const auto config =
        precision::PrecisionConfig::parse(cli.get_string("prec", "ddddd"));
    const auto spec = device::spec_by_name(cli.get_string("device", "mi300x"));
    const index_t reps = count("reps", 20);
    const bool raw = cli.get_flag("raw");
    const std::uint64_t seed = cli.get_flag("rand") ? 20251116 : 1;

    if (!raw) {
      std::cout << "fft_matvec: N_m=" << dims.n_m << " N_d=" << dims.n_d
                << " N_t=" << dims.n_t << " prec=" << config.to_string()
                << " device=" << spec.name << " reps=" << reps << "\n";
    }

    device::Device dev(spec);
    device::Stream stream(dev);
    const auto local = core::LocalDims::single_rank(dims);
    const auto col = core::make_first_block_col(local, seed);
    const auto m = core::make_input_vector(dims.n_t * dims.n_m, seed + 1);
    const auto d_in = core::make_input_vector(dims.n_t * dims.n_d, seed + 2);

    const double setup0 = stream.now();
    core::BlockToeplitzOperator op(dev, stream, local, col);
    core::FftMatvecPlan plan(dev, stream, local);
    if (config.phase(precision::kPhaseSbgemv) == precision::Precision::kSingle) {
      op.spectrum_f(stream);
    }
    const double setup_s = stream.now() - setup0;

    std::vector<double> d(static_cast<std::size_t>(dims.n_t * dims.n_d));
    std::vector<double> m_out(static_cast<std::size_t>(dims.n_t * dims.n_m));

    RepStats fwd, adj;
    const double total0 = stream.now();
    for (index_t r = 0; r < reps; ++r) {
      plan.forward(op, m, d, config);
      fwd.stats.add(plan.last_timings().total());
      plan.adjoint(op, d_in, m_out, config);
      adj.stats.add(plan.last_timings().total());
    }
    const double total_s = stream.now() - total0;
    const double cleanup_s = 0.0;  // RAII: nothing explicit to tear down

    if (raw) {
      std::cout << setup_s << "\n" << total_s << "\n" << cleanup_s << "\n";
    } else {
      std::cout << "setup:   " << setup_s * 1e3 << " ms\n"
                << "total:   " << total_s * 1e3 << " ms\n"
                << "cleanup: " << cleanup_s * 1e3 << " ms\n";
    }
    fwd.print("F  matvec", raw);
    adj.print("F* matvec", raw);

    if (cli.has("s")) {
      const std::string dir = cli.get_string("s", ".");
      util::save_vector(dir + "/fwd.bin", d);
      util::save_vector(dir + "/adj.bin", m_out);
      if (!raw) std::cout << "saved outputs to " << dir << "/{fwd,adj}.bin\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "fft_matvec: " << e.what() << "\n";
    return 1;
  }
}
