// Quickstart: build a block-triangular Toeplitz operator, run F and
// F* matvecs in double and mixed precision, and print the phase
// timing breakdown — the library's 60-second tour.
//
// Flags follow the FFTMatvec artifact:
//   quickstart -nm 400 -nd 8 -Nt 80 -prec dssdd [-device mi300x] [-reps 10]
#include <iostream>

#include "blas/vector_ops.hpp"
#include "core/block_toeplitz.hpp"
#include "core/matvec_plan.hpp"
#include "core/synthetic.hpp"
#include "device/device_spec.hpp"
#include "example_common.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace fftmv;

int main(int argc, char** argv) {
  util::CliParser cli(argc, argv);
  cli.check_known({"nm", "nd", "Nt", "prec", "device", "reps"});
  const core::ProblemDims dims{cli.get_int("nm", 400), cli.get_int("nd", 8),
                               cli.get_int("Nt", 80)};
  const auto config =
      precision::PrecisionConfig::parse(cli.get_string("prec", "dssdd"));
  // Default: overhead-free MI300X (see example_common.hpp); pass
  // -device mi250x/mi300x/mi355x for the full spec.
  const auto spec = cli.has("device")
                        ? device::spec_by_name(cli.get_string("device", "mi300x"))
                        : examples::example_device();
  const index_t reps = cli.get_int("reps", 10);

  std::cout << "FFTMatvec quickstart: N_m=" << dims.n_m << " N_d=" << dims.n_d
            << " N_t=" << dims.n_t << " on simulated " << spec.name
            << ", precision config " << config.to_string() << "\n\n";

  // 1. Device + synthetic operator (first block column only — the
  //    Toeplitz structure means nothing else is ever stored).
  device::Device dev(spec);
  device::Stream stream(dev);
  const auto local = core::LocalDims::single_rank(dims);
  const auto first_col = core::make_first_block_col(local, /*seed=*/1);
  core::BlockToeplitzOperator op(dev, stream, local, first_col);
  std::cout << "operator setup (always double): "
            << util::Table::fmt(op.setup_seconds() * 1e3, 3) << " ms, "
            << op.spectrum_elems() << " Fourier-space entries\n";

  // 2. Plan + vectors.
  core::FftMatvecPlan plan(dev, stream, local);
  const auto m = core::make_input_vector(dims.n_t * dims.n_m, 2);
  std::vector<double> d(static_cast<std::size_t>(dims.n_t * dims.n_d));
  std::vector<double> d_double(d.size());
  std::vector<double> m_back(m.size());

  // 3. Baseline and mixed-precision forward matvecs.
  plan.forward(op, m, d_double, precision::PrecisionConfig{});
  plan.forward(op, m, d, config);  // warm-up (materialises fp32 operator)

  // The fused pipeline folds phase 1 into the forward FFT's input
  // loads and phase 5 into the inverse FFT's output stores, so their
  // time is charged to FFT and IFFT, and Pad and Unpad read 0.
  util::Table table({"apply", "Pad ms", "FFT ms", "SBGEMV ms", "IFFT ms",
                     "Unpad ms", "total ms"});
  core::PhaseTimings acc{};
  for (index_t r = 0; r < reps; ++r) {
    plan.forward(op, m, d, config);
    acc += plan.last_timings();
  }
  acc *= 1.0 / static_cast<double>(reps);
  auto fmt = [](double s) { return util::Table::fmt(s * 1e3, 4); };
  table.add_row({"F (" + config.to_string() + ")", fmt(acc.pad), fmt(acc.fft),
                 fmt(acc.sbgemv), fmt(acc.ifft), fmt(acc.unpad),
                 fmt(acc.compute_total())});

  core::PhaseTimings adj{};
  for (index_t r = 0; r < reps; ++r) {
    plan.adjoint(op, d, m_back, config);
    adj += plan.last_timings();
  }
  adj *= 1.0 / static_cast<double>(reps);
  table.add_row({"F* (" + config.to_string() + ")", fmt(adj.pad), fmt(adj.fft),
                 fmt(adj.sbgemv), fmt(adj.ifft), fmt(adj.unpad),
                 fmt(adj.compute_total())});
  table.print(std::cout);

  // 4. Accuracy of the mixed-precision result vs the double baseline.
  std::cout << "\nmixed-precision relative error vs double baseline: "
            << util::Table::fmt_sci(blas::relative_l2_error(
                   static_cast<index_t>(d.size()), d.data(), d_double.data()))
            << "\n";

  // 5. The adjoint identity <Fm, d> = <m, F*d> as a sanity check.
  const double lhs = blas::dot<double>(static_cast<index_t>(d.size()), d_double.data(), d.data());
  std::vector<double> mstar(m.size());
  plan.adjoint(op, d, mstar, precision::PrecisionConfig{});
  const double rhs = blas::dot<double>(static_cast<index_t>(m.size()), m.data(), mstar.data());
  std::cout << "adjoint identity <Fm,d> vs <m,F*d>: "
            << util::Table::fmt_sci(std::abs(lhs - rhs) / std::abs(lhs))
            << " relative difference\n";
  return 0;
}
