// Figure 2 reproduction: single-GPU F and F* matvec runtime breakdown
// (Pad / FFT / SBGEMV / IFFT / Unpad) on MI250X (single GCD), MI300X
// and MI355X, at the paper's problem size N_m = 5,000, N_d = 100,
// N_t = 1,000, all phases in double precision.
//
// Times come from paper-scale dry runs through the real pipeline on
// phantom devices (device/device.hpp); a reduced-size backed run on the
// same pipeline verifies numerics alongside.  The fused pipeline
// folds phase 1 (transpose + pad + cast) into the forward FFT's sample
// loads and phase 5 (unpad + cast) into the inverse FFT's sample
// stores, so their time is charged to FFT and IFFT and the Pad and
// Unpad columns read 0; the forward FFT also stores its bins in the
// order the GEMV reads them, so the SBGEMV column is the GEMV alone.
#include <iostream>

#include "bench_common.hpp"
#include "blas/vector_ops.hpp"
#include "core/dense_reference.hpp"

using namespace fftmv;

int main(int argc, char** argv) {
  bench::Artifact artifact("fig2_breakdown", argc, argv);
  bench::reject_unknown_args(argc, argv);
  const auto dims = bench::paper_dims();
  std::cout << "Figure 2 — runtime breakdown of the F and F* matvecs,\n"
            << "N_m=" << dims.n_m << " N_d=" << dims.n_d << " N_t=" << dims.n_t
            << ", double precision.\n";

  for (const auto& spec : bench::paper_devices()) {
    bench::print_header(spec.name + " (peak " +
                        util::Table::fmt(spec.peak_bandwidth_gbps / 1000.0, 1) +
                        " TB/s)");
    util::Table table({"matvec", "Pad ms", "FFT ms", "SBGEMV ms", "IFFT ms",
                       "Unpad ms", "total ms", "SBGEMV share"});
    for (bool adjoint : {false, true}) {
      const auto t = bench::phantom_phase_times(spec, dims,
                                                precision::PrecisionConfig{},
                                                adjoint);
      table.add_row({adjoint ? "F*" : "F", bench::ms(t.pad), bench::ms(t.fft),
                     bench::ms(t.sbgemv), bench::ms(t.ifft), bench::ms(t.unpad),
                     bench::ms(t.compute_total()),
                     util::Table::fmt_pct(t.sbgemv / t.compute_total())});
    }
    table.print(std::cout);
    artifact.add(spec.name, table);
  }

  // Numerics sanity at reduced scale: the same pipeline, backed.
  {
    const auto rdims = bench::reduced_dims();
    device::Device dev(device::make_mi300x());
    device::Stream stream(dev);
    const auto local = core::LocalDims::single_rank(rdims);
    const auto col = core::make_first_block_col(local, 1);
    const auto m = core::make_input_vector(rdims.n_t * rdims.n_m, 2);
    core::BlockToeplitzOperator op(dev, stream, local, col);
    core::FftMatvecPlan plan(dev, stream, local);
    std::vector<double> d(static_cast<std::size_t>(rdims.n_t * rdims.n_d));
    plan.forward(op, m, d, precision::PrecisionConfig{});
    std::vector<double> d_dense(d.size());
    core::dense_forward(local, col, m, d_dense);
    std::cout << "\nnumerics check at reduced scale (N_m=" << rdims.n_m
              << ", N_d=" << rdims.n_d << ", N_t=" << rdims.n_t
              << "): FFT-matvec vs dense rel err = "
              << util::Table::fmt_sci(blas::relative_l2_error(
                     static_cast<index_t>(d.size()), d.data(), d_dense.data()))
              << "\n";
  }
  if (const auto path = artifact.write(); !path.empty()) {
    std::cout << "wrote artifact " << path << "\n";
  }
  return 0;
}
