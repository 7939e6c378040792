// Ablation (§3.1.1/§4.1.1): dispatcher transition points.  Sweeps m
// at fixed n for the transpose SBGEMV and reports where the optimized
// kernel stops out-performing the reference kernel — the data used
// "to set the kernel transition points in the host launcher".  A
// second table does the same for the non-transpose SBGEMV: reference
// vs split-column kernel over short-and-wide shapes and batch counts
// (the FFT matvec's forward GEMV runs N_t + 1 frequency blocks).
#include <complex>
#include <iostream>

#include "bench_common.hpp"
#include "blas/sbgemv.hpp"

using namespace fftmv;

namespace {

/// Non-transpose table.  Both kernels' GB/s divide the same bytes —
/// the reference kernel's matrix and vectors — by their modelled time,
/// so the split kernel's partial sums show as time, not as bandwidth.
template <class T>
void split_sweep(const char* label, fftmv::bench::Artifact& artifact) {
  const device::CostModel model(device::make_mi300x());
  const std::string title = std::string("non-transpose SBGEMV, ") + label + ", MI300X";
  bench::print_header(title);
  util::Table table({"m x n @ batch", "reference GB/s", "split GB/s", "reference us",
                     "split us", "ref/split", "dispatcher picks"});
  for (index_t m : {6, 16, 100}) {
    for (index_t n : {96, 1000, 5000}) {
      for (index_t batch : {41, 129, 1001}) {
        const auto time = [&](blas::GemvKernelKind kind) {
          return model.kernel_time(blas::gemv_geometry(kind, m, n, batch),
                                   blas::gemv_footprint<T>(kind, m, n, batch));
        };
        const auto ref = time(blas::GemvKernelKind::kReferenceN);
        const auto split = time(blas::GemvKernelKind::kSplitN);
        const double bytes =
            blas::gemv_footprint<T>(blas::GemvKernelKind::kReferenceN, m, n, batch)
                .total_bytes();
        table.add_row({std::to_string(m) + "x" + std::to_string(n) + " @ " +
                           std::to_string(batch),
                       util::Table::fmt(bytes / ref.seconds / 1e9, 0),
                       util::Table::fmt(bytes / split.seconds / 1e9, 0),
                       util::Table::fmt(ref.seconds * 1e6, 2),
                       util::Table::fmt(split.seconds * 1e6, 2),
                       util::Table::fmt(ref.seconds / split.seconds, 2) + "x",
                       blas::use_split_columns(m, n) ? "split" : "reference"});
      }
    }
  }
  table.print(std::cout);
  artifact.add(title, table);
}

template <class T>
void sweep(const char* label, index_t n, fftmv::bench::Artifact& artifact) {
  const auto spec = device::make_mi300x();
  const device::CostModel model(spec);
  const std::string title = std::string("transpose SBGEMV, ") + label +
                            ", n = " + std::to_string(n) + ", batch 100, MI300X";
  bench::print_header(title);
  util::Table table({"m", "reference GB/s", "optimized GB/s", "opt/ref",
                     "dispatcher picks"});
  for (index_t m : {32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}) {
    const auto ref = model.kernel_time(
        blas::gemv_geometry(blas::GemvKernelKind::kReferenceT, m, n, 100),
        blas::gemv_footprint<T>(blas::GemvKernelKind::kReferenceT, m, n, 100));
    const auto opt = model.kernel_time(
        blas::gemv_geometry(blas::GemvKernelKind::kOptimizedT, m, n, 100),
        blas::gemv_footprint<T>(blas::GemvKernelKind::kOptimizedT, m, n, 100));
    table.add_row(
        {std::to_string(m), util::Table::fmt(ref.achieved_bandwidth_gbps, 0),
         util::Table::fmt(opt.achieved_bandwidth_gbps, 0),
         util::Table::fmt(ref.seconds / opt.seconds, 2) + "x",
         blas::use_optimized_transpose(m, n) ? "optimized" : "reference"});
  }
  table.print(std::cout);
  artifact.add(title, table);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Artifact artifact("ablation_dispatch", argc, argv);
  bench::reject_unknown_args(argc, argv);
  std::cout << "Dispatcher transition-point ablation: the optimized kernel\n"
               "wins for short-and-wide shapes; the reference kernel catches\n"
               "up once each of its blocks has enough work (m large).\n";
  sweep<float>("real single", 4096, artifact);
  sweep<double>("real double", 4096, artifact);
  sweep<cdouble>("complex double", 4096, artifact);
  sweep<cdouble>("complex double", 512, artifact);
  std::cout << "\nThe split-column kernel fills the device when the reference\n"
               "kernel's one block per 64 rows per batch entry does not; its\n"
               "partial sums cost about 2/32 of the matrix traffic.\n";
  split_sweep<cfloat>("complex single", artifact);
  split_sweep<cdouble>("complex double", artifact);
  if (const auto path = artifact.write(); !path.empty()) {
    std::cout << "wrote artifact " << path << "\n";
  }
  return 0;
}
