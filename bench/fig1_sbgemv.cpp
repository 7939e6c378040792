// Figure 1 reproduction: rocBLAS-style vs optimized (conjugate)
// transpose strided-batched GEMV memory bandwidth on MI300X, for
// short-and-wide matrices across the four datatypes, batch 100.
//
// The paper measures this with rocblas-bench on real hardware; here
// the two kernels' launch geometries and footprints run through the
// simulated device's cost model (device/cost_model.hpp).  Bars are
// reported as achieved GB/s with the % of the 5.3 TB/s peak annotated,
// exactly the quantities of Figure 1.  A numerics cross-check confirms
// both kernels produce the same results on a backed device.
#include <complex>
#include <iostream>

#include "bench_common.hpp"
#include "blas/sbgemv.hpp"
#include "blas/vector_ops.hpp"
#include "util/rng.hpp"

namespace {

using namespace fftmv;

struct Shape {
  index_t m, n;
};

// Figure 1's matrix sizes; the heavier datatypes drop the largest
// shapes just as the paper's panels do.
const Shape kShapesSingle[] = {{128, 4096}, {256, 256},   {256, 8192},
                               {512, 512},  {1024, 1024}, {2048, 2048}};
const Shape kShapesDouble[] = {{128, 4096}, {256, 256}, {256, 8192}, {512, 512}};
const Shape kShapesComplexDouble[] = {{128, 4096}, {256, 256}, {256, 8192}};

constexpr index_t kBatch = 100;

template <class T>
void run_panel(const char* panel, const Shape* shapes, std::size_t count,
               fftmv::bench::Artifact& artifact) {
  const auto spec = device::make_mi300x();
  const device::CostModel model(spec);
  const double peak = spec.peak_bandwidth_gbps;
  const blas::Op op = is_complex_v<T> ? blas::Op::C : blas::Op::T;

  bench::print_header(std::string("Figure 1 — ") + panel + " (" +
                      blas::op_name(op) + " SBGEMV, batch 100, MI300X)");
  util::Table table({"size", "rocBLAS GB/s", "rocBLAS %peak", "optimized GB/s",
                     "optimized %peak", "speedup"});
  for (std::size_t i = 0; i < count; ++i) {
    const auto [m, n] = shapes[i];
    const auto ref = model.kernel_time(
        blas::gemv_geometry(blas::GemvKernelKind::kReferenceT, m, n, kBatch),
        blas::gemv_footprint<T>(blas::GemvKernelKind::kReferenceT, m, n, kBatch));
    const auto opt = model.kernel_time(
        blas::gemv_geometry(blas::GemvKernelKind::kOptimizedT, m, n, kBatch),
        blas::gemv_footprint<T>(blas::GemvKernelKind::kOptimizedT, m, n, kBatch));
    table.add_row({std::to_string(m) + "x" + std::to_string(n),
                   util::Table::fmt(ref.achieved_bandwidth_gbps, 0),
                   util::Table::fmt_pct(ref.achieved_bandwidth_gbps / peak),
                   util::Table::fmt(opt.achieved_bandwidth_gbps, 0),
                   util::Table::fmt_pct(opt.achieved_bandwidth_gbps / peak),
                   util::Table::fmt(ref.seconds / opt.seconds, 2) + "x"});
  }
  table.print(std::cout);
  artifact.add(panel, table);
}

/// Both kernels must agree numerically — the optimization is purely
/// a launch-geometry/vectorisation change (§3.1.1).
template <class T>
void numerics_cross_check() {
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  const index_t m = 64, n = 512, batch = 8;
  util::Rng rng(7);
  std::vector<T> a(static_cast<std::size_t>(m * n * batch));
  std::vector<T> x(static_cast<std::size_t>(m * batch));
  for (auto& v : a) {
    if constexpr (is_complex_v<T>) {
      v = T(static_cast<real_t<T>>(rng.uniform(-1, 1)),
            static_cast<real_t<T>>(rng.uniform(-1, 1)));
    } else {
      v = static_cast<T>(rng.uniform(-1, 1));
    }
  }
  for (auto& v : x) {
    if constexpr (is_complex_v<T>) {
      v = T(static_cast<real_t<T>>(rng.uniform(-1, 1)),
            static_cast<real_t<T>>(rng.uniform(-1, 1)));
    } else {
      v = static_cast<T>(rng.uniform(-1, 1));
    }
  }
  std::vector<T> y_ref(static_cast<std::size_t>(n * batch));
  std::vector<T> y_opt(y_ref.size());

  blas::SbgemvArgs<T> args;
  args.op = is_complex_v<T> ? blas::Op::C : blas::Op::T;
  args.m = m;
  args.n = n;
  args.a = a.data();
  args.lda = m;
  args.stride_a = m * n;
  args.x = x.data();
  args.stride_x = m;
  args.stride_y = n;
  args.batch = batch;
  args.y = y_ref.data();
  blas::sbgemv(stream, args, blas::GemvKernelPolicy::kReference);
  args.y = y_opt.data();
  blas::sbgemv(stream, args, blas::GemvKernelPolicy::kOptimized);
  const double err =
      blas::relative_l2_error(n * batch, y_opt.data(), y_ref.data());
  std::cout << "numerics cross-check (" << (is_complex_v<T> ? "complex " : "")
            << (sizeof(real_t<T>) == 4 ? "single" : "double")
            << "): rel err optimized vs reference = "
            << util::Table::fmt_sci(err) << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  fftmv::bench::Artifact artifact("fig1_sbgemv", argc, argv);
  fftmv::bench::reject_unknown_args(argc, argv);
  std::cout << "Figure 1 — (conjugate) transpose SBGEMV performance, rocBLAS\n"
               "reference kernel vs the paper's optimized short-and-wide\n"
               "kernel, on the simulated MI300X (peak 5.3 TB/s).\n";
  run_panel<float>("Real Single", kShapesSingle, std::size(kShapesSingle), artifact);
  run_panel<double>("Real Double", kShapesDouble, std::size(kShapesDouble), artifact);
  run_panel<fftmv::cfloat>("Complex Single", kShapesDouble,
                           std::size(kShapesDouble), artifact);
  run_panel<fftmv::cdouble>("Complex Double", kShapesComplexDouble,
                            std::size(kShapesComplexDouble), artifact);
  if (const auto path = artifact.write(); !path.empty()) {
    std::cout << "wrote artifact " << path << "\n";
  }
  std::cout << "\n";
  numerics_cross_check<float>();
  numerics_cross_check<double>();
  numerics_cross_check<fftmv::cfloat>();
  numerics_cross_check<fftmv::cdouble>();
  return 0;
}
