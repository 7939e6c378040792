// google-benchmark microbenchmarks of the SBGEMV kernel bodies on the
// host: non-transpose reference vs split-column, transpose-reference
// vs transpose-optimized, and the wavefront-tree vs sequential
// reduction cost.
#include <benchmark/benchmark.h>

#include "blas/sbgemv.hpp"
#include "device/device.hpp"
#include "device/stream.hpp"
#include "util/rng.hpp"

namespace {

using namespace fftmv;

template <class T>
std::vector<T> random_vec(index_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<T> v(static_cast<std::size_t>(n));
  for (auto& x : v) {
    if constexpr (is_complex_v<T>) {
      x = T(static_cast<real_t<T>>(rng.uniform(-1, 1)),
            static_cast<real_t<T>>(rng.uniform(-1, 1)));
    } else {
      x = static_cast<T>(rng.uniform(-1, 1));
    }
  }
  return v;
}

template <class T>
void run_gemv(benchmark::State& state, blas::Op op,
              blas::GemvKernelPolicy policy) {
  const index_t m = state.range(0), n = state.range(1), batch = state.range(2);
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  const auto a = random_vec<T>(m * n * batch, 1);
  const auto x = random_vec<T>((op == blas::Op::N ? n : m) * batch, 2);
  std::vector<T> y(static_cast<std::size_t>((op == blas::Op::N ? m : n) * batch));

  blas::SbgemvArgs<T> args;
  args.op = op;
  args.m = m;
  args.n = n;
  args.a = a.data();
  args.lda = m;
  args.stride_a = m * n;
  args.x = x.data();
  args.stride_x = args.x_len();
  args.y = y.data();
  args.stride_y = args.y_len();
  args.batch = batch;

  for (auto _ : state) {
    blas::sbgemv(stream, args, policy);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * m * n * batch);
}

void BM_GemvN_Double(benchmark::State& state) {
  run_gemv<double>(state, blas::Op::N, blas::GemvKernelPolicy::kReference);
}
void BM_GemvT_Reference_Double(benchmark::State& state) {
  run_gemv<double>(state, blas::Op::T, blas::GemvKernelPolicy::kReference);
}
void BM_GemvT_Optimized_Double(benchmark::State& state) {
  run_gemv<double>(state, blas::Op::T, blas::GemvKernelPolicy::kOptimized);
}
void BM_GemvC_Optimized_ComplexDouble(benchmark::State& state) {
  run_gemv<cdouble>(state, blas::Op::C, blas::GemvKernelPolicy::kOptimized);
}
void BM_GemvN_ComplexFloat(benchmark::State& state) {
  run_gemv<cfloat>(state, blas::Op::N, blas::GemvKernelPolicy::kReference);
}
void BM_GemvN_Split_ComplexFloat(benchmark::State& state) {
  run_gemv<cfloat>(state, blas::Op::N, blas::GemvKernelPolicy::kOptimized);
}

// The paper's Phase-3 shape at reduced scale: short and wide.
BENCHMARK(BM_GemvN_Double)->Args({16, 512, 65});
BENCHMARK(BM_GemvT_Reference_Double)->Args({16, 512, 65});
BENCHMARK(BM_GemvT_Optimized_Double)->Args({16, 512, 65});
BENCHMARK(BM_GemvC_Optimized_ComplexDouble)->Args({16, 512, 65});
BENCHMARK(BM_GemvN_ComplexFloat)->Args({16, 512, 65});
// map_solve's forward GEMV (dssdd: complex single, 16 x 1000, N_t + 1
// = 129 frequency blocks), where the dispatcher splits the columns.
BENCHMARK(BM_GemvN_Split_ComplexFloat)->Args({16, 1000, 129});
// A square shape for contrast.
BENCHMARK(BM_GemvT_Reference_Double)->Args({256, 256, 16});
BENCHMARK(BM_GemvT_Optimized_Double)->Args({256, 256, 16});

}  // namespace
