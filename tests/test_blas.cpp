// SBGEMV and permutation kernel tests: all four datatypes x all ops x
// both kernels against a widened-accumulation host reference, the
// dispatcher's transition behaviour, bandwidth ordering from the cost
// model (the Figure-1 mechanism), and the grid-limit-safe batched
// transpose.
#include <gtest/gtest.h>

#include <complex>
#include <limits>
#include <memory>
#include <span>
#include <tuple>

#include "blas/gemv_kernels.hpp"
#include "blas/permute.hpp"
#include "blas/sbgemv.hpp"
#include "blas/sbgemv_half.hpp"
#include "blas/vector_ops.hpp"
#include "precision/half.hpp"
#include "device/device.hpp"
#include "device/stream.hpp"
#include "util/rng.hpp"

namespace fftmv::blas {
namespace {

template <class T>
T random_scalar(util::Rng& rng) {
  if constexpr (is_complex_v<T>) {
    using R = real_t<T>;
    return T(static_cast<R>(rng.uniform(-1, 1)), static_cast<R>(rng.uniform(-1, 1)));
  } else {
    return static_cast<T>(rng.uniform(-1, 1));
  }
}

template <class T>
std::vector<T> random_vec(index_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<T> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = random_scalar<T>(rng);
  return v;
}

/// Host-side transpose: the correctness reference for
/// transpose_batched, with the same source strides.
template <class T>
void transpose_batched_host(const T* src, index_t src_ld, index_t src_stride,
                            T* dst, index_t batch, index_t rows, index_t cols) {
  for (index_t b = 0; b < batch; ++b) {
    const T* s = src + b * src_stride;
    T* d = dst + b * rows * cols;
    for (index_t r = 0; r < rows; ++r) {
      for (index_t c = 0; c < cols; ++c) d[c * rows + r] = s[r * src_ld + c];
    }
  }
}

template <class T>
double tolerance(index_t reduction_len) {
  const double eps = sizeof(real_t<T>) == 4 ? kEpsSingle : kEpsDouble;
  return 16.0 * eps * std::sqrt(static_cast<double>(reduction_len));
}

struct Shape {
  index_t m, n, batch;
};

template <class T>
void check_kernel_against_reference(Op op, GemvKernelPolicy policy,
                                    const Shape& shape) {
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);

  const index_t lda = shape.m + 2;  // exercise lda > m
  const index_t stride_a = lda * shape.n + 5;
  const auto a = random_vec<T>(stride_a * shape.batch, 11);

  SbgemvArgs<T> args;
  args.op = op;
  args.m = shape.m;
  args.n = shape.n;
  args.a = a.data();
  args.lda = lda;
  args.stride_a = stride_a;
  args.batch = shape.batch;

  const index_t xlen = args.x_len(), ylen = args.y_len();
  const auto x = random_vec<T>(xlen * shape.batch, 13);
  auto y = random_vec<T>(ylen * shape.batch, 17);
  auto y_ref = y;

  util::Rng rng(23);
  args.alpha = random_scalar<T>(rng);
  args.beta = random_scalar<T>(rng);
  args.x = x.data();
  args.stride_x = xlen;
  args.stride_y = ylen;

  args.y = y.data();
  sbgemv(stream, args, policy);
  args.y = y_ref.data();
  sbgemv_host_reference(args);

  const double tol = tolerance<T>(op == Op::N ? shape.n : shape.m);
  EXPECT_LT(relative_l2_error(ylen * shape.batch, y.data(), y_ref.data()), tol)
      << "op=" << op_name(op) << " m=" << shape.m << " n=" << shape.n;
}

using GemvCase = std::tuple<int /*op*/, int /*policy*/, int /*shape*/>;

// The last five put the split non-transpose's edges under every op
// and policy: n one column short of, at and past one 32-column tile
// and at three, m at one full 64-row chunk and one row past it.
const Shape kShapes[] = {
    {1, 1, 1}, {4, 7, 3}, {13, 64, 2}, {64, 13, 2}, {100, 100, 4},
    {17, 512, 5}, {128, 96, 1}, {3, 1000, 2}, {1, 31, 3}, {64, 32, 2},
    {6, 33, 3}, {16, 96, 3}, {65, 1000, 2},
};

class GemvAllTypes : public ::testing::TestWithParam<GemvCase> {};

TEST_P(GemvAllTypes, Float) {
  const auto [op, policy, shape] = GetParam();
  check_kernel_against_reference<float>(static_cast<Op>(op),
                                        static_cast<GemvKernelPolicy>(policy),
                                        kShapes[shape]);
}

TEST_P(GemvAllTypes, Double) {
  const auto [op, policy, shape] = GetParam();
  check_kernel_against_reference<double>(static_cast<Op>(op),
                                         static_cast<GemvKernelPolicy>(policy),
                                         kShapes[shape]);
}

TEST_P(GemvAllTypes, ComplexFloat) {
  const auto [op, policy, shape] = GetParam();
  check_kernel_against_reference<cfloat>(static_cast<Op>(op),
                                         static_cast<GemvKernelPolicy>(policy),
                                         kShapes[shape]);
}

TEST_P(GemvAllTypes, ComplexDouble) {
  const auto [op, policy, shape] = GetParam();
  check_kernel_against_reference<cdouble>(static_cast<Op>(op),
                                          static_cast<GemvKernelPolicy>(policy),
                                          kShapes[shape]);
}

std::string gemv_case_name(const ::testing::TestParamInfo<GemvCase>& info) {
  static const char* const ops[] = {"N", "T", "C"};
  static const char* const pol[] = {"Auto", "Ref", "Opt"};
  return std::string(ops[std::get<0>(info.param)]) +
         pol[std::get<1>(info.param)] + "S" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    OpsPoliciesShapes, GemvAllTypes,
    ::testing::Combine(::testing::Values(0, 1, 2),   // N, T, C
                       ::testing::Values(0, 1, 2),   // Auto, Ref, Opt
                       ::testing::Range(0, 13)),     // shapes
    gemv_case_name);

TEST(Gemv, RealTransposeEqualsConjTranspose) {
  // For real datatypes T and C must agree exactly.
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  const Shape s{16, 40, 3};
  const auto a = random_vec<double>(s.m * s.n * s.batch, 1);
  const auto x = random_vec<double>(s.m * s.batch, 2);
  std::vector<double> y_t(static_cast<std::size_t>(s.n * s.batch));
  std::vector<double> y_c(y_t.size());
  SbgemvArgs<double> args;
  args.m = s.m;
  args.n = s.n;
  args.a = a.data();
  args.lda = s.m;
  args.stride_a = s.m * s.n;
  args.x = x.data();
  args.stride_x = s.m;
  args.stride_y = s.n;
  args.batch = s.batch;
  args.op = Op::T;
  args.y = y_t.data();
  sbgemv(stream, args, GemvKernelPolicy::kOptimized);
  args.op = Op::C;
  args.y = y_c.data();
  sbgemv(stream, args, GemvKernelPolicy::kOptimized);
  EXPECT_EQ(y_t, y_c);
}

// ----------------------------------------------------- multi-RHS GEMV
/// A one-group multi-RHS grouped call must be bit-identical to nrhs
/// independent sbgemv calls: same kernel bodies, same per-(batch,
/// RHS) summation order.
template <class T>
void check_multi_matches_independent(Op op, GemvKernelPolicy policy) {
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  const index_t m = 24, n = 96, batch = 5, nrhs = 3;
  const index_t xlen = op == Op::N ? n : m;
  const index_t ylen = op == Op::N ? m : n;

  const auto a = random_vec<T>(m * n * batch, 31);
  const auto x = random_vec<T>(batch * nrhs * xlen, 37);
  auto y_multi = random_vec<T>(batch * nrhs * ylen, 41);
  auto y_indep = y_multi;

  SbgemvGroupedArgs<T> ga;
  ga.base.op = op;
  ga.base.m = m;
  ga.base.n = n;
  ga.base.a = a.data();
  ga.base.lda = m;
  ga.base.stride_a = m * n;
  ga.base.x = x.data();
  ga.base.stride_x = nrhs * xlen;
  ga.base.y = y_multi.data();
  ga.base.stride_y = nrhs * ylen;
  ga.base.batch = batch;
  util::Rng rng(43);
  ga.base.alpha = random_scalar<T>(rng);
  ga.base.beta = random_scalar<T>(rng);
  ga.rhs_stride_x = xlen;
  ga.rhs_stride_y = ylen;
  const SbgemvGroup<T> one[] = {{a.data(), nrhs}};
  ga.groups = one;
  sbgemv_grouped(stream, ga, policy);

  for (index_t r = 0; r < nrhs; ++r) {
    SbgemvArgs<T> args = ga.base;
    args.x = x.data() + r * xlen;
    args.y = y_indep.data() + r * ylen;
    sbgemv(stream, args, policy);
  }
  EXPECT_EQ(y_multi, y_indep) << "op=" << op_name(op);
}

/// The kernel kind kAuto runs for the N cases of the multi-RHS and
/// grouped checks below (24 x 96): the split-column kernel, K = 3.
void expect_auto_n_cases_split() {
  const SbgemvArgs<double> n_case{.op = Op::N, .m = 24, .n = 96};
  ASSERT_EQ(select_kernel(n_case, GemvKernelPolicy::kAuto), GemvKernelKind::kSplitN);
  ASSERT_EQ(gemv_split_tiles(GemvKernelKind::kSplitN, n_case.n), 3);
}

TEST(GemvMulti, MatchesIndependentCallsAllKernels) {
  for (auto policy : {GemvKernelPolicy::kReference, GemvKernelPolicy::kOptimized}) {
    check_multi_matches_independent<double>(Op::T, policy);
    check_multi_matches_independent<cdouble>(Op::C, policy);
    check_multi_matches_independent<cfloat>(Op::C, policy);
  }
  expect_auto_n_cases_split();
  check_multi_matches_independent<double>(Op::N, GemvKernelPolicy::kAuto);
  check_multi_matches_independent<cfloat>(Op::N, GemvKernelPolicy::kAuto);
}

TEST(GemvMulti, SingleRhsDegeneratesToSbgemv) {
  check_multi_matches_independent<double>(Op::T, GemvKernelPolicy::kAuto);
}

TEST(GemvMulti, AmortisesMatrixTrafficInTheModel) {
  // The multi footprint pays the matrix once per batch entry: for a
  // memory-bound shape the modelled time of nrhs=8 must be far below
  // 8x the single-RHS time.
  const index_t m = 100, n = 5000, batch = 100, nrhs = 8;
  const device::CostModel model(device::make_mi300x());
  const auto geom = gemv_geometry(GemvKernelKind::kOptimizedT, m, n, batch);
  const double t1 =
      model.kernel_time(geom, gemv_footprint<cfloat>(GemvKernelKind::kOptimizedT,
                                                     m, n, batch)).seconds;
  const double t8 =
      model
          .kernel_time(geom, gemv_multi_footprint<cfloat>(
                                 GemvKernelKind::kOptimizedT, m, n, batch, nrhs))
          .seconds;
  EXPECT_LT(t8, 2.0 * t1);  // ~1x matrix + 8x vectors, not 8x total
  EXPECT_GT(t8, t1);        // but strictly more than one RHS
}

TEST(GemvMulti, ValidationErrors) {
  // The multi-RHS layout rules, exercised through one-group grouped
  // calls.
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  std::vector<double> a(64), x(64), y(64);
  SbgemvGroupedArgs<double> ga;
  ga.base.op = Op::T;
  ga.base.m = 4;
  ga.base.n = 4;
  ga.base.lda = 4;
  ga.base.stride_a = 16;
  ga.base.x = x.data();
  ga.base.stride_x = 8;
  ga.base.y = y.data();
  ga.base.stride_y = 8;
  ga.base.batch = 2;
  SbgemvGroup<double> one[] = {{a.data(), 0}};
  ga.groups = one;
  EXPECT_THROW(sbgemv_grouped(stream, ga), std::invalid_argument);
  one[0].nrhs = 2;
  ga.rhs_stride_x = 2;  // < x_len
  ga.rhs_stride_y = 4;
  EXPECT_THROW(sbgemv_grouped(stream, ga), std::invalid_argument);
  // Cross-batch aliasing: batch entry 0's RHS 1 would share memory
  // with entry 1's RHS 0 (stride_y sized for a single RHS).
  ga.rhs_stride_x = 4;
  ga.rhs_stride_y = 4;
  ga.base.stride_x = 4;
  ga.base.stride_y = 4;
  EXPECT_THROW(sbgemv_grouped(stream, ga), std::invalid_argument);
  // Batch-inner layouts (rhs stride spans the whole batch) are legal.
  ga.base.stride_y = 4;
  ga.rhs_stride_y = 2 * 4;  // (batch-1)*stride_y + y_len
  ga.base.stride_x = 4;
  ga.rhs_stride_x = 2 * 4;
  EXPECT_NO_THROW(sbgemv_grouped(stream, ga));
}

// --------------------------------------------------- grouped GEMV
/// sbgemv_grouped must be bit-identical to one single-group call per
/// group: same kernel bodies, same per-(batch, group, RHS) summation
/// order.  Groups are ragged (3 + 1 + 2) and each carries its own
/// matrix.
template <class T>
void check_grouped_matches_per_group_multi(Op op, GemvKernelPolicy policy) {
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  const index_t m = 24, n = 96, batch = 5;
  const std::vector<index_t> group_sizes{3, 1, 2};
  const index_t nrhs = 6;
  const index_t xlen = op == Op::N ? n : m;
  const index_t ylen = op == Op::N ? m : n;

  std::vector<std::vector<T>> mats;
  for (std::size_t g = 0; g < group_sizes.size(); ++g) {
    mats.push_back(random_vec<T>(m * n * batch, 61 + static_cast<std::uint64_t>(g)));
  }
  const auto x = random_vec<T>(batch * nrhs * xlen, 67);
  auto y_grouped = random_vec<T>(batch * nrhs * ylen, 71);
  auto y_per_group = y_grouped;

  SbgemvGroupedArgs<T> ga;
  ga.base.op = op;
  ga.base.m = m;
  ga.base.n = n;
  ga.base.lda = m;
  ga.base.stride_a = m * n;
  ga.base.x = x.data();
  ga.base.stride_x = nrhs * xlen;
  ga.base.y = y_grouped.data();
  ga.base.stride_y = nrhs * ylen;
  ga.base.batch = batch;
  util::Rng rng(73);
  ga.base.alpha = random_scalar<T>(rng);
  ga.base.beta = random_scalar<T>(rng);
  ga.rhs_stride_x = xlen;
  ga.rhs_stride_y = ylen;
  std::vector<SbgemvGroup<T>> groups;
  for (std::size_t g = 0; g < group_sizes.size(); ++g) {
    groups.push_back({mats[g].data(), group_sizes[g]});
  }
  ga.groups = groups;
  sbgemv_grouped(stream, ga, policy);

  index_t r0 = 0;
  for (std::size_t g = 0; g < group_sizes.size(); ++g) {
    SbgemvGroupedArgs<T> single = ga;
    single.base.x = x.data() + r0 * xlen;
    single.base.y = y_per_group.data() + r0 * ylen;
    const SbgemvGroup<T> one[] = {{mats[g].data(), group_sizes[g]}};
    single.groups = one;
    sbgemv_grouped(stream, single, policy);
    r0 += group_sizes[g];
  }
  EXPECT_EQ(y_grouped, y_per_group) << "op=" << op_name(op);
}

TEST(GemvGrouped, MatchesPerGroupMultiCallsAllKernels) {
  for (auto policy : {GemvKernelPolicy::kReference, GemvKernelPolicy::kOptimized}) {
    check_grouped_matches_per_group_multi<double>(Op::T, policy);
    check_grouped_matches_per_group_multi<cdouble>(Op::C, policy);
    check_grouped_matches_per_group_multi<cfloat>(Op::C, policy);
  }
  expect_auto_n_cases_split();
  check_grouped_matches_per_group_multi<double>(Op::N, GemvKernelPolicy::kAuto);
  check_grouped_matches_per_group_multi<cfloat>(Op::N, GemvKernelPolicy::kAuto);
}

TEST(GemvGrouped, SingleGroupIsExactlySbgemvMulti) {
  // One group is the flat multi-RHS GEMV: results bit-identical to
  // independent single-RHS calls AND the modelled kernel time of
  // gemv_multi_footprint.
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  const index_t m = 32, n = 64, batch = 4, nrhs = 3;
  const auto a = random_vec<cfloat>(m * n * batch, 81);
  const auto x = random_vec<cfloat>(batch * nrhs * m, 83);
  std::vector<cfloat> y_grouped(static_cast<std::size_t>(batch * nrhs * n));
  auto y_multi = y_grouped;

  SbgemvGroupedArgs<cfloat> ga;
  ga.base.op = Op::C;
  ga.base.m = m;
  ga.base.n = n;
  ga.base.a = nullptr;  // ignored: the group carries the matrix
  ga.base.lda = m;
  ga.base.stride_a = m * n;
  ga.base.x = x.data();
  ga.base.stride_x = nrhs * m;
  ga.base.y = y_grouped.data();
  ga.base.stride_y = nrhs * n;
  ga.base.batch = batch;
  ga.rhs_stride_x = m;
  ga.rhs_stride_y = n;
  const SbgemvGroup<cfloat> one[] = {{a.data(), nrhs}};
  ga.groups = one;
  const auto t_grouped = sbgemv_grouped(stream, ga);

  for (index_t r = 0; r < nrhs; ++r) {
    SbgemvArgs<cfloat> args = ga.base;
    args.a = a.data();
    args.x = x.data() + r * m;
    args.y = y_multi.data() + r * n;
    sbgemv(stream, args);
  }
  const auto kind = select_kernel(ga.base, GemvKernelPolicy::kAuto);
  const double t_multi =
      dev.cost_model()
          .kernel_time(gemv_geometry(kind, m, n, batch),
                       gemv_multi_footprint<cfloat>(kind, m, n, batch, nrhs))
          .seconds;

  EXPECT_EQ(y_grouped, y_multi);
  EXPECT_DOUBLE_EQ(t_grouped.seconds, t_multi);
}

TEST(GemvGrouped, GroupedLaunchBeatsPerGroupLaunchesInTheModel) {
  // One grouped launch pays every group's matrix once but the launch
  // overhead once total: its modelled time must sit strictly between
  // the single-operator multi call (less matrix traffic) and the sum
  // of per-group multi calls (same traffic, G launch overheads).
  const index_t m = 100, n = 5000, batch = 100, nrhs = 8, groups = 4;
  const device::CostModel model(device::make_mi300x());
  const auto geom = gemv_geometry(GemvKernelKind::kOptimizedT, m, n, batch);
  const double t_single_op =
      model.kernel_time(geom, gemv_multi_footprint<cfloat>(
                                  GemvKernelKind::kOptimizedT, m, n, batch, nrhs))
          .seconds;
  const double t_grouped =
      model.kernel_time(geom, gemv_grouped_footprint<cfloat>(
                                  GemvKernelKind::kOptimizedT, m, n, batch,
                                  groups, nrhs))
          .seconds;
  const double t_per_group =
      static_cast<double>(groups) *
      model.kernel_time(geom, gemv_multi_footprint<cfloat>(
                                  GemvKernelKind::kOptimizedT, m, n, batch,
                                  nrhs / groups))
          .seconds;
  EXPECT_GT(t_grouped, t_single_op);
  EXPECT_LT(t_grouped, t_per_group);
}

TEST(GemvGrouped, ValidationErrors) {
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  std::vector<double> a(64), x(64), y(64);
  SbgemvGroupedArgs<double> ga;
  ga.base.op = Op::T;
  ga.base.m = 4;
  ga.base.n = 4;
  ga.base.lda = 4;
  ga.base.stride_a = 16;
  ga.base.x = x.data();
  ga.base.stride_x = 8;
  ga.base.y = y.data();
  ga.base.stride_y = 8;
  ga.base.batch = 2;
  ga.rhs_stride_x = 4;
  ga.rhs_stride_y = 4;
  // No groups.
  EXPECT_THROW(sbgemv_grouped(stream, ga), std::invalid_argument);
  // Null group matrix.
  const SbgemvGroup<double> null_mat[] = {{nullptr, 2}};
  ga.groups = null_mat;
  EXPECT_THROW(sbgemv_grouped(stream, ga), std::invalid_argument);
  // Non-positive group count.
  const SbgemvGroup<double> zero[] = {{a.data(), 0}};
  ga.groups = zero;
  EXPECT_THROW(sbgemv_grouped(stream, ga), std::invalid_argument);
  // The flat multi-RHS stride rules still apply across groups.
  const SbgemvGroup<double> two[] = {{a.data(), 1}, {a.data(), 1}};
  ga.groups = two;
  ga.rhs_stride_y = 2;  // < y_len
  EXPECT_THROW(sbgemv_grouped(stream, ga), std::invalid_argument);
  ga.rhs_stride_y = 4;
  EXPECT_NO_THROW(sbgemv_grouped(stream, ga));
}

// ------------------------------------------ split-column non-transpose
/// A one-group multi-RHS non-transpose launch of the given policy into
/// a fresh y (alpha and beta random, so the fold's epilogue runs).
template <class T>
std::vector<T> launch_n(device::Device& dev, index_t m, index_t n, index_t batch,
                        index_t nrhs, GemvKernelPolicy policy,
                        device::KernelTiming* timing = nullptr) {
  device::Stream stream(dev);
  const auto a = random_vec<T>(m * n * batch, 301);
  const auto x = random_vec<T>(batch * nrhs * n, 307);
  auto y = random_vec<T>(batch * nrhs * m, 311);
  SbgemvGroupedArgs<T> ga;
  ga.base.op = Op::N;
  ga.base.m = m;
  ga.base.n = n;
  ga.base.lda = m;
  ga.base.stride_a = m * n;
  ga.base.x = x.data();
  ga.base.stride_x = nrhs * n;
  ga.base.y = y.data();
  ga.base.stride_y = nrhs * m;
  ga.base.batch = batch;
  util::Rng rng(313);
  ga.base.alpha = random_scalar<T>(rng);
  ga.base.beta = random_scalar<T>(rng);
  ga.rhs_stride_x = n;
  ga.rhs_stride_y = m;
  const SbgemvGroup<T> one[] = {{a.data(), nrhs}};
  ga.groups = one;
  const auto t = sbgemv_grouped(stream, ga, policy);
  if (timing != nullptr) *timing = t;
  return y;
}

TEST(GemvSplit, OneTileIsTheReferenceKernelBitForBit) {
  // K = 1 (n <= 32): same geometry, footprint, modelled time and bits,
  // and no workspace.
  device::Device dev(device::make_mi300x());
  for (const index_t n : {1, 17, 32}) {
    for (const index_t m : {6, 65}) {
      device::KernelTiming t_ref, t_split;
      const auto y_ref =
          launch_n<cdouble>(dev, m, n, 3, 2, GemvKernelPolicy::kReference, &t_ref);
      const auto y_split =
          launch_n<cdouble>(dev, m, n, 3, 2, GemvKernelPolicy::kOptimized, &t_split);
      EXPECT_EQ(y_ref, y_split) << m << "x" << n;
      EXPECT_EQ(t_ref.seconds, t_split.seconds) << m << "x" << n;
      ASSERT_EQ(gemv_split_tiles(GemvKernelKind::kSplitN, n), 1);
      const auto g_ref = gemv_geometry(GemvKernelKind::kReferenceN, m, n, 3);
      const auto g_split = gemv_geometry(GemvKernelKind::kSplitN, m, n, 3);
      EXPECT_EQ(g_ref.grid_x, g_split.grid_x);
      EXPECT_EQ(g_ref.grid_y, g_split.grid_y);
      EXPECT_EQ(g_ref.grid_z, g_split.grid_z);
      EXPECT_EQ(g_ref.block_threads, g_split.block_threads);
      const auto f_ref =
          gemv_multi_footprint<cdouble>(GemvKernelKind::kReferenceN, m, n, 3, 2);
      const auto f_split =
          gemv_multi_footprint<cdouble>(GemvKernelKind::kSplitN, m, n, 3, 2);
      EXPECT_EQ(f_ref.bytes_read, f_split.bytes_read);
      EXPECT_EQ(f_ref.bytes_written, f_split.bytes_written);
      EXPECT_EQ(f_ref.flops, f_split.flops);
      EXPECT_EQ(f_ref.vector_load_bytes, f_split.vector_load_bytes);
      EXPECT_EQ(f_ref.coalescing_efficiency, f_split.coalescing_efficiency);
      EXPECT_EQ(f_ref.residency_weight, f_split.residency_weight);
    }
  }
  // With K > 1 the footprint adds exactly the partials' write and read.
  const auto f_ref =
      gemv_multi_footprint<cfloat>(GemvKernelKind::kReferenceN, 16, 1000, 129, 2);
  const auto f_split =
      gemv_multi_footprint<cfloat>(GemvKernelKind::kSplitN, 16, 1000, 129, 2);
  const double partials = 32.0 * 16 * 129 * 2 * sizeof(cfloat);
  EXPECT_EQ(f_split.bytes_read - f_ref.bytes_read, partials);
  EXPECT_EQ(f_split.bytes_written - f_ref.bytes_written, partials);
  EXPECT_EQ(f_split.flops, f_ref.flops);
}

TEST(GemvSplit, OutputsDoNotDependOnPoolWidth) {
  // map_solve's forward shape, 32 column tiles x 129 batch entries:
  // whichever block of an entry finishes last folds the partials in
  // tile order, so the pool's width cannot change a bit.  One worker
  // always finishes tile 31 last; wider pools finish the tiles in
  // varying order (a fold that added the last block's own tile last
  // differed here on every multi-worker launch), so each width runs
  // three launches.
  std::vector<cdouble> expect;
  for (const unsigned width : {1u, 2u, 3u, 8u}) {
    util::ThreadPool pool(width);
    device::Device dev(device::make_mi300x(), &pool);
    for (int launch = 0; launch < (width == 1 ? 1 : 3); ++launch) {
      const auto y = launch_n<cdouble>(dev, 16, 1000, 129, 2, GemvKernelPolicy::kAuto);
      if (width == 1) {
        expect = y;
      } else {
        EXPECT_EQ(y, expect) << width << " workers, launch " << launch;
      }
    }
  }
}

TEST(GemvSplit, ChecksumDotsRunOncePerBatchEntryAndCatchAFlip) {
  // A verified split launch (6 x 100, K = 4) leaves its outputs
  // bit-identical to an unverified one and writes every batch entry's
  // checksum dots exactly as one serial pass computes them: only the
  // entry's (0, 0) block runs them (K blocks per entry would race on
  // the same outputs, which the ThreadSanitizer job reports).  An
  // injected output flip then trips the compare.
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  const index_t m = 6, n = 100, batch = 3, nrhs = 2;
  const auto a = random_vec<cdouble>(batch * m * n, 401);
  const auto x = random_vec<cdouble>(batch * nrhs * n, 403);
  // Op N: each batch entry's column sums are its checksum row.
  std::vector<cdouble> checksum(static_cast<std::size_t>(batch * n));
  for (index_t bz = 0; bz < batch; ++bz) {
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = 0; i < m; ++i) {
        checksum[static_cast<std::size_t>(bz * n + j)] +=
            a[static_cast<std::size_t>(bz * m * n + j * m + i)];
      }
    }
  }
  std::vector<cdouble> y(static_cast<std::size_t>(batch * nrhs * m));
  auto y_plain = y;
  SbgemvGroupedArgs<cdouble> args;
  args.base.op = Op::N;
  args.base.m = m;
  args.base.n = n;
  args.base.lda = m;
  args.base.stride_a = m * n;
  args.base.x = x.data();
  args.base.stride_x = nrhs * n;
  args.base.stride_y = nrhs * m;
  args.base.batch = batch;
  args.rhs_stride_x = n;
  args.rhs_stride_y = m;
  const SbgemvGroup<cdouble> group{a.data(), nrhs, checksum.data()};
  args.groups = {&group, 1};
  ASSERT_EQ(select_kernel(args.base, GemvKernelPolicy::kAuto), GemvKernelKind::kSplitN);
  args.base.y = y_plain.data();
  sbgemv_grouped(stream, args);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<cdouble> dots(static_cast<std::size_t>(batch * nrhs), {nan, nan});
  std::vector<double> scales(dots.size(), nan);
  SbgemvVerify<cdouble> verify;
  verify.enabled = true;
  verify.checksum_out = dots.data();
  verify.scale_out = scales.data();
  verify.tolerance = 1e-12;
  args.base.y = y.data();
  sbgemv_grouped(stream, args, GemvKernelPolicy::kAuto, verify);
  EXPECT_EQ(y, y_plain);
  for (index_t bz = 0; bz < batch; ++bz) {
    for (index_t r = 0; r < nrhs; ++r) {
      cdouble dot{};
      double scale = 0.0;
      for (index_t j = 0; j < n; ++j) {
        const cdouble term = checksum[static_cast<std::size_t>(bz * n + j)] *
                             x[static_cast<std::size_t>(bz * nrhs * n + r * n + j)];
        dot += term;
        scale += std::abs(term);
      }
      EXPECT_EQ(dots[static_cast<std::size_t>(bz + batch * r)], dot) << bz << "," << r;
      EXPECT_EQ(scales[static_cast<std::size_t>(bz + batch * r)], scale) << bz << "," << r;
    }
  }
  const auto compare = [&] {
    GemvVerifyFailure fail;
    for (index_t bz = 0; bz < batch; ++bz) gemv_grouped_verify_block(args, verify, &fail, bz);
    return fail.count;
  };
  EXPECT_EQ(compare(), 0);

  auto faults = std::make_shared<device::FaultPlan>();
  faults->fail_buffer_writes(0, 1);
  dev.set_fault_plan(faults);
  sbgemv_grouped(stream, args, GemvKernelPolicy::kAuto, verify);
  dev.set_fault_plan(nullptr);
  EXPECT_EQ(faults->stats().buffer_faults, 1u);
  EXPECT_EQ(compare(), 1);
}

TEST(GemvSplit, WorkspaceIsTheCallersOrOneAllocatedForTheCall) {
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  const index_t m = 16, n = 100, batch = 4;
  const auto a = random_vec<cfloat>(m * n * batch, 501);
  const auto x = random_vec<cfloat>(n * batch, 503);
  std::vector<cfloat> y_own(static_cast<std::size_t>(m * batch)), y_given(y_own.size());
  SbgemvArgs<cfloat> args;
  args.op = Op::N;
  args.m = m;
  args.n = n;
  args.a = a.data();
  args.lda = m;
  args.stride_a = m * n;
  args.x = x.data();
  args.stride_x = n;
  args.stride_y = m;
  args.batch = batch;
  const SbgemvGroup<cfloat> one[] = {{a.data(), 1}};
  const SbgemvGroupedArgs<cfloat> ga{args, 0, 0, one};
  const index_t need = gemv_workspace_size(GemvKernelKind::kSplitN, ga);
  EXPECT_EQ(need, 4 * m * batch);  // K = 4 tiles shaped like y

  // A zero-rate fault plan counts allocations and injects nothing.
  auto faults = std::make_shared<device::FaultPlan>();
  dev.set_fault_plan(faults);
  const index_t used = dev.memory_used();
  args.y = y_own.data();
  sbgemv(stream, args);
  EXPECT_EQ(faults->stats().allocs, 1u);
  EXPECT_EQ(dev.memory_used(), used);  // freed when the call returns

  std::vector<cfloat> workspace(static_cast<std::size_t>(need));
  SbgemvGroupedArgs<cfloat> given = ga;
  given.base.y = y_given.data();
  sbgemv_grouped(stream, given, GemvKernelPolicy::kAuto, {}, std::span<cfloat>(workspace));
  EXPECT_EQ(faults->stats().allocs, 1u);
  EXPECT_EQ(y_own, y_given);
  dev.set_fault_plan(nullptr);

  EXPECT_THROW(sbgemv_grouped(stream, given, GemvKernelPolicy::kAuto, {},
                              std::span<cfloat>(workspace).first(need - 1)),
               std::invalid_argument);
}

TEST(GemvHalfMulti, MatchesIndependentHalfCalls) {
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  const index_t m = 32, n = 48, batch = 3, nrhs = 4;
  util::Rng rng(53);
  std::vector<precision::half> a(static_cast<std::size_t>(m * n * batch));
  std::vector<precision::half> x(static_cast<std::size_t>(batch * nrhs * m));
  for (auto& v : a) v = precision::half(static_cast<float>(rng.uniform(-1, 1)));
  for (auto& v : x) v = precision::half(static_cast<float>(rng.uniform(-1, 1)));
  std::vector<precision::half> y_multi(static_cast<std::size_t>(batch * nrhs * n),
                                       precision::half(0.0f));
  auto y_indep = y_multi;

  SbgemvHalfArgs ha;
  ha.m = m;
  ha.n = n;
  ha.a = a.data();
  ha.lda = m;
  ha.stride_a = m * n;
  ha.x = x.data();
  ha.stride_x = nrhs * m;
  ha.y = y_multi.data();
  ha.stride_y = nrhs * n;
  ha.batch = batch;
  ha.nrhs = nrhs;
  ha.rhs_stride_x = m;
  ha.rhs_stride_y = n;
  sbgemv_half_optimized(stream, ha);

  for (index_t r = 0; r < nrhs; ++r) {
    SbgemvHalfArgs single = ha;
    single.nrhs = 1;
    single.rhs_stride_x = 0;
    single.rhs_stride_y = 0;
    single.x = x.data() + r * m;
    single.y = y_indep.data() + r * n;
    sbgemv_half_optimized(stream, single);
  }
  for (std::size_t i = 0; i < y_multi.size(); ++i) {
    EXPECT_EQ(static_cast<float>(y_multi[i]), static_cast<float>(y_indep[i]));
  }
}

TEST(Gemv, ValidationErrors) {
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  std::vector<double> a(100), x(10), y(10);
  SbgemvArgs<double> args;
  args.m = 10;
  args.n = 10;
  args.a = a.data();
  args.lda = 5;  // lda < m
  args.stride_a = 100;
  args.x = x.data();
  args.y = y.data();
  EXPECT_THROW(sbgemv(stream, args), std::invalid_argument);
  args.lda = 10;
  args.m = 0;
  EXPECT_THROW(sbgemv(stream, args), std::invalid_argument);
  args.m = 10;
  args.a = nullptr;
  EXPECT_THROW(sbgemv(stream, args), std::invalid_argument);
}

// --------------------------------------------------------- dispatcher
TEST(Dispatcher, PrefersOptimizedForShortWide) {
  // The paper's case: N_d x N_m = 100 x 5000 frequency blocks.
  EXPECT_TRUE(use_optimized_transpose(100, 5000));
  EXPECT_TRUE(use_optimized_transpose(128, 4096));
  EXPECT_TRUE(use_optimized_transpose(256, 8192));
}

TEST(Dispatcher, KeepsReferenceForTallSkinny) {
  EXPECT_FALSE(use_optimized_transpose(8192, 256));
  EXPECT_FALSE(use_optimized_transpose(100000, 64));
}

TEST(Dispatcher, NonTransposeSplitsShortWideColumns) {
  // Short (one 64-row block) and wide: map_solve's 16 x 1000 and the
  // serve tenants' 6 x 96 forward GEMVs split; the paper's 100 x 5000,
  // whose reference grid already fills the device, does not.
  EXPECT_TRUE(use_split_columns(16, 1000));
  EXPECT_TRUE(use_split_columns(6, 96));
  EXPECT_TRUE(use_split_columns(64, 65));
  EXPECT_FALSE(use_split_columns(65, 5000));
  EXPECT_FALSE(use_split_columns(100, 5000));
  EXPECT_FALSE(use_split_columns(64, 64));
  EXPECT_FALSE(use_split_columns(5000, 100));

  SbgemvArgs<double> args;
  args.op = Op::N;
  args.m = 10;
  args.n = 5000;
  EXPECT_EQ(select_kernel(args, GemvKernelPolicy::kAuto), GemvKernelKind::kSplitN);
  EXPECT_EQ(select_kernel(args, GemvKernelPolicy::kOptimized), GemvKernelKind::kSplitN);
  EXPECT_EQ(select_kernel(args, GemvKernelPolicy::kReference),
            GemvKernelKind::kReferenceN);
  args.m = 5000;
  args.n = 10;
  EXPECT_EQ(select_kernel(args, GemvKernelPolicy::kAuto), GemvKernelKind::kReferenceN);
  EXPECT_EQ(select_kernel(args, GemvKernelPolicy::kOptimized), GemvKernelKind::kSplitN);

  // The split grid's K tiles run along grid y: one column beyond 65535
  // tiles keeps the reference kernel under every policy.
  const index_t widest = kOptTileCols * device::kMaxGridDimYZ;
  EXPECT_TRUE(use_split_columns(16, widest));
  EXPECT_FALSE(use_split_columns(16, widest + 1));
  args.m = 16;
  args.n = widest + 1;
  EXPECT_EQ(select_kernel(args, GemvKernelPolicy::kOptimized),
            GemvKernelKind::kReferenceN);

  // auto_policy applies each op's own rule.
  EXPECT_EQ(auto_policy(Op::N, 16, 1000), GemvKernelPolicy::kOptimized);
  EXPECT_EQ(auto_policy(Op::N, 1000, 16), GemvKernelPolicy::kReference);
  EXPECT_EQ(auto_policy(Op::C, 16, 1000), GemvKernelPolicy::kOptimized);
  EXPECT_EQ(auto_policy(Op::T, 8192, 256), GemvKernelPolicy::kReference);
  EXPECT_EQ(auto_policy(Op::C, 1000, 16), GemvKernelPolicy::kOptimized);  // m <= 1024
}

TEST(Dispatcher, NonTransposeLaunchesBeyondTheSplitGridLimit) {
  // 1 x 2,097,121 is short and wide but needs 65536 column tiles; every
  // policy launches (on a dry-run device: the shape's numerics are not
  // the point), the widest splittable shape included.
  device::Device dev(device::make_mi300x(), &util::ThreadPool::global(),
                     /*phantom=*/true);
  device::Stream stream(dev);
  for (const index_t n : {kOptTileCols * device::kMaxGridDimYZ,
                          kOptTileCols * device::kMaxGridDimYZ + 1}) {
    SbgemvArgs<double> args;
    args.op = Op::N;
    args.m = 1;
    args.n = n;
    args.lda = 1;
    args.stride_a = n;
    args.stride_x = n;
    args.stride_y = 1;
    for (const auto policy : {GemvKernelPolicy::kAuto, GemvKernelPolicy::kOptimized,
                              GemvKernelPolicy::kReference}) {
      EXPECT_NO_THROW(sbgemv(stream, args, policy)) << "n=" << n;
    }
  }
}

// -------------------------------------------- cost-model performance
// The Figure-1 mechanism: on skewed short-and-wide transpose shapes
// the optimized kernel attains far higher modelled bandwidth than the
// reference kernel; on large square shapes they roughly tie.
TEST(GemvBandwidth, OptimizedWinsBigOnSkewedShapes) {
  device::Device dev(device::make_mi300x());
  for (auto [m, n] : {std::pair<index_t, index_t>{128, 4096}, {256, 8192}}) {
    const auto ref = dev.cost_model().kernel_time(
        gemv_geometry(GemvKernelKind::kReferenceT, m, n, 100),
        gemv_footprint<float>(GemvKernelKind::kReferenceT, m, n, 100));
    const auto opt = dev.cost_model().kernel_time(
        gemv_geometry(GemvKernelKind::kOptimizedT, m, n, 100),
        gemv_footprint<float>(GemvKernelKind::kOptimizedT, m, n, 100));
    EXPECT_GT(opt.achieved_bandwidth_gbps, 2.2 * ref.achieved_bandwidth_gbps)
        << m << "x" << n;
  }
}

TEST(GemvBandwidth, KernelsTieOnLargeSquareShapes) {
  device::Device dev(device::make_mi300x());
  const index_t m = 2048, n = 2048, batch = 100;
  const auto ref = dev.cost_model().kernel_time(
      gemv_geometry(GemvKernelKind::kReferenceT, m, n, batch),
      gemv_footprint<float>(GemvKernelKind::kReferenceT, m, n, batch));
  const auto opt = dev.cost_model().kernel_time(
      gemv_geometry(GemvKernelKind::kOptimizedT, m, n, batch),
      gemv_footprint<float>(GemvKernelKind::kOptimizedT, m, n, batch));
  EXPECT_LT(opt.achieved_bandwidth_gbps / ref.achieved_bandwidth_gbps, 1.5);
  EXPECT_GT(opt.achieved_bandwidth_gbps / ref.achieved_bandwidth_gbps, 0.9);
}

// The split-column kernel against the reference non-transpose kernel,
// each at the GEMV's own bytes (the matrix and vectors) over its
// modelled time, so the split's partial sums count as time: a big win
// where the reference grid leaves the device idle (map_solve's
// forward, 129 blocks on 304 CUs), a tie at the paper's scale, where
// it already fills the device.
TEST(GemvBandwidth, SplitColumnsWinOnShortWideAndTieAtPaperScale) {
  const device::CostModel model(device::make_mi300x());
  const auto ratio = [&](auto tag, index_t m, index_t n, index_t batch) {
    using T = decltype(tag);
    const double bytes =
        gemv_footprint<T>(GemvKernelKind::kReferenceN, m, n, batch).total_bytes();
    const auto gbs = [&](GemvKernelKind kind) {
      return bytes / model.kernel_time(gemv_geometry(kind, m, n, batch),
                                       gemv_footprint<T>(kind, m, n, batch))
                         .seconds;
    };
    return gbs(GemvKernelKind::kSplitN) / gbs(GemvKernelKind::kReferenceN);
  };
  EXPECT_GE(ratio(cfloat{}, 16, 1000, 129), 1.5);
  EXPECT_GE(ratio(cdouble{}, 16, 1000, 129), 1.5);
  EXPECT_NEAR(ratio(cfloat{}, 100, 5000, 1001), 1.0, 0.03);
  EXPECT_NEAR(ratio(cdouble{}, 100, 5000, 1001), 1.0, 0.03);
}

TEST(GemvBandwidth, ReferenceTransposeBandwidthRisesWithM) {
  // "For larger values of m, the existing rocBLAS implementation
  // already performs well" (§4.1.1).
  device::Device dev(device::make_mi300x());
  double prev = 0.0;
  for (index_t m : {128, 256, 512, 1024, 2048}) {
    const auto t = dev.cost_model().kernel_time(
        gemv_geometry(GemvKernelKind::kReferenceT, m, 4096, 100),
        gemv_footprint<float>(GemvKernelKind::kReferenceT, m, 4096, 100));
    EXPECT_GT(t.achieved_bandwidth_gbps, prev) << "m=" << m;
    prev = t.achieved_bandwidth_gbps;
  }
}

// ----------------------------------------------------------- permute
class TransposeShapes
    : public ::testing::TestWithParam<std::tuple<index_t, index_t, index_t>> {};

TEST_P(TransposeShapes, MatchesHostReference) {
  const auto [batch, rows, cols] = GetParam();
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  // A dense source, then two sub-block gathers from a bigger array
  // (src_ld > cols, src_stride != rows * src_ld): batch entries
  // interleaved within each row, as operator setup gathers a rank's
  // sensors from the global column, and batch entries one after
  // another with a gap between them.
  struct Layout {
    index_t offset, src_ld, src_stride;
  };
  const index_t wide = batch * (cols + 2) + 3;
  for (const Layout& l : {Layout{0, cols, rows * cols}, Layout{1, wide, cols + 2},
                          Layout{2, cols + 3, rows * (cols + 3) + 5}}) {
    const index_t extent = l.offset + (batch - 1) * l.src_stride + rows * l.src_ld;
    const auto src = random_vec<double>(extent, 31);
    std::vector<double> dst(static_cast<std::size_t>(batch * rows * cols));
    std::vector<double> expect(dst.size());
    transpose_batched(stream, src.data() + l.offset, l.src_ld, l.src_stride,
                      dst.data(), batch, rows, cols);
    transpose_batched_host(src.data() + l.offset, l.src_ld, l.src_stride,
                           expect.data(), batch, rows, cols);
    EXPECT_EQ(dst, expect) << "src_ld " << l.src_ld << ", src_stride "
                           << l.src_stride;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TransposeShapes,
    ::testing::Values(std::make_tuple<index_t, index_t, index_t>(1, 1, 1),
                      std::make_tuple<index_t, index_t, index_t>(1, 33, 65),
                      std::make_tuple<index_t, index_t, index_t>(4, 32, 32),
                      std::make_tuple<index_t, index_t, index_t>(3, 100, 7),
                      std::make_tuple<index_t, index_t, index_t>(2, 129, 257)));

TEST(Transpose, DoubleTransposeIsIdentity) {
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  const index_t batch = 2, rows = 37, cols = 53;
  const auto src = random_vec<cdouble>(batch * rows * cols, 41);
  std::vector<cdouble> once(src.size()), twice(src.size());
  transpose_batched(stream, src.data(), cols, rows * cols, once.data(), batch,
                    rows, cols);
  transpose_batched(stream, once.data(), rows, rows * cols, twice.data(), batch,
                    cols, rows);
  EXPECT_EQ(twice, src);
}

TEST(Transpose, GridLimitSafeForHugeBatch) {
  // Batch beyond the 65535 z-limit must still be handled via the
  // in-kernel loop (the paper's Jodra-kernel modification).
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  const index_t batch = 70000, rows = 2, cols = 3;
  const auto src = random_vec<float>(batch * rows * cols, 51);
  std::vector<float> dst(src.size()), expect(src.size());
  EXPECT_NO_THROW(transpose_batched(stream, src.data(), cols, rows * cols,
                                    dst.data(), batch, rows, cols));
  transpose_batched_host(src.data(), cols, rows * cols, expect.data(), batch,
                         rows, cols);
  EXPECT_EQ(dst, expect);
}

// -------------------------------------------------------- vector ops
TEST(VectorOps, AxpyScalDotNrm2) {
  std::vector<double> x{1, 2, 3}, y{4, 5, 6};
  axpy<double>(3, 2.0, x.data(), y.data());
  EXPECT_EQ(y, (std::vector<double>{6, 9, 12}));
  EXPECT_DOUBLE_EQ(dot<double>(3, x.data(), x.data()), 14.0);
  EXPECT_DOUBLE_EQ(nrm2<double>(3, x.data()), std::sqrt(14.0));
}

TEST(VectorOps, RelativeError) {
  std::vector<double> a{1.0, 2.0}, b{1.0, 2.0};
  EXPECT_EQ(relative_l2_error<double>(2, a.data(), b.data()), 0.0);
  a[0] = 1.1;
  EXPECT_NEAR(relative_l2_error<double>(2, a.data(), b.data()),
              0.1 / std::sqrt(5.0), 1e-12);
  std::vector<double> z{0.0};
  EXPECT_EQ(relative_l2_error<double>(1, z.data(), z.data()), 0.0);
}

}  // namespace
}  // namespace fftmv::blas
