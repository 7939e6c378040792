// Distributed matvec tests: a threaded grid reference and the
// sequential grid apply (DistributedMatvecPlan over the paper's grid)
// must both reproduce the single-rank result, agree bit-for-bit with
// each other, and show the Figure-4 error behaviour (error growth
// with grid rows via n_m = N_m / p_c).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "blas/vector_ops.hpp"
#include "core/block_toeplitz.hpp"
#include "core/dense_reference.hpp"
#include "core/distributed_plan.hpp"
#include "core/matvec_plan.hpp"
#include "core/synthetic.hpp"
#include "device/device_spec.hpp"
#include "device/fault_plan.hpp"
#include "support/thread_comm.hpp"

namespace fftmv::core {
namespace {

using precision::PrecisionConfig;

struct GlobalProblem {
  ProblemDims dims;
  std::vector<double> first_col;
  std::vector<double> m;
  std::vector<double> d;
};

GlobalProblem make_global(index_t n_m, index_t n_d, index_t n_t,
                          std::uint64_t seed) {
  GlobalProblem p;
  p.dims = {n_m, n_d, n_t};
  p.first_col = make_first_block_col(LocalDims::single_rank(p.dims), seed);
  p.m = make_input_vector(n_t * n_m, seed + 1);
  p.d = make_input_vector(n_t * n_d, seed + 2);
  return p;
}

/// Single-rank ground truth for a given config.
std::vector<double> single_rank_forward(const GlobalProblem& p,
                                        const PrecisionConfig& cfg) {
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  const auto local = LocalDims::single_rank(p.dims);
  BlockToeplitzOperator op(dev, stream, local, p.first_col);
  FftMatvecPlan plan(dev, stream, local);
  std::vector<double> d(static_cast<std::size_t>(p.dims.n_t * p.dims.n_d));
  plan.forward(op, p.m, d, cfg);
  return d;
}

std::vector<double> single_rank_adjoint(const GlobalProblem& p,
                                        const PrecisionConfig& cfg) {
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  const auto local = LocalDims::single_rank(p.dims);
  BlockToeplitzOperator op(dev, stream, local, p.first_col);
  FftMatvecPlan plan(dev, stream, local);
  std::vector<double> m(static_cast<std::size_t>(p.dims.n_t * p.dims.n_m));
  plan.adjoint(op, p.d, m, cfg);
  return m;
}

/// Scatter a TOSI slice back into a global TOSI vector.
void scatter_tosi(const std::vector<double>& local, index_t n_t,
                  index_t width, index_t offset, index_t count,
                  std::vector<double>& global) {
  for (index_t t = 0; t < n_t; ++t) {
    for (index_t k = 0; k < count; ++k) {
      global[static_cast<std::size_t>(t * width + offset + k)] =
          local[static_cast<std::size_t>(t * count + k)];
    }
  }
}

/// Round every element through precision `p` (double(float(x)) for
/// single): what a collective moving `p` scalars delivers.
void round_through(std::vector<double>& v, precision::Precision p) {
  if (p == precision::Precision::kDouble) return;
  for (double& x : v) x = static_cast<double>(static_cast<float>(x));
}

/// Sum-reduce the ranks' partials to the group root in T, pairwise-
/// tree order; the root gets the sum widened back to double.
template <class T>
void reduce_partials(comm::GroupComm& group, std::vector<double>& partial) {
  const std::vector<T> send(partial.begin(), partial.end());
  std::vector<T> recv(send.size());
  group.reduce_sum(send.data(), recv.data(), static_cast<index_t>(send.size()), 0);
  partial.assign(recv.begin(), recv.end());
}

/// The threaded grid reference: a p_r x p_c grid of rank threads, each
/// running a plain single-rank apply of its operator slice between the
/// two collectives of the distributed matvec (§2.4), and the assembled
/// global output.  Forward broadcasts the parameter chunk down each
/// grid column in the phase-1 precision and reduces the data partials
/// along each grid row in the phase-5 precision; the adjoint mirrors
/// the roles.  Only the broadcast roots slice an input and only the
/// reduce roots write output.
std::vector<double> threaded_apply(const GlobalProblem& p, index_t p_rows,
                                   index_t p_cols, const PrecisionConfig& cfg,
                                   bool adjoint) {
  const comm::ProcessGrid grid(p_rows, p_cols);
  const index_t nt = p.dims.n_t;
  const index_t width_out = adjoint ? p.dims.n_m : p.dims.n_d;
  std::vector<double> output(static_cast<std::size_t>(nt * width_out), 0.0);
  std::mutex output_mutex;

  // Each rank thread owns its own device with inline execution so the
  // global thread pool is not re-entered concurrently.
  comm::run_on_grid(p_rows, p_cols, [&](comm::RankComms& comms) {
    static util::ThreadPool inline_pool(1);
    device::Device dev(device::make_mi300x(), &inline_pool);
    device::Stream stream(dev);
    const auto local = LocalDims::for_rank(p.dims, grid, comms.world_rank);
    const auto col_slice = slice_first_block_col(p.dims, local, p.first_col);
    BlockToeplitzOperator op(dev, stream, local, col_slice);
    FftMatvecPlan plan(dev, stream, local);

    comm::GroupComm& bcast = adjoint ? comms.grid_row : comms.grid_col;
    comm::GroupComm& reduce = adjoint ? comms.grid_col : comms.grid_row;
    const index_t in_count = adjoint ? local.n_d_local : local.n_m_local;
    const index_t out_offset = adjoint ? local.m_offset : local.d_offset;
    const index_t out_count = adjoint ? local.n_m_local : local.n_d_local;
    std::vector<double> in(static_cast<std::size_t>(nt * in_count));
    if (bcast.rank() == 0) {
      in = adjoint ? slice_tosi(p.d, nt, p.dims.n_d, local.d_offset, local.n_d_local)
                   : slice_tosi(p.m, nt, p.dims.n_m, local.m_offset, local.n_m_local);
      round_through(in, cfg.phase(precision::kPhasePad));
    }
    bcast.broadcast(in.data(), static_cast<index_t>(in.size()), 0);
    std::vector<double> partial(static_cast<std::size_t>(nt * out_count));
    if (adjoint) {
      plan.adjoint(op, in, partial, cfg);
    } else {
      plan.forward(op, in, partial, cfg);
    }
    if (cfg.phase(precision::kPhaseUnpad) == precision::Precision::kDouble) {
      reduce_partials<double>(reduce, partial);
    } else {
      reduce_partials<float>(reduce, partial);
    }
    if (reduce.rank() == 0) {
      std::lock_guard lock(output_mutex);
      scatter_tosi(partial, nt, width_out, out_offset, out_count, output);
    }
  });
  return output;
}

// ---------------------------------------------------- threaded grids
class GridShapes
    : public ::testing::TestWithParam<std::pair<index_t, index_t>> {};

TEST_P(GridShapes, ThreadedForwardMatchesSingleRankInDouble) {
  const auto [p_rows, p_cols] = GetParam();
  const auto p = make_global(24, 4, 16, 500);
  const auto expect = single_rank_forward(p, PrecisionConfig{});
  const auto got = threaded_apply(p, p_rows, p_cols, PrecisionConfig{}, false);
  // Double precision: only the reduction order differs.
  EXPECT_LT(blas::relative_l2_error(static_cast<index_t>(expect.size()),
                                    got.data(), expect.data()),
            1e-13)
      << p_rows << "x" << p_cols;
}

TEST_P(GridShapes, ThreadedForwardMixedPrecisionStaysAccurate) {
  const auto [p_rows, p_cols] = GetParam();
  const auto p = make_global(24, 4, 16, 600);
  const auto baseline = single_rank_forward(p, PrecisionConfig{});
  const auto got =
      threaded_apply(p, p_rows, p_cols, PrecisionConfig::parse("dssdd"), false);
  EXPECT_LT(blas::relative_l2_error(static_cast<index_t>(baseline.size()),
                                    got.data(), baseline.data()),
            1e-5);
}

TEST_P(GridShapes, ThreadedAdjointMatchesSingleRank) {
  const auto [p_rows, p_cols] = GetParam();
  const auto p = make_global(24, 4, 16, 650);
  const auto expect = single_rank_adjoint(p, PrecisionConfig{});
  const auto got = threaded_apply(p, p_rows, p_cols, PrecisionConfig{}, true);
  EXPECT_LT(blas::relative_l2_error(static_cast<index_t>(expect.size()),
                                    got.data(), expect.data()),
            1e-13)
      << p_rows << "x" << p_cols;
}

TEST_P(GridShapes, ThreadedAdjointMixedPrecisionStaysAccurate) {
  const auto [p_rows, p_cols] = GetParam();
  const auto p = make_global(24, 4, 16, 660);
  const auto baseline = single_rank_adjoint(p, PrecisionConfig{});
  // The paper's F* optimum: SBGEMV + IFFT (of m) in single.
  const auto got =
      threaded_apply(p, p_rows, p_cols, PrecisionConfig::parse("ddssd"), true);
  EXPECT_LT(blas::relative_l2_error(static_cast<index_t>(baseline.size()),
                                    got.data(), baseline.data()),
            1e-5);
}

INSTANTIATE_TEST_SUITE_P(Shapes, GridShapes,
                         ::testing::Values(std::make_pair<index_t, index_t>(1, 2),
                                           std::make_pair<index_t, index_t>(2, 1),
                                           std::make_pair<index_t, index_t>(2, 2),
                                           std::make_pair<index_t, index_t>(1, 4),
                                           std::make_pair<index_t, index_t>(4, 1)),
                         [](const auto& info) {
                           return std::to_string(info.param.first) + "x" +
                                  std::to_string(info.param.second);
                         });

// ------------------------------------------------ lockstep grids
/// The sequential grid apply: the paper's p_r x p_c placement run by
/// DistributedMatvecPlan::apply_batch_serial on one stream, mirroring
/// threaded_apply.  Same-shape ranks share one plan, as fig4_scaling's
/// thousands of ranks do.
std::vector<double> lockstep_apply(const GlobalProblem& p, index_t p_rows,
                                   index_t p_cols, const PrecisionConfig& cfg,
                                   bool adjoint,
                                   PhaseTimings* timings = nullptr) {
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  const auto dir = adjoint ? ApplyDirection::kAdjoint : ApplyDirection::kForward;
  const ShardedOperator op(dev, stream, p.dims,
                           comm::ProcessGrid(p_rows, p_cols), p.first_col);
  std::map<std::pair<index_t, index_t>, std::unique_ptr<FftMatvecPlan>> owned;
  std::vector<FftMatvecPlan*> plans;
  for (index_t r = 0; r < op.ranks(); ++r) {
    const LocalDims& local = op.rank_dims(dir, r);
    auto& plan = owned[{local.n_m_local, local.n_d_local}];
    if (!plan) plan = std::make_unique<FftMatvecPlan>(dev, stream, local);
    plans.push_back(plan.get());
  }
  std::vector<double> out(static_cast<std::size_t>(
      p.dims.n_t * (adjoint ? p.dims.n_m : p.dims.n_d)));
  const ConstVectorView in[] = {adjoint ? p.d : p.m};
  const VectorView outs[] = {out};
  DistributedMatvecPlan dist(comm::NetworkSpec::frontier());
  const DistributedMatvecPlan::OperatorGroup group{&op, 1};
  dist.apply_batch_serial({&group, 1}, dir, cfg, in, outs, plans);
  if (timings != nullptr) *timings = dist.last_timings();
  return out;
}

TEST(Lockstep, BitIdenticalToThreadedBackend) {
  const auto p = make_global(16, 4, 8, 700);
  for (auto [pr, pc] : {std::pair<index_t, index_t>{2, 2}, {1, 4}, {4, 1}}) {
    for (const auto& cfg : PrecisionConfig::all_configs()) {
      for (const bool adjoint : {false, true}) {
        EXPECT_EQ(lockstep_apply(p, pr, pc, cfg, adjoint),
                  threaded_apply(p, pr, pc, cfg, adjoint))
            << pr << "x" << pc << " " << cfg.to_string() << (adjoint ? " F*" : " F");
      }
    }
  }
}

TEST(Lockstep, RaggedGridBitIdenticalToThreadedBackend) {
  // 10 x 3 over 2 x 4: parameter columns split 3,3,2,2 and sensor
  // rows 2,1, so ranks differ in shape and run on different plans.
  const auto p = make_global(10, 3, 8, 1100);
  for (const char* cfg_str : {"ddddd", "dssdd", "dssds", "sssss"}) {
    const auto cfg = PrecisionConfig::parse(cfg_str);
    for (const bool adjoint : {false, true}) {
      EXPECT_EQ(lockstep_apply(p, 2, 4, cfg, adjoint),
                threaded_apply(p, 2, 4, cfg, adjoint))
          << cfg_str << (adjoint ? " F*" : " F");
    }
  }
}

TEST(Lockstep, ForwardMatchesSingleRankDouble) {
  const auto p = make_global(32, 4, 16, 800);
  for (auto [pr, pc] : {std::pair<index_t, index_t>{1, 8}, {2, 4}, {4, 2}}) {
    const auto d = lockstep_apply(p, pr, pc, PrecisionConfig{}, false);
    const auto expect = single_rank_forward(p, PrecisionConfig{});
    EXPECT_LT(blas::relative_l2_error(static_cast<index_t>(d.size()), d.data(),
                                      expect.data()),
              1e-13)
        << pr << "x" << pc;
  }
}

TEST(Lockstep, AdjointMatchesSingleRankDouble) {
  const auto p = make_global(32, 4, 16, 900);
  const auto m = lockstep_apply(p, 2, 4, PrecisionConfig{}, true);
  const auto expect = single_rank_adjoint(p, PrecisionConfig{});
  EXPECT_LT(blas::relative_l2_error(static_cast<index_t>(m.size()), m.data(),
                                    expect.data()),
            1e-13);
}

TEST(Lockstep, ManyRankSimulationStaysAccurate) {
  // 32 simulated ranks — beyond what the threaded reference should be
  // asked to do, exactly the sequential grid apply's purpose.
  const auto p = make_global(64, 8, 16, 1000);
  PhaseTimings timings;
  const auto d =
      lockstep_apply(p, 4, 8, PrecisionConfig::parse("dssdd"), false, &timings);
  const auto baseline = single_rank_forward(p, PrecisionConfig{});
  EXPECT_LT(blas::relative_l2_error(static_cast<index_t>(d.size()), d.data(),
                                    baseline.data()),
            1e-5);
  EXPECT_GT(timings.compute_total(), 0.0);
  EXPECT_EQ(timings.comm, 0.0);
}

// --------------------------------------------- Figure-4 error shape
TEST(Lockstep, ErrorGrowsWhenGridRowsGrow) {
  // Weak-scaling essence of Figure 4: with p fixed, moving rows into
  // the grid (p_r: 1 -> 4) grows the local SBGEMV width
  // n_m = N_m / p_c and with it the dominant error term of Eq. (6).
  const auto p = make_global(128, 8, 16, 1200);
  const auto baseline = single_rank_forward(p, PrecisionConfig{});
  const auto cfg = PrecisionConfig::parse("dssds");

  std::map<index_t, double> err_by_rows;
  for (index_t pr : {1, 4}) {
    const auto d = lockstep_apply(p, pr, 8 / pr, cfg, false);
    err_by_rows[pr] = blas::relative_l2_error(static_cast<index_t>(d.size()),
                                              d.data(), baseline.data());
  }
  EXPECT_GT(err_by_rows[4], err_by_rows[1] * 0.5);
  EXPECT_LT(err_by_rows[1], 1e-5);
  EXPECT_LT(err_by_rows[4], 1e-4);
}

// --------------------------------------------- sharded rank groups
// DistributedMatvecPlan: the serving layer's 1-D output partition
// with batch-fused collectives.  The contract under test is BIT
// identity with the single-rank fused apply_batch — EXPECT_EQ on the
// doubles, not a tolerance — for every precision config, both
// directions, ragged partitions, both comm modes and the serial path.

struct ShardedRun {
  std::vector<std::vector<double>> outputs;
  PhaseTimings timings;
  std::vector<PhaseTimings> shares;
  double setup_seconds = 0.0;
};

/// Build a ShardedOperator at `ranks`, drive one batched apply of `b`
/// deterministic right-hand sides through DistributedMatvecPlan on
/// per-rank streams, and return outputs + timings.  ranks == 1 is the
/// single-rank reference (same inputs by construction).  `serial`
/// binds every rank to one stream and runs apply_batch_serial
/// instead.
ShardedRun run_sharded(const GlobalProblem& p, index_t ranks,
                       ApplyDirection dir, const PrecisionConfig& cfg,
                       index_t b, CommMode mode = CommMode::kBatched,
                       bool serial = false) {
  device::Device dev(device::make_mi300x());
  device::Stream setup(dev);
  ShardedOperator sharded(dev, setup, p.dims, ranks, p.first_col);

  std::vector<std::unique_ptr<device::Stream>> streams;
  std::vector<std::unique_ptr<FftMatvecPlan>> owned;
  std::vector<FftMatvecPlan*> plans;
  for (index_t r = 0; r < ranks; ++r) {
    if (!serial || r == 0) {
      streams.push_back(std::make_unique<device::Stream>(dev));
    }
    owned.push_back(std::make_unique<FftMatvecPlan>(dev, *streams.back(),
                                                    sharded.rank_dims(dir, r)));
    plans.push_back(owned.back().get());
  }

  const bool forward = dir == ApplyDirection::kForward;
  const index_t in_len = p.dims.n_t * (forward ? p.dims.n_m : p.dims.n_d);
  const index_t out_len = p.dims.n_t * (forward ? p.dims.n_d : p.dims.n_m);
  ShardedRun run;
  std::vector<std::vector<double>> ins(static_cast<std::size_t>(b));
  run.outputs.resize(static_cast<std::size_t>(b));
  std::vector<ConstVectorView> iv(static_cast<std::size_t>(b));
  std::vector<VectorView> ov(static_cast<std::size_t>(b));
  for (index_t i = 0; i < b; ++i) {
    ins[static_cast<std::size_t>(i)] =
        make_input_vector(in_len, 4242 + 13 * static_cast<std::uint64_t>(i));
    run.outputs[static_cast<std::size_t>(i)].resize(
        static_cast<std::size_t>(out_len));
    iv[static_cast<std::size_t>(i)] = ins[static_cast<std::size_t>(i)];
    ov[static_cast<std::size_t>(i)] = run.outputs[static_cast<std::size_t>(i)];
  }

  DistributedMatvecPlan dist(comm::NetworkSpec::frontier());
  const DistributedMatvecPlan::OperatorGroup group{&sharded, b};
  if (serial) {
    dist.apply_batch_serial({&group, 1}, dir, cfg, iv, ov, plans);
  } else {
    dist.apply_batch({&group, 1}, dir, cfg, iv, ov, plans, mode);
  }
  run.timings = dist.last_timings();
  run.shares = dist.last_batch_timings();
  run.setup_seconds = setup.now();
  return run;
}

// The config travels as a std::string, not a const char*: gtest prints a
// char pointer with its address, which would put a per-process value
// into every registered test name.
class ShardedApply
    : public ::testing::TestWithParam<std::pair<index_t, std::string>> {};

TEST_P(ShardedApply, ForwardBitIdenticalToSingleRank) {
  const auto [ranks, cfg_str] = GetParam();
  const auto p = make_global(24, 4, 16, 2000);
  const auto cfg = PrecisionConfig::parse(cfg_str);
  const auto expect =
      run_sharded(p, 1, ApplyDirection::kForward, cfg, 3).outputs;
  const auto got =
      run_sharded(p, ranks, ApplyDirection::kForward, cfg, 3).outputs;
  EXPECT_EQ(expect, got) << ranks << " ranks, " << cfg_str;
  const auto serial = run_sharded(p, ranks, ApplyDirection::kForward, cfg, 3,
                                  CommMode::kBatched, /*serial=*/true);
  EXPECT_EQ(expect, serial.outputs) << ranks << " ranks, " << cfg_str;
  EXPECT_EQ(serial.timings.comm, 0.0);
}

TEST_P(ShardedApply, AdjointBitIdenticalToSingleRank) {
  const auto [ranks, cfg_str] = GetParam();
  const auto p = make_global(24, 4, 16, 2100);
  const auto cfg = PrecisionConfig::parse(cfg_str);
  const auto expect =
      run_sharded(p, 1, ApplyDirection::kAdjoint, cfg, 3).outputs;
  const auto got =
      run_sharded(p, ranks, ApplyDirection::kAdjoint, cfg, 3).outputs;
  EXPECT_EQ(expect, got) << ranks << " ranks, " << cfg_str;
  const auto serial = run_sharded(p, ranks, ApplyDirection::kAdjoint, cfg, 3,
                                  CommMode::kBatched, /*serial=*/true);
  EXPECT_EQ(expect, serial.outputs) << ranks << " ranks, " << cfg_str;
  EXPECT_EQ(serial.timings.comm, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndConfigs, ShardedApply,
    ::testing::Values(std::make_pair<index_t, std::string>(2, "ddddd"),
                      std::make_pair<index_t, std::string>(2, "dssdd"),
                      std::make_pair<index_t, std::string>(2, "sssss"),
                      std::make_pair<index_t, std::string>(2, "dssds"),
                      // 3 ranks over n_d = 4: ragged forward split
                      std::make_pair<index_t, std::string>(3, "ddddd"),
                      std::make_pair<index_t, std::string>(3, "sssss"),
                      std::make_pair<index_t, std::string>(4, "ddddd"),
                      std::make_pair<index_t, std::string>(4, "dssds")),
    [](const auto& info) {
      return std::string("r") + std::to_string(info.param.first) + "_" +
             info.param.second;
    });

TEST(ShardedApplyDetail, RaggedBothDimensionsBitIdentical) {
  // n_m = 10 and n_d = 5 over 4 ranks: both directions split ragged
  // (3,3,2,2 and 2,1,1,1).
  const auto p = make_global(10, 5, 8, 2200);
  for (const auto dir :
       {ApplyDirection::kForward, ApplyDirection::kAdjoint}) {
    for (const char* cfg_str : {"ddddd", "sssss", "dssds"}) {
      const auto cfg = PrecisionConfig::parse(cfg_str);
      EXPECT_EQ(run_sharded(p, 1, dir, cfg, 2).outputs,
                run_sharded(p, 4, dir, cfg, 2).outputs)
          << cfg_str;
    }
  }
}

TEST(ShardedApplyDetail, WideAdjointSlicesKeepTheGlobalKernelKind) {
  // n_d = 1025 > 1024 with n_d < n_m: kAuto resolved from the full
  // adjoint GEMV (m = 1025 < n = 1030) picks the optimized transpose
  // kernel, while a 515-column slice on its own (m = 1025 > n = 515)
  // would pick the reference kernel and sum in a different order.
  const auto p = make_global(1030, 1025, 2, 2250);
  for (const char* cfg_str : {"ddddd", "sssss"}) {
    const auto cfg = PrecisionConfig::parse(cfg_str);
    EXPECT_EQ(run_sharded(p, 1, ApplyDirection::kAdjoint, cfg, 1).outputs,
              run_sharded(p, 2, ApplyDirection::kAdjoint, cfg, 1).outputs)
        << cfg_str;
  }
}

TEST(ShardedApplyDetail, SplitColumnForwardSlicesBitIdentical) {
  // 6 x 100 forward GEMVs run the split-column kernel: every forward
  // slice (rows 3 + 3 or 2 + 2 + 2) sums all 100 columns in the same
  // 4 tiles, so 2 and 3 ranks match one rank bit for bit.  At 48 x 40
  // the full GEMV is not short-and-wide while a 24- or 16-row slice
  // would be; the kind comes from the global dims, so the slices run
  // the reference kernel too.
  for (const auto& [n_m, n_d] : {std::pair<index_t, index_t>{100, 6}, {40, 48}}) {
    const auto p = make_global(n_m, n_d, 8, 2260);
    for (const char* cfg_str : {"ddddd", "dssdd", "sssss"}) {
      const auto cfg = PrecisionConfig::parse(cfg_str);
      const auto expect = run_sharded(p, 1, ApplyDirection::kForward, cfg, 2).outputs;
      for (const index_t ranks : {2, 3}) {
        EXPECT_EQ(expect, run_sharded(p, ranks, ApplyDirection::kForward, cfg, 2).outputs)
            << n_d << "x" << n_m << " " << ranks << " ranks, " << cfg_str;
      }
    }
  }
}

TEST(ShardedApplyDetail, OneRankShortCircuitChargesNoComm) {
  const auto p = make_global(16, 4, 8, 2300);
  const auto run =
      run_sharded(p, 1, ApplyDirection::kForward, PrecisionConfig{}, 2);
  EXPECT_EQ(run.timings.comm, 0.0);
  EXPECT_GT(run.timings.compute_total(), 0.0);
  // The degenerate case really is the plain fused batch: per-RHS
  // shares exist and sum to the totals.
  ASSERT_EQ(run.shares.size(), 2u);
}

TEST(ShardedApplyDetail, MultiRankChargesCollectives) {
  const auto p = make_global(16, 4, 8, 2300);
  const auto run =
      run_sharded(p, 2, ApplyDirection::kForward, PrecisionConfig{}, 2);
  EXPECT_GT(run.timings.comm, 0.0);
  EXPECT_GT(run.timings.makespan, 0.0);
  // Per-RHS shares partition the group totals (phase fields, comm and
  // makespan alike).
  PhaseTimings sum;
  for (const auto& s : run.shares) sum += s;
  EXPECT_NEAR(sum.comm, run.timings.comm, 1e-12);
  EXPECT_NEAR(sum.makespan, run.timings.makespan, 1e-12);
  EXPECT_NEAR(sum.compute_total(), run.timings.compute_total(), 1e-9);
}

TEST(ShardedApplyDetail, BatchedCommBeatsPerRequestAndStaysBitIdentical) {
  const auto p = make_global(16, 4, 8, 2400);
  const auto cfg = PrecisionConfig::parse("dssdd");
  const auto batched = run_sharded(p, 4, ApplyDirection::kForward, cfg, 6,
                                   CommMode::kBatched);
  const auto per_req = run_sharded(p, 4, ApplyDirection::kForward, cfg, 6,
                                   CommMode::kPerRequest);
  // Same compute, same bits; only the collective bill differs — the
  // alpha terms are paid once instead of six times.
  EXPECT_EQ(batched.outputs, per_req.outputs);
  EXPECT_LT(batched.timings.comm, per_req.timings.comm);
}

// ABFT verification through a 2-rank placement: a corrupted GEMV on
// either rank throws device::SilentCorruption from both the charged and
// the serial apply, and a clean rerun reproduces the clean verified
// outputs bit for bit.  Each rank's apply issues one GEMV launch, so
// buffer write k is rank k's.
TEST(ShardedApplyDetail, ChecksumCatchesACorruptGemvOnEveryRank) {
  const auto p = make_global(16, 4, 8, 2500);
  const auto cfg = PrecisionConfig::parse("dssdd");
  const index_t b = 3;
  device::Device dev(device::make_mi300x());
  device::Stream setup(dev);
  ShardedOperator sharded(dev, setup, p.dims, 2, p.first_col);
  sharded.warm_checksums(setup);
  std::vector<std::unique_ptr<device::Stream>> streams;
  std::vector<std::unique_ptr<FftMatvecPlan>> owned;
  std::vector<FftMatvecPlan*> plans;
  for (index_t r = 0; r < 2; ++r) {
    streams.push_back(std::make_unique<device::Stream>(dev));
    owned.push_back(std::make_unique<FftMatvecPlan>(
        dev, *streams.back(), sharded.rank_dims(ApplyDirection::kForward, r)));
    plans.push_back(owned.back().get());
  }
  std::vector<std::vector<double>> ins;
  for (index_t i = 0; i < b; ++i) {
    ins.push_back(make_input_vector(p.dims.n_t * p.dims.n_m,
                                    2510 + static_cast<std::uint64_t>(i)));
  }
  const std::vector<ConstVectorView> iv(ins.begin(), ins.end());
  const auto out_len = static_cast<std::size_t>(p.dims.n_t * p.dims.n_d);
  DistributedMatvecPlan dist(comm::NetworkSpec::frontier());
  const DistributedMatvecPlan::OperatorGroup group{&sharded, b};
  for (const bool serial : {false, true}) {
    const auto apply = [&](std::vector<std::vector<double>>& outs) {
      outs.assign(static_cast<std::size_t>(b), std::vector<double>(out_len));
      const std::vector<VectorView> ov(outs.begin(), outs.end());
      if (serial) {
        dist.apply_batch_serial({&group, 1}, ApplyDirection::kForward, cfg, iv,
                                ov, plans, VerifyMode::kChecksum);
      } else {
        dist.apply_batch({&group, 1}, ApplyDirection::kForward, cfg, iv, ov,
                         plans, CommMode::kBatched, VerifyMode::kChecksum);
      }
    };
    dev.set_fault_plan(nullptr);
    std::vector<std::vector<double>> clean, out;
    apply(clean);
    for (const std::uint64_t k : {0u, 1u}) {
      const std::string what = std::string(serial ? "serial" : "charged") +
                               ", corrupted GEMV on rank " + std::to_string(k);
      auto faults = std::make_shared<device::FaultPlan>();
      faults->fail_buffer_writes(k, k + 1);
      dev.set_fault_plan(faults);
      EXPECT_THROW(apply(out), device::SilentCorruption) << what;
      EXPECT_EQ(faults->stats().buffer_faults, 1u) << what;
      // The window passed: the rerun is clean and bit-identical.
      apply(out);
      EXPECT_EQ(out, clean) << what;
    }
  }
  dev.set_fault_plan(nullptr);
}

TEST(ShardedApplyDetail, ValidatesRanksAndLaneShapes) {
  const auto p = make_global(8, 3, 8, 2600);
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  // More ranks than the smaller output dimension: every rank needs a
  // non-empty slice.
  EXPECT_THROW(ShardedOperator(dev, stream, p.dims, 4, p.first_col),
               std::invalid_argument);
  EXPECT_THROW(ShardedOperator(dev, stream, p.dims, 0, p.first_col),
               std::invalid_argument);

  // A rank plan whose dims do not match its shard is rejected.
  ShardedOperator sharded(dev, stream, p.dims, 2, p.first_col);
  FftMatvecPlan wrong(dev, stream, LocalDims::single_rank(p.dims));
  const std::vector<FftMatvecPlan*> plans(2, &wrong);
  const std::vector<double> in(static_cast<std::size_t>(p.dims.n_t * p.dims.n_m));
  std::vector<double> out(static_cast<std::size_t>(p.dims.n_t * p.dims.n_d));
  const std::vector<ConstVectorView> iv{in};
  const std::vector<VectorView> ov{out};
  DistributedMatvecPlan dist(comm::NetworkSpec::frontier());
  const DistributedMatvecPlan::OperatorGroup group{&sharded, 1};
  EXPECT_THROW(dist.apply_batch({&group, 1}, ApplyDirection::kForward,
                                PrecisionConfig{}, iv, ov, plans),
               std::invalid_argument);
}

TEST(ShardedApplyDetail, RejectsAShortOperatorColumn) {
  // Each rank of a split slices the caller's global column; a column
  // one element short is refused, not read past its end.
  const auto p = make_global(8, 4, 8, 2640);
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  const std::span<const double> col(p.first_col.data(), p.first_col.size() - 1);
  for (const index_t ranks : {1, 2}) {
    EXPECT_THROW(ShardedOperator(dev, stream, p.dims, ranks, col),
                 std::invalid_argument);
  }
  EXPECT_THROW(ShardedOperator(dev, stream, p.dims, comm::ProcessGrid(2, 2), col),
               std::invalid_argument);
}

TEST(ShardedApplyDetail, RejectsBadBatchesBeforeChargingTheClock) {
  // A malformed batch throws before the fault consult, the entry sync
  // and the broadcast charge, and before any caller vector is read or
  // written.
  const auto p = make_global(8, 4, 8, 2650);
  device::Device dev(device::make_mi300x());
  device::Stream setup(dev);
  const ShardedOperator sharded(dev, setup, p.dims, 2, p.first_col);
  std::vector<std::unique_ptr<device::Stream>> streams;
  std::vector<std::unique_ptr<FftMatvecPlan>> owned;
  std::vector<FftMatvecPlan*> plans;
  for (index_t r = 0; r < 2; ++r) {
    streams.push_back(std::make_unique<device::Stream>(dev));
    owned.push_back(std::make_unique<FftMatvecPlan>(
        dev, *streams.back(), sharded.rank_dims(ApplyDirection::kForward, r)));
    plans.push_back(owned.back().get());
  }
  const std::size_t out_len = static_cast<std::size_t>(p.dims.n_t * p.dims.n_d);
  const std::size_t short_out = out_len - static_cast<std::size_t>(p.dims.n_d);
  constexpr double kGuard = -7.0;
  std::vector<double> out(out_len, kGuard);
  DistributedMatvecPlan dist(comm::NetworkSpec::frontier());
  const auto expect_rejected = [&](ConstVectorView in, VectorView o,
                                   index_t group_rhs, const char* what) {
    const DistributedMatvecPlan::OperatorGroup group{&sharded, group_rhs};
    const ConstVectorView iv[] = {in};
    const VectorView ov[] = {o};
    EXPECT_THROW(dist.apply_batch({&group, 1}, ApplyDirection::kForward,
                                  PrecisionConfig{}, iv, ov, plans),
                 std::invalid_argument)
        << what;
    for (const auto& stream : streams) EXPECT_EQ(stream->now(), 0.0) << what;
  };
  expect_rejected(p.m, {out.data(), short_out}, 1, "short output");
  for (std::size_t i = short_out; i < out_len; ++i) {
    EXPECT_EQ(out[i], kGuard) << "guard " << i;
  }
  expect_rejected({p.m.data(), p.m.size() - 1}, out, 1, "short input");
  expect_rejected(p.m, out, 2, "group of 2 over one input");
}

TEST(ShardedApplyDetail, ChargedApplyRejectsSharedOutputSlices) {
  // On a 2 x 2 grid two ranks share every output slice in both
  // directions: apply_batch has no charged model for their reduction,
  // the serial path runs it.
  const auto p = make_global(8, 4, 8, 2680);
  for (const auto dir : {ApplyDirection::kForward, ApplyDirection::kAdjoint}) {
    const bool forward = dir == ApplyDirection::kForward;
    device::Device dev(device::make_mi300x());
    device::Stream stream(dev);
    const ShardedOperator op(dev, stream, p.dims, comm::ProcessGrid(2, 2),
                             p.first_col);
    FftMatvecPlan plan(dev, stream, op.rank_dims(dir, 0));
    const std::vector<FftMatvecPlan*> plans(4, &plan);
    std::vector<double> out(
        static_cast<std::size_t>(p.dims.n_t * (forward ? p.dims.n_d : p.dims.n_m)));
    const ConstVectorView iv[] = {forward ? p.m : p.d};
    const VectorView ov[] = {out};
    DistributedMatvecPlan dist(comm::NetworkSpec::frontier());
    const DistributedMatvecPlan::OperatorGroup group{&op, 1};
    EXPECT_THROW(
        dist.apply_batch({&group, 1}, dir, PrecisionConfig{}, iv, ov, plans),
        std::invalid_argument);
    EXPECT_NO_THROW(dist.apply_batch_serial({&group, 1}, dir, PrecisionConfig{},
                                            iv, ov, plans));
  }
}

TEST(ShardedApplyDetail, GroupedTenantsBitIdenticalToPerOperatorApplies) {
  // Two same-shape operators in one grouped batch ({2, 3} right-hand
  // sides): every output must equal its own operator's solo
  // single-rank apply, at every rank count — a 1-rank placement is
  // the serving layer's cross-tenant batch.
  const std::vector<GlobalProblem> problems{make_global(12, 6, 8, 2700),
                                            make_global(12, 6, 8, 2800)};
  const std::vector<index_t> group_sizes{2, 3};
  for (const auto dir : {ApplyDirection::kForward, ApplyDirection::kAdjoint}) {
    const bool forward = dir == ApplyDirection::kForward;
    const ProblemDims& dims = problems[0].dims;
    const index_t in_len = dims.n_t * (forward ? dims.n_m : dims.n_d);
    const index_t out_len = dims.n_t * (forward ? dims.n_d : dims.n_m);
    std::vector<std::vector<double>> ins;
    std::vector<std::size_t> owner;  // problem index of each RHS
    for (std::size_t g = 0; g < group_sizes.size(); ++g) {
      for (index_t r = 0; r < group_sizes[g]; ++r) {
        ins.push_back(make_input_vector(in_len, 2900 + ins.size()));
        owner.push_back(g);
      }
    }
    const std::vector<ConstVectorView> iv(ins.begin(), ins.end());
    for (const char* cfg_str : {"ddddd", "dssdd", "sssss"}) {
      const auto cfg = PrecisionConfig::parse(cfg_str);
      // Reference: each RHS alone through its own single-rank operator.
      std::vector<std::vector<double>> expect(
          ins.size(), std::vector<double>(static_cast<std::size_t>(out_len)));
      {
        device::Device dev(device::make_mi300x());
        device::Stream stream(dev);
        const auto local = LocalDims::single_rank(dims);
        FftMatvecPlan plan(dev, stream, local);
        for (std::size_t i = 0; i < ins.size(); ++i) {
          const BlockToeplitzOperator op(dev, stream, local,
                                         problems[owner[i]].first_col);
          const std::vector<ConstVectorView> one_in{ins[i]};
          const std::vector<VectorView> one_out{expect[i]};
          plan.apply_batch(op, dir, cfg, one_in, one_out);
        }
      }
      for (const index_t ranks : {1, 2, 3}) {
        device::Device dev(device::make_mi300x());
        device::Stream setup(dev);
        std::vector<std::unique_ptr<ShardedOperator>> ops;
        std::vector<DistributedMatvecPlan::OperatorGroup> groups;
        for (std::size_t g = 0; g < problems.size(); ++g) {
          ops.push_back(std::make_unique<ShardedOperator>(
              dev, setup, dims, ranks, problems[g].first_col));
          groups.push_back({ops.back().get(), group_sizes[g]});
        }
        std::vector<std::unique_ptr<device::Stream>> streams;
        std::vector<std::unique_ptr<FftMatvecPlan>> owned;
        std::vector<FftMatvecPlan*> plans;
        for (index_t r = 0; r < ranks; ++r) {
          streams.push_back(std::make_unique<device::Stream>(dev));
          owned.push_back(std::make_unique<FftMatvecPlan>(
              dev, *streams.back(), ops[0]->rank_dims(dir, r)));
          plans.push_back(owned.back().get());
        }
        std::vector<std::vector<double>> got(
            ins.size(), std::vector<double>(static_cast<std::size_t>(out_len)));
        const std::vector<VectorView> ov(got.begin(), got.end());
        DistributedMatvecPlan dist(comm::NetworkSpec::frontier());
        dist.apply_batch(groups, dir, cfg, iv, ov, plans);
        for (std::size_t i = 0; i < ins.size(); ++i) {
          EXPECT_EQ(got[i], expect[i])
              << cfg_str << ", " << ranks << " ranks, "
              << (forward ? "F" : "F*") << ", RHS " << i;
        }
      }
    }
  }
}

TEST(ShardedApplyDetail, GroupsMustShareOnePlacement) {
  const auto p = make_global(12, 6, 8, 3000);
  const auto q = make_global(12, 6, 16, 3100);
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  const ShardedOperator two_ranks(dev, stream, p.dims, 2, p.first_col);
  const ShardedOperator one_rank(dev, stream, p.dims, 1, p.first_col);
  const ShardedOperator other_dims(dev, stream, q.dims, 2, q.first_col);

  std::vector<std::unique_ptr<FftMatvecPlan>> owned;
  std::vector<FftMatvecPlan*> plans;
  for (index_t r = 0; r < 2; ++r) {
    owned.push_back(std::make_unique<FftMatvecPlan>(
        dev, stream, two_ranks.rank_dims(ApplyDirection::kForward, r)));
    plans.push_back(owned.back().get());
  }
  std::vector<std::vector<double>> ins(
      2, std::vector<double>(static_cast<std::size_t>(p.dims.n_t * p.dims.n_m)));
  std::vector<std::vector<double>> outs(
      2, std::vector<double>(static_cast<std::size_t>(p.dims.n_t * p.dims.n_d)));
  const std::vector<ConstVectorView> iv(ins.begin(), ins.end());
  const std::vector<VectorView> ov(outs.begin(), outs.end());
  DistributedMatvecPlan dist(comm::NetworkSpec::frontier());
  const auto apply = [&](const ShardedOperator& second) {
    const std::vector<DistributedMatvecPlan::OperatorGroup> groups{
        {&two_ranks, 1}, {&second, 1}};
    dist.apply_batch(groups, ApplyDirection::kForward, PrecisionConfig{}, iv,
                     ov, plans);
  };
  EXPECT_THROW(apply(one_rank), std::invalid_argument);    // rank count
  EXPECT_THROW(apply(other_dims), std::invalid_argument);  // global dims
  EXPECT_NO_THROW(apply(two_ranks));
}

}  // namespace
}  // namespace fftmv::core
