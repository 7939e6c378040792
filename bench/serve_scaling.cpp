// Distributed serve scaling: one tenant's operator sharded across a
// simulated rank group, batched collectives (ONE broadcast of all b
// inputs + ONE gather of all b outputs per dispatched batch) vs the
// per-request ablation (b broadcasts + b gathers, identical compute).
//
// Three sections:
//   measured        - backed device at the serve batching-curve shape;
//                     real arithmetic, and every sharded output (both
//                     comm modes, every rank count) is verified
//                     bit-identical to the single-rank fused batch
//                     before any timing is reported.
//   batched vs per-request comm
//                   - gated by cmake/perf_diff.py: phantom dry runs at
//                     the serve shape (pure cost-model arithmetic, so
//                     quick CI runs and full runs emit identical
//                     rows).  One row per rank-group width; the "comm
//                     ratio" and "vs per-request" columns must not
//                     regress.
//   paper scale     - informational phantom sweep at the paper's shape
//                     (N_m=5,000, N_d=100, N_t=1,000): with n_d <<
//                     n_m the wire cost of broadcasting the full
//                     input dominates what the output-dim split
//                     saves, so sharding loses end-to-end and
//                     adaptive_rank_group refuses it — the bench
//                     prints the crossover decision for both shapes.
//
// `--quick` trims the measured sweep for the CI smoke step; `--json
// <path>` writes the tracked perf artifact.  Self-checking: exits
// nonzero unless (a) every sharded output is bit-identical to the
// single-rank batch, (b) fused collectives beat per-request
// collectives by >= 4x at the gated shape, and (c) the batched-mode
// end-to-end makespan beats per-request mode by >= 1.2x — so a
// regressed fusion fails CI before the perf-diff gate runs.
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/distributed_plan.hpp"
#include "serve/scheduler.hpp"
#include "util/thread_pool.hpp"

using namespace fftmv;

namespace {

struct CasePoint {
  double makespan = 0.0;  ///< group end-to-end simulated seconds
  double comm = 0.0;      ///< charged collective seconds (0 when R=1)
  double compute = 0.0;   ///< summed rank busy seconds
  std::vector<std::vector<double>> outputs;  ///< empty on phantom
};

/// One sharded apply_batch at (dims, ranks, config, b, mode) on its
/// own operator/streams/plans; deterministic inputs on backed devices,
/// null views on phantom.  R=1 degenerates to the plain fused batch.
CasePoint run_case(device::Device& dev, const core::ProblemDims& dims,
                   index_t ranks, const precision::PrecisionConfig& config,
                   index_t b, core::CommMode mode) {
  const bool phantom = dev.phantom();
  device::Stream setup(dev);
  std::vector<double> col;
  if (!phantom) {
    col = core::make_first_block_col(core::LocalDims::single_rank(dims), 77);
  }
  core::ShardedOperator op(dev, setup, dims, ranks, col);

  std::vector<std::unique_ptr<device::Stream>> streams;
  std::vector<std::unique_ptr<core::FftMatvecPlan>> owned;
  std::vector<core::FftMatvecPlan*> plans;
  for (index_t r = 0; r < ranks; ++r) {
    streams.push_back(std::make_unique<device::Stream>(dev));
    owned.push_back(std::make_unique<core::FftMatvecPlan>(
        dev, *streams.back(),
        op.rank_dims(core::ApplyDirection::kForward, r)));
    plans.push_back(owned.back().get());
  }

  std::vector<std::vector<double>> inputs;
  CasePoint p;
  std::vector<core::ConstVectorView> in_views(static_cast<std::size_t>(b));
  std::vector<core::VectorView> out_views(static_cast<std::size_t>(b));
  if (!phantom) {
    for (index_t r = 0; r < b; ++r) {
      inputs.push_back(core::make_input_vector(
          dims.n_t * dims.n_m, 500 + static_cast<std::uint64_t>(r)));
      p.outputs.emplace_back(static_cast<std::size_t>(dims.n_t * dims.n_d));
    }
    for (index_t r = 0; r < b; ++r) {
      const auto i = static_cast<std::size_t>(r);
      in_views[i] = inputs[i];
      out_views[i] = p.outputs[i];
    }
  }

  // Warm every rank plan's FFT sub-plans and buffers so neither comm
  // mode pays first-touch setup inside the measured region.
  for (index_t r = 0; r < ranks; ++r) {
    const auto& local = op.rank_dims(core::ApplyDirection::kForward, r);
    std::vector<double> warm_out(
        phantom ? 0
                : static_cast<std::size_t>(local.n_t() * local.n_d_local));
    plans[static_cast<std::size_t>(r)]->forward(
        op.rank_op(core::ApplyDirection::kForward, r),
        phantom ? std::span<const double>{} : std::span<const double>(inputs[0]),
        warm_out, config);
  }

  core::DistributedMatvecPlan dist(comm::NetworkSpec::frontier());
  const core::DistributedMatvecPlan::OperatorGroup group{&op, b};
  dist.apply_batch({&group, 1}, core::ApplyDirection::kForward, config,
                   in_views, out_views, plans, mode);
  p.makespan = dist.last_timings().span();
  p.comm = dist.last_timings().comm;
  p.compute = dist.last_timings().compute_total();
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::consume_quick_flag(argc, argv);
  bench::Artifact artifact("serve_scaling", argc, argv);
  bench::reject_unknown_args(argc, argv);

  const auto spec = device::make_mi300x();
  const core::ProblemDims dims = serve::kBatchCurveShape;
  const index_t b = 16;

  std::cout << "Distributed serve scaling — one tenant sharded across a\n"
               "simulated rank group, collectives fused across the whole\n"
               "RHS batch vs charged once per request, " << spec.name << ".\n";

  // ------------------------------------------------- measured (backed)
  bool identical = true;
  const std::vector<index_t> rank_counts =
      quick ? std::vector<index_t>{4} : std::vector<index_t>{2, 4};
  for (const char* cfg : {"ddddd", "dssdd"}) {
    device::Device dev(spec);
    const auto config = precision::PrecisionConfig::parse(cfg);
    bench::print_header("measured (backed), N_m=" + std::to_string(dims.n_m) +
                        " N_d=" + std::to_string(dims.n_d) +
                        " N_t=" + std::to_string(dims.n_t) + ", b=" +
                        std::to_string(b) + ", config " + cfg);
    util::Table table({"R", "single ms", "batched ms", "per-request ms",
                       "batched comm ms", "per-request comm ms",
                       "outputs"});
    const auto single =
        run_case(dev, dims, 1, config, b, core::CommMode::kBatched);
    for (const index_t ranks : rank_counts) {
      const auto batched =
          run_case(dev, dims, ranks, config, b, core::CommMode::kBatched);
      const auto per_req =
          run_case(dev, dims, ranks, config, b, core::CommMode::kPerRequest);
      const bool ok = batched.outputs == single.outputs &&
                      per_req.outputs == single.outputs;
      identical = identical && ok;
      table.add_row({std::to_string(ranks), bench::ms(single.makespan),
                     bench::ms(batched.makespan), bench::ms(per_req.makespan),
                     bench::ms(batched.comm), bench::ms(per_req.comm),
                     ok ? "bit-identical" : "DIVERGED"});
    }
    table.print(std::cout);
    artifact.add(std::string("measured ") + cfg, table);
  }

  // ------------------------- batched vs per-request comm (gated, phantom)
  // Pure cost-model arithmetic: identical rows under --quick and full
  // runs, one row per rank-group width, first cell keys the gate.
  bench::print_header(
      "batched vs per-request comm (phantom), N_m=" +
      std::to_string(dims.n_m) + " N_d=" + std::to_string(dims.n_d) +
      " N_t=" + std::to_string(dims.n_t) + ", config dssdd, b=" +
      std::to_string(b));
  util::Table gated({"R", "b", "batched comm ms", "per-request comm ms",
                     "comm ratio", "batched e2e ms", "per-request e2e ms",
                     "vs per-request"});
  const auto gate_config = precision::PrecisionConfig::parse("dssdd");
  double gate_comm_ratio = 0.0, gate_e2e_ratio = 0.0;
  for (const index_t ranks : {index_t{2}, index_t{4}, index_t{8}}) {
    device::Device dev(spec, &util::ThreadPool::global(), /*phantom=*/true);
    const auto batched =
        run_case(dev, dims, ranks, gate_config, b, core::CommMode::kBatched);
    const auto per_req =
        run_case(dev, dims, ranks, gate_config, b, core::CommMode::kPerRequest);
    const double comm_ratio = per_req.comm / batched.comm;
    const double e2e_ratio = per_req.makespan / batched.makespan;
    if (ranks == 4) {
      gate_comm_ratio = comm_ratio;
      gate_e2e_ratio = e2e_ratio;
    }
    gated.add_row({std::to_string(ranks), std::to_string(b),
                   bench::ms(batched.comm), bench::ms(per_req.comm),
                   util::Table::fmt(comm_ratio, 2) + "x",
                   bench::ms(batched.makespan), bench::ms(per_req.makespan),
                   util::Table::fmt(e2e_ratio, 2) + "x"});
  }
  gated.print(std::cout);
  artifact.add("batched vs per-request comm", gated);

  // ------------------------------------------ paper scale (informational)
  bench::print_header(
      "paper scale (phantom, informational), N_m=5000 N_d=100 N_t=1000, "
      "config dssdd, b=" + std::to_string(b));
  util::Table paper({"R", "compute ms", "comm ms", "e2e ms",
                     "vs single-rank"});
  {
    device::Device dev(spec, &util::ThreadPool::global(), /*phantom=*/true);
    const auto single = run_case(dev, bench::paper_dims(), 1, gate_config, b,
                                 core::CommMode::kBatched);
    paper.add_row({"1", bench::ms(single.compute), bench::ms(single.comm),
                   bench::ms(single.makespan), "1.00x"});
    for (const index_t ranks : {index_t{2}, index_t{4}, index_t{8}}) {
      const auto pt = run_case(dev, bench::paper_dims(), ranks, gate_config, b,
                               core::CommMode::kBatched);
      paper.add_row({std::to_string(ranks), bench::ms(pt.compute),
                     bench::ms(pt.comm), bench::ms(pt.makespan),
                     util::Table::fmt(single.makespan / pt.makespan, 2) +
                         "x"});
    }
  }
  paper.print(std::cout);
  artifact.add("paper scale phantom dssdd", paper);

  // The comm cost model's crossover decision: the skinny paper shape
  // is wire-dominated (broadcasting the full input outweighs the
  // output-dim split's savings) so adaptive_rank_group refuses to
  // shard it; the GEMV-heavy wide shape shards profitably.
  const int paper_r = serve::adaptive_rank_group(spec, bench::paper_dims(), 8);
  const int wide_r =
      serve::adaptive_rank_group(spec, {5000, 512, 1000}, 8);
  std::cout << "\nadaptive_rank_group: paper shape {5000,100,1000} -> "
            << paper_r << " rank(s), wide shape {5000,512,1000} -> " << wide_r
            << " rank(s)\n";

  if (const auto path = artifact.write(); !path.empty()) {
    std::cout << "\nwrote artifact " << path << "\n";
  }

  // Self-checks (hard-fail so CI catches a rotted fusion before the
  // perf-diff gate): bit-identity everywhere, and at the gated shape
  // the fused collectives must beat per-request comm >= 4x and the
  // batched end-to-end makespan must win >= 1.2x.
  const bool comm_ok = gate_comm_ratio >= 4.0;
  const bool e2e_ok = gate_e2e_ratio >= 1.2;
  std::cout << "\nsharded outputs "
            << (identical ? "bit-identical" : "DIVERGED")
            << ", R=4 fused-comm ratio "
            << util::Table::fmt(gate_comm_ratio, 2) << "x (need >= 4x)"
            << ", R=4 e2e win " << util::Table::fmt(gate_e2e_ratio, 2)
            << "x (need >= 1.2x) -> "
            << (identical && comm_ok && e2e_ok ? "PASSED" : "FAILED") << "\n";
  return identical && comm_ok && e2e_ok ? 0 : 1;
}
