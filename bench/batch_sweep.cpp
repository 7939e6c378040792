// Batching curve of FftMatvecPlan::apply_batch: b same-shape
// right-hand sides through ONE fused pipeline (widened phase-2/4 FFT
// batches, one multi-RHS SBGEMV) vs b sequential forward() calls.
//
// Three sweeps over b = 1..32:
//   measured     - backed device at a reduced shape; real arithmetic,
//                  and the batched outputs are verified bit-identical
//                  to the sequential path before any timing is
//                  reported.
//   cross-tenant - backed; the batch's b RHS are spread round-robin
//                  over `--tenants T` distinct operators and executed
//                  as ONE grouped apply_batch (per-group operator
//                  pointers into the phase-3 grouped SBGEMV) vs the
//                  per-tenant dispatch same-tenant-only coalescing
//                  would issue for the identical mix; outputs are
//                  verified bit-identical between the two dispatches.
//   modelled     - phantom dry runs at the paper's shape (N_m=5,000,
//                  N_d=100, N_t=1,000), where the SBGEMV phase
//                  dominates and batching pays the operator's matrix
//                  traffic once per frequency block instead of once
//                  per request.
//
// `--quick` caps the sweeps at b = 8 for the CI smoke step; `--json
// <path>` writes the tracked perf artifact.  Self-checking: exits
// nonzero unless b = 8 beats b = 1 on per-RHS simulated time in the
// measured sweep AND the grouped b = 8 cross-tenant dispatch beats
// the per-tenant dispatch of the same mix, so a regressed batched (or
// grouped) pipeline fails CI even before the perf-diff gate runs.
#include <algorithm>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "serve/scheduler.hpp"
#include "util/thread_pool.hpp"

using namespace fftmv;

namespace {

struct SweepPoint {
  index_t b = 0;
  double batched_per_rhs_s = 0.0;
  double sequential_per_rhs_s = 0.0;
};

/// Per-RHS simulated seconds of one apply_batch with b RHS vs b
/// sequential applies, on the given (possibly phantom) device.
SweepPoint sweep_point(device::Device& dev, const core::ProblemDims& dims,
                       const precision::PrecisionConfig& config, index_t b,
                       bool verify) {
  const auto local = core::LocalDims::single_rank(dims);
  device::Stream stream(dev);
  const bool phantom = dev.phantom();

  // Operator and inputs are materialised only on a backed device; a
  // phantom run charges the identical simulated time with empty spans.
  std::vector<double> col;
  if (!phantom) col = core::make_first_block_col(local, 1234);
  core::BlockToeplitzOperator op(dev, stream, local, col);
  if (config.phase(precision::kPhaseSbgemv) == precision::Precision::kSingle) {
    op.spectrum_f(stream);  // warm the one-time cast
  }

  std::vector<std::vector<double>> inputs, outputs, sequential;
  std::vector<core::ConstVectorView> in_views(static_cast<std::size_t>(b));
  std::vector<core::VectorView> out_views(static_cast<std::size_t>(b));
  if (!phantom) {
    for (index_t r = 0; r < b; ++r) {
      inputs.push_back(core::make_input_vector(
          dims.n_t * dims.n_m, 100 + static_cast<std::uint64_t>(r)));
      outputs.emplace_back(static_cast<std::size_t>(dims.n_t * dims.n_d));
      sequential.emplace_back(static_cast<std::size_t>(dims.n_t * dims.n_d));
    }
    for (index_t r = 0; r < b; ++r) {
      in_views[static_cast<std::size_t>(r)] = inputs[static_cast<std::size_t>(r)];
      out_views[static_cast<std::size_t>(r)] = outputs[static_cast<std::size_t>(r)];
    }
  }

  core::FftMatvecPlan plan(dev, stream, local);
  // Warm the plan's FFT sub-plans and buffers so neither path pays
  // first-touch setup inside the measured region.
  std::vector<double> warm_out(phantom ? 0 : outputs[0].size());
  plan.forward(op, phantom ? std::span<const double>{} : inputs[0], warm_out,
               config);

  SweepPoint p;
  p.b = b;
  double t0 = stream.now();
  plan.apply_batch(op, core::ApplyDirection::kForward, config, in_views,
                   out_views);
  p.batched_per_rhs_s = (stream.now() - t0) / static_cast<double>(b);

  t0 = stream.now();
  for (index_t r = 0; r < b; ++r) {
    plan.forward(op,
                 phantom ? std::span<const double>{}
                         : std::span<const double>{inputs[static_cast<std::size_t>(r)]},
                 phantom ? std::span<double>{}
                         : std::span<double>{sequential[static_cast<std::size_t>(r)]},
                 config);
  }
  p.sequential_per_rhs_s = (stream.now() - t0) / static_cast<double>(b);

  if (verify && !dev.phantom()) {
    for (index_t r = 0; r < b; ++r) {
      if (outputs[static_cast<std::size_t>(r)] !=
          sequential[static_cast<std::size_t>(r)]) {
        std::cerr << "batch_sweep: batched output diverged from sequential at b="
                  << b << " rhs " << r << "\n";
        std::exit(1);
      }
    }
  }
  return p;
}

struct CrossTenantPoint {
  index_t b = 0;
  index_t tenants = 0;
  double grouped_per_rhs_s = 0.0;
  double per_tenant_per_rhs_s = 0.0;
};

/// b RHS spread round-robin over `tenants` distinct operators, run as
/// ONE grouped apply_batch vs the per-tenant apply_batch dispatches
/// same-tenant-only coalescing would issue for the identical mix.
/// Outputs of the two dispatches are verified bit-identical.
CrossTenantPoint cross_tenant_point(device::Device& dev,
                                    const core::ProblemDims& dims,
                                    const precision::PrecisionConfig& config,
                                    index_t b, index_t tenants) {
  const auto local = core::LocalDims::single_rank(dims);
  device::Stream stream(dev);

  std::vector<std::unique_ptr<core::BlockToeplitzOperator>> ops;
  for (index_t t = 0; t < tenants; ++t) {
    const auto col = core::make_first_block_col(local, 4000 + static_cast<std::uint64_t>(t));
    ops.push_back(std::make_unique<core::BlockToeplitzOperator>(dev, stream,
                                                                local, col));
  }

  // RHS r belongs to tenant r % tenants; lay the requests out group
  // by group (within-tenant arrival order preserved), exactly as the
  // scheduler sorts a popped shape-keyed batch.
  std::vector<std::vector<double>> inputs, grouped_out, per_tenant_out;
  std::vector<core::FftMatvecPlan::OperatorGroup> groups;
  for (index_t t = 0; t < tenants; ++t) {
    core::FftMatvecPlan::OperatorGroup g{ops[static_cast<std::size_t>(t)].get(), 0};
    for (index_t r = t; r < b; r += tenants) {
      inputs.push_back(core::make_input_vector(
          dims.n_t * dims.n_m, 100 + static_cast<std::uint64_t>(r)));
      ++g.rhs_count;
    }
    groups.push_back(g);
  }
  grouped_out.assign(static_cast<std::size_t>(b),
                     std::vector<double>(static_cast<std::size_t>(dims.n_t * dims.n_d)));
  per_tenant_out = grouped_out;
  std::vector<core::ConstVectorView> in_views(inputs.begin(), inputs.end());
  std::vector<core::VectorView> grouped_views(grouped_out.begin(), grouped_out.end());
  std::vector<core::VectorView> per_tenant_views(per_tenant_out.begin(),
                                                 per_tenant_out.end());

  core::FftMatvecPlan plan(dev, stream, local);
  std::vector<double> warm_out(grouped_out[0].size());
  plan.forward(*ops.front(), inputs[0], warm_out, config);

  CrossTenantPoint p;
  p.b = b;
  p.tenants = tenants;
  double t0 = stream.now();
  plan.apply_batch(groups, core::ApplyDirection::kForward, config, in_views,
                   grouped_views);
  p.grouped_per_rhs_s = (stream.now() - t0) / static_cast<double>(b);

  t0 = stream.now();
  std::size_t r0 = 0;
  for (const auto& g : groups) {
    plan.apply_batch(*g.op, core::ApplyDirection::kForward, config,
                     {in_views.data() + r0, static_cast<std::size_t>(g.rhs_count)},
                     {per_tenant_views.data() + r0,
                      static_cast<std::size_t>(g.rhs_count)});
    r0 += static_cast<std::size_t>(g.rhs_count);
  }
  p.per_tenant_per_rhs_s = (stream.now() - t0) / static_cast<double>(b);

  if (grouped_out != per_tenant_out) {
    std::cerr << "batch_sweep: grouped output diverged from per-tenant dispatch "
                 "at b=" << b << "\n";
    std::exit(1);
  }
  return p;
}

struct SweepResult {
  util::Table table{{"b", "batched/RHS ms", "sequential/RHS ms",
                     "vs sequential", "vs b=1"}};
  double per_rhs_b1 = 0.0;  ///< the self-check endpoints
  double per_rhs_b8 = 0.0;
};

SweepResult run_sweep(device::Device& dev, const core::ProblemDims& dims,
                      const precision::PrecisionConfig& config,
                      const std::vector<index_t>& bs, bool verify) {
  SweepResult r;
  for (const index_t b : bs) {
    const auto p = sweep_point(dev, dims, config, b, verify);
    if (b == 1) r.per_rhs_b1 = p.batched_per_rhs_s;
    if (b == 8) r.per_rhs_b8 = p.batched_per_rhs_s;
    r.table.add_row({std::to_string(b), bench::ms(p.batched_per_rhs_s),
                     bench::ms(p.sequential_per_rhs_s),
                     util::Table::fmt(p.sequential_per_rhs_s / p.batched_per_rhs_s, 2) + "x",
                     util::Table::fmt(r.per_rhs_b1 / p.batched_per_rhs_s, 2) + "x"});
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::consume_quick_flag(argc, argv);
  bench::Artifact artifact("batch_sweep", argc, argv);
  std::string tenants_arg;
  util::consume_flag(argc, argv, "--tenants", "-tenants", &tenants_arg);
  const index_t tenants =
      tenants_arg.empty() ? 4 : std::atol(tenants_arg.c_str());
  if (tenants < 2) {
    // A single tenant cannot exercise grouping (and would reduce the
    // grouped-vs-per-tenant self-check to comparing a dispatch with
    // itself).
    std::cerr << "batch_sweep: --tenants expects a count >= 2\n";
    return 1;
  }
  bench::reject_unknown_args(argc, argv);

  const std::vector<index_t> bs =
      quick ? std::vector<index_t>{1, 2, 4, 8}
            : std::vector<index_t>{1, 2, 4, 8, 16, 32};
  const auto spec = device::make_mi300x();
  // The serve shape the batching curve is published at.
  const core::ProblemDims measured_dims = serve::kBatchCurveShape;

  std::cout << "Multi-RHS batching curve — apply_batch (fused FFT+SBGEMV\n"
               "pipeline) vs sequential per-request applies, " << spec.name
            << ".\n";

  SweepResult gate;  // ddddd measured sweep drives the self-check
  {
    device::Device dev(spec);
    bench::print_header("measured (backed), N_m=" +
                        std::to_string(measured_dims.n_m) + " N_d=" +
                        std::to_string(measured_dims.n_d) + " N_t=" +
                        std::to_string(measured_dims.n_t) + ", config ddddd");
    gate = run_sweep(dev, measured_dims, precision::PrecisionConfig{}, bs,
                     /*verify=*/true);
    gate.table.print(std::cout);
    artifact.add("measured ddddd", gate.table);
  }
  {
    device::Device dev(spec);
    bench::print_header("measured (backed), config dssdd");
    const auto r = run_sweep(dev, measured_dims,
                             precision::PrecisionConfig::parse("dssdd"), bs,
                             /*verify=*/true);
    r.table.print(std::cout);
    artifact.add("measured dssdd", r.table);
  }
  double grouped_b8 = 0.0, per_tenant_b8 = 0.0;  // cross-tenant self-check
  {
    device::Device dev(spec);
    bench::print_header("cross-tenant grouped (backed), " +
                        std::to_string(tenants) +
                        " tenants round-robin, config ddddd");
    util::Table table{{"b", "tenants", "grouped/RHS ms", "per-tenant/RHS ms",
                       "grouped vs per-tenant"}};
    for (const index_t b : bs) {
      const auto p = cross_tenant_point(dev, measured_dims,
                                        precision::PrecisionConfig{}, b,
                                        std::min(tenants, b));
      if (b == 8) {
        grouped_b8 = p.grouped_per_rhs_s;
        per_tenant_b8 = p.per_tenant_per_rhs_s;
      }
      table.add_row({std::to_string(b), std::to_string(p.tenants),
                     bench::ms(p.grouped_per_rhs_s),
                     bench::ms(p.per_tenant_per_rhs_s),
                     util::Table::fmt(p.per_tenant_per_rhs_s / p.grouped_per_rhs_s, 2) +
                         "x"});
    }
    table.print(std::cout);
    artifact.add("cross-tenant grouped ddddd", table);
  }
  if (!quick) {
    device::Device dev(spec, &util::ThreadPool::global(), /*phantom=*/true);
    bench::print_header("modelled (phantom), paper scale N_m=5000 N_d=100 N_t=1000");
    const auto r = run_sweep(dev, bench::paper_dims(),
                             precision::PrecisionConfig::parse("dssdd"), bs,
                             /*verify=*/false);
    r.table.print(std::cout);
    artifact.add("modelled paper dssdd", r.table);
  }

  if (const auto path = artifact.write(); !path.empty()) {
    std::cout << "\nwrote artifact " << path << "\n";
  }

  // Self-checks: neither batching speedup can silently rot — b = 8
  // must beat b = 1 on per-RHS simulated time, and the grouped
  // cross-tenant dispatch at b = 8 must beat the per-tenant dispatch
  // of the same request mix.
  const bool batched_ok = gate.per_rhs_b8 > 0.0 && gate.per_rhs_b1 > 0.0 &&
                          gate.per_rhs_b8 < gate.per_rhs_b1;
  const bool grouped_ok = grouped_b8 > 0.0 && per_tenant_b8 > 0.0 &&
                          grouped_b8 < per_tenant_b8;
  std::cout << "\nb=8 per-RHS " << bench::ms(gate.per_rhs_b8) << " ms vs b=1 "
            << bench::ms(gate.per_rhs_b1) << " ms ("
            << util::Table::fmt(gate.per_rhs_b1 / gate.per_rhs_b8, 2) << "x), "
            << "grouped b=8 " << bench::ms(grouped_b8) << " ms vs per-tenant "
            << bench::ms(per_tenant_b8) << " ms ("
            << util::Table::fmt(per_tenant_b8 / grouped_b8, 2) << "x) -> "
            << (batched_ok && grouped_ok ? "PASSED" : "FAILED") << "\n";
  return batched_ok && grouped_ok ? 0 : 1;
}
