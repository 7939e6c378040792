// Figure 4 reproduction: weak scaling of the mixed-precision F matvec
// from 8 to 4,096 GPUs on a Frontier-like machine (MI250X GCDs,
// N_m = 5,000 p, N_d = 100, N_t = 1,000), reporting the speedup of
// the optimal mixed-precision configuration over the double baseline
// and its relative error.
//
// Composition (device/cost_model.hpp, comm/cost_model.hpp):
//  * per-rank compute: phantom paper-scale dry runs of the real
//    pipeline on the MI250X spec, with the rank-local shape implied
//    by the grid (n_m = 5,000 p_r after communication-aware rows);
//  * communication: the alpha-beta collective model (broadcast over
//    grid columns, reduction over grid rows) in the phase-1/phase-5
//    precisions;
//  * relative error: *measured* with real arithmetic by
//    DistributedMatvecPlan::apply_batch_serial over a grid
//    ShardedOperator at a reduced per-rank size with the same grid,
//    same reduction tree and same weak-scaling structure (n_m grows
//    with p_r), which is what drives the error growth past 512 GPUs.
//    The run exits nonzero unless every measured error is below the
//    paper's 1e-6.
//
// The grid schedule follows the paper: 1 row up to 512 GPUs, 8 rows
// at 1,024-2,048, 16 rows at 4,096; the precision schedule follows
// the artifact: dssdd below 512 GPUs, dssds at 512 and above.
#include <iostream>

#include "bench_common.hpp"
#include "blas/vector_ops.hpp"
#include "comm/cost_model.hpp"
#include "comm/partitioner.hpp"
#include "core/distributed_plan.hpp"

using namespace fftmv;

namespace {

index_t paper_rows(index_t p) {
  if (p <= 512) return 1;
  if (p <= 2048) return 8;
  return 16;
}

const char* paper_config(index_t p) { return p < 512 ? "dssdd" : "dssds"; }

/// The paper's bound on the mixed-precision relative error.
constexpr double kMaxRelError = 1e-6;

double phase_width(const precision::PrecisionConfig& cfg, int phase) {
  return cfg.phase(phase) == precision::Precision::kSingle ? 4.0 : 8.0;
}

/// Modelled total F-matvec time on p GPUs with the given grid/config.
double total_time(index_t p, index_t p_rows,
                  const precision::PrecisionConfig& cfg,
                  const comm::CommCostModel& net) {
  const index_t p_cols = p / p_rows;
  const core::ProblemDims global{5000 * p, 100, 1000};
  core::LocalDims local;
  local.global = global;
  local.n_m_local = global.n_m / p_cols;
  local.n_d_local = global.n_d / p_rows;

  // Per-rank compute through the real pipeline (phantom dry run).
  device::Device dev(device::make_mi250x_gcd(), &util::ThreadPool::global(),
                     /*phantom=*/true);
  device::Stream stream(dev);
  core::BlockToeplitzOperator op(dev, stream, local, {});
  if (cfg.phase(precision::kPhaseSbgemv) == precision::Precision::kSingle) {
    op.spectrum_f(stream);
  }
  core::FftMatvecPlan plan(dev, stream, local);
  std::vector<double> empty;
  plan.forward(op, {}, empty, cfg);
  const double compute = plan.last_timings().compute_total();

  // Communication: broadcast m_c over the column (p_r ranks), reduce
  // d partials over the row (p_c ranks).  Grid locality and the
  // alpha-beta terms come from comm::CommCostModel::matvec_collectives
  // — the path comm::evaluate_partition prices grids with, so this
  // harness and the partitioner cannot drift apart.
  const double bytes_m = static_cast<double>(local.n_m_local) *
                         static_cast<double>(global.n_t) *
                         phase_width(cfg, precision::kPhasePad);
  const double bytes_d = static_cast<double>(local.n_d_local) *
                         static_cast<double>(global.n_t) *
                         phase_width(cfg, precision::kPhaseUnpad);
  return compute +
         net.matvec_collectives(p_rows, p_cols, /*adjoint=*/false, bytes_m,
                                bytes_d)
             .total();
}

/// Measured relative error at reduced scale with the same grid.
double measured_error(index_t p, index_t p_rows,
                      const precision::PrecisionConfig& cfg) {
  const index_t p_cols = p / p_rows;
  // Reduced weak-scaled shape: n_m = 8 per base rank, N_d = 16, N_t = 32.
  const core::ProblemDims rdims{8 * p, 16, 32};
  device::Device dev(device::make_mi250x_gcd());
  device::Stream stream(dev);
  const comm::ProcessGrid grid(p_rows, p_cols);
  const auto local0 = core::LocalDims::single_rank(rdims);
  const auto col = core::make_first_block_col(local0, 777);
  const auto m = core::make_input_vector(rdims.n_t * rdims.n_m, 778);

  // The weak-scaled grid splits evenly, so one plan serves every rank.
  const auto fwd = core::ApplyDirection::kForward;
  const core::ShardedOperator op(dev, stream, rdims, grid, col);
  core::FftMatvecPlan plan(dev, stream, op.rank_dims(fwd, 0));
  const std::vector<core::FftMatvecPlan*> plans(static_cast<std::size_t>(p),
                                                &plan);
  core::DistributedMatvecPlan dist(comm::NetworkSpec::frontier());
  const core::DistributedMatvecPlan::OperatorGroup group{&op, 1};
  const auto apply = [&](const precision::PrecisionConfig& config) {
    std::vector<double> d(static_cast<std::size_t>(rdims.n_t * rdims.n_d));
    const core::ConstVectorView in[] = {m};
    const core::VectorView out[] = {d};
    dist.apply_batch_serial({&group, 1}, fwd, config, in, out, plans);
    return d;
  };
  const auto baseline = apply(precision::PrecisionConfig{});
  const auto mixed = apply(cfg);
  return blas::relative_l2_error(static_cast<index_t>(baseline.size()),
                                 mixed.data(), baseline.data());
}

}  // namespace

int main(int argc, char** argv) {
  bench::Artifact artifact("fig4_scaling", argc, argv);
  util::CliParser cli(argc, argv);
  cli.check_known({"max-gpus"});
  // -max-gpus caps the sweep (error measurement is real arithmetic
  // over all simulated ranks).  The sweep starts at 8 GPUs, so a lower
  // cap would run no row and leave the error check nothing to check.
  const index_t max_gpus = cli.get_int("max-gpus", 4096);
  if (max_gpus < 8) {
    std::cerr << "fig4_scaling: -max-gpus must be >= 8 (the sweep starts at "
                 "8 GPUs), got "
              << max_gpus << "\n";
    return 1;
  }

  const comm::CommCostModel net(comm::NetworkSpec::frontier());
  std::cout << "Figure 4 — mixed-precision matvec weak scaling on a\n"
               "Frontier-like machine (MI250X GCDs), N_m = 5,000 p,\n"
               "N_d = 100, N_t = 1,000; grid rows and precision configs\n"
               "follow the paper's schedule.\n";

  util::Table table({"GPUs", "grid", "config", "T_double ms", "T_mixed ms",
                     "speedup", "rel error (measured)"});
  double t4096 = 0.0;
  double max_err = 0.0;
  for (index_t p = 8; p <= max_gpus; p *= 2) {
    const index_t rows = paper_rows(p);
    const auto cfg = precision::PrecisionConfig::parse(paper_config(p));
    const double t_double =
        total_time(p, rows, precision::PrecisionConfig{}, net);
    const double t_mixed = total_time(p, rows, cfg, net);
    const double err = measured_error(p, rows, cfg);
    if (p == 4096) t4096 = t_mixed;
    if (!(err <= max_err)) max_err = err;  // a NaN error sticks
    table.add_row({std::to_string(p),
                   std::to_string(rows) + "x" + std::to_string(p / rows),
                   cfg.to_string(), bench::ms(t_double, 2),
                   bench::ms(t_mixed, 2),
                   util::Table::fmt(t_double / t_mixed, 2) + "x",
                   util::Table::fmt_sci(err)});
  }
  table.print(std::cout);
  artifact.add("weak scaling", table);
  if (const auto path = artifact.write(); !path.empty()) {
    std::cout << "wrote artifact " << path << "\n";
  }

  if (t4096 > 0.0) {
    const double params = 5000.0 * 4096 * 1000;
    std::cout << "\nAt 4,096 GPUs a matvec with "
              << util::Table::fmt(params / 1e9, 1)
              << " billion parameters (N_m*N_t) completes in "
              << util::Table::fmt(t4096, 4)
              << " s (paper: ~0.11 s on Frontier).\n";
  }
  std::cout << "Paper reference: speedups ~1.5-1.6x at small scale decaying\n"
               "towards ~1.1-1.2x at 4,096 GPUs; relative error < 1e-6,\n"
               "rising past 512 GPUs as grid rows grow n_m = N_m/p_c.\n";
  if (!(max_err < kMaxRelError)) {
    std::cerr << "FAIL: largest measured relative error "
              << util::Table::fmt_sci(max_err) << " is not below "
              << util::Table::fmt_sci(kMaxRelError) << "\n";
    return 1;
  }
  return 0;
}
