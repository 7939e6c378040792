// map_solve: MAP solves of a Bayesian linear inverse problem in a closed
// loop from one caller — the Hessian-action workload of the companion
// paper.  Every F / F* action runs through the single-RHS
// FftMatvecPlan::forward/adjoint path in the dssdd mixed-precision
// config; the serve layer and the batched paths do no work here.
#include <algorithm>
#include <cstring>
#include <memory>
#include <span>
#include <thread>

#include "blas/vector_ops.hpp"
#include "core/block_toeplitz.hpp"
#include "core/matvec_plan.hpp"
#include "core/synthetic.hpp"
#include "device/device_spec.hpp"
#include "device/fault_plan.hpp"
#include "device/stream.hpp"
#include "inverse/bayes.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace fftmv;

constexpr core::ProblemDims kDims{1000, 16, 128};
constexpr double kCgTolerance = 1e-6;
constexpr index_t kCgMaxIterations = 500;
/// A mixed-precision MAP point further than this (relative L2) from the
/// ddddd one counts as a failed solve.
constexpr double kMaxRelErr = 1e-3;

struct Problem {
  core::LocalDims local = core::LocalDims::single_rank(kDims);
  std::vector<double> first_col;
  std::vector<double> d_obs;
  inverse::PriorModel prior;
  inverse::NoiseModel noise;
};

Problem make_problem(std::uint64_t seed) {
  Problem p;
  p.first_col = core::make_first_block_col(p.local, mix_seed(seed, 1));
  p.d_obs = core::make_input_vector(kDims.n_t * kDims.n_d, mix_seed(seed, 2));
  p.prior.n_m = kDims.n_m;
  p.prior.sigma = 1.0;
  p.prior.alpha = 1.0;
  p.noise.sigma = 20.0;
  return p;
}

/// One set-up: thread pool, device, operator, plan and Hessian, plus the
/// solution of the warm-up solve.  Members are declared in dependency
/// order.
struct Solver {
  std::unique_ptr<util::ThreadPool> pool;
  std::unique_ptr<device::Device> dev;
  std::unique_ptr<device::Stream> stream;
  std::unique_ptr<core::BlockToeplitzOperator> op;
  std::unique_ptr<core::FftMatvecPlan> plan;
  std::unique_ptr<inverse::HessianOperator> hessian;
  precision::PrecisionConfig config;
  std::vector<double> first;
  inverse::CgResult first_cg;
};

std::unique_ptr<Solver> set_up(const Problem& p, const precision::PrecisionConfig& config) {
  auto s = std::make_unique<Solver>();
  // The caller plus nproc - 1 pool workers occupy every core once.
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  s->pool = std::make_unique<util::ThreadPool>(std::max(1u, cores - 1));
  s->dev = std::make_unique<device::Device>(device::make_mi300x(), s->pool.get());
  s->stream = std::make_unique<device::Stream>(*s->dev);
  s->op = std::make_unique<core::BlockToeplitzOperator>(*s->dev, *s->stream, p.local,
                                                        p.first_col);
  s->plan = std::make_unique<core::FftMatvecPlan>(*s->dev, *s->stream, p.local);
  s->hessian = std::make_unique<inverse::HessianOperator>(*s->plan, *s->op, p.prior,
                                                          p.noise, config);
  s->config = config;
  s->first.assign(static_cast<std::size_t>(s->hessian->parameter_size()), 0.0);
  s->first_cg =
      inverse::solve_map(*s->hessian, p.d_obs, s->first, kCgTolerance, kCgMaxIterations);
  return s;
}

/// inverse::solve_map rebuilt from the public calls it makes — plan
/// forward/adjoint and the prior's inverse covariance, in the same order
/// with the same arithmetic, so its solution is bit-identical — with a
/// span around each core call.  The inverse layer's self time is then
/// the solve minus the timed core calls.
inverse::CgResult traced_solve(Solver& s, const Problem& p, SpanLog& log,
                               std::int64_t op, std::span<double> m,
                               core::PhaseTimings& sim) {
  const index_t n_t = kDims.n_t;
  const double w = p.noise.inv_variance();
  std::vector<double> data(static_cast<std::size_t>(n_t * kDims.n_d));
  std::vector<double> param(static_cast<std::size_t>(n_t * kDims.n_m));
  std::vector<double> rhs(param.size());
  const int root = log.begin("inverse.solve", -1, op);
  const auto core_call = [&](bool adjoint, std::span<const double> in,
                             std::span<double> out) {
    const int id = log.begin(adjoint ? "core.adjoint" : "core.forward", root, op);
    if (adjoint) {
      s.plan->adjoint(*s.op, in, out, s.config);
    } else {
      s.plan->forward(*s.op, in, out, s.config);
    }
    log.end(id);
    sim += s.plan->last_timings();
  };
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = w * p.d_obs[i];
  core_call(true, data, rhs);
  const auto cg = inverse::conjugate_gradient(
      [&](std::span<const double> x, std::span<double> y) {
        core_call(false, x, data);
        for (auto& v : data) v *= w;
        core_call(true, data, param);
        p.prior.apply_inverse_covariance(n_t, x, y);
        for (std::size_t i = 0; i < y.size(); ++i) y[i] += param[i];
      },
      rhs, m, kCgTolerance, kCgMaxIterations);
  log.end(root);
  return cg;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

RunResult run_map_solve(const RunConfig& cfg) {
  RunResult out;
  out.report = cfg.trace ? per_layer_report() : end_to_end_report();
  Report& r = out.report;
  const Problem p = make_problem(cfg.seed);

  // Oracle: the all-double MAP point, on a set-up of its own.
  std::vector<double> m_ref;
  {
    const auto ref = set_up(p, precision::PrecisionConfig{});
    if (!ref->first_cg.converged) {
      out.checks_passed = false;
      out.notes.push_back("the ddddd reference solve did not converge");
    }
    m_ref = ref->first;
  }

  SpanLog log(cfg.trace);
  std::vector<double> setup_s;
  // Traced runs alternate untraced (even) and traced (odd) solves, so
  // the tracing overhead is measured under the same machine conditions.
  std::vector<double> wall, traced_wall, untraced_wall;
  // Every solve does identical device work, so the first timed solve's
  // simulated time is the exact per-solve figure; later stream-clock
  // differences vary in the last bits with the clock's magnitude.
  double sim_per_solve = -1.0;
  core::PhaseTimings traced_sim;
  device::FaultStats faults_seen;
  std::int64_t traced_solves = 0;
  index_t hessian_matvecs = 0;
  index_t cg_iterations = 0;
  double rel_err = 0.0;
  double mem_mb = 0.0;
  double window = 0.0;
  double cpu = 0.0;
  std::vector<double> first;  // the run's first solution, which every solve must repeat
  std::int64_t op = 0;
  for (int seg = 0; seg < kSegments; ++seg) {
    std::unique_ptr<Solver> s;
    for (int k = 0; k < kSetupsPerSegment; ++k) {
      s.reset();  // one set-up alive at a time
      const std::int64_t setup0 = now_ns();
      s = set_up(p, precision::PrecisionConfig::parse("dssdd"));
      setup_s.push_back(static_cast<double>(now_ns() - setup0) * 1e-9);
      if (first.empty()) {
        first = s->first;
        mem_mb = static_cast<double>(s->dev->memory_used()) / 1e6;
        cg_iterations = s->first_cg.iterations;
      }
      if (!same_bits(s->first, first)) out.checks_passed = false;
    }
    const index_t n = s->hessian->parameter_size();
    std::vector<double> m(static_cast<std::size_t>(n));

    // A zero-rate fault plan injects nothing; its counters count launches
    // and allocations.
    std::shared_ptr<device::FaultPlan> faults;
    if (cfg.trace) {
      faults = std::make_shared<device::FaultPlan>();
      s->dev->set_fault_plan(faults);
    }
    const double cpu0 = cpu_seconds();
    const std::int64_t start = now_ns();
    const std::int64_t stop = start + static_cast<std::int64_t>(cfg.seconds / kSegments * 1e9);
    for (; now_ns() < stop; ++op) {
      const bool traced = cfg.trace && op % 2 == 1;
      const double sim0 = s->stream->now();
      const index_t mv0 = s->hessian->matvec_count();
      const std::int64_t t0 = now_ns();
      const inverse::CgResult cg =
          traced ? traced_solve(*s, p, log, op, m, traced_sim)
                 : inverse::solve_map(*s->hessian, p.d_obs, m, kCgTolerance,
                                      kCgMaxIterations);
      const double secs = static_cast<double>(now_ns() - t0) * 1e-9;
      if (traced) {
        ++traced_solves;
      } else {
        hessian_matvecs = s->hessian->matvec_count() - mv0;
      }
      const bool identical = same_bits(m, first);
      rel_err = blas::relative_l2_error(n, m.data(), m_ref.data());
      const bool ok = cg.converged && identical && rel_err <= kMaxRelErr;
      if (!identical) out.checks_passed = false;
      out.tally.record(ok);
      wall.push_back(latency_or_miss(ok, secs));
      (traced ? traced_wall : untraced_wall).push_back(secs);
      if (sim_per_solve < 0.0) sim_per_solve = s->stream->now() - sim0;
    }
    window += static_cast<double>(now_ns() - start) * 1e-9;
    cpu += cpu_seconds() - cpu0;
    if (faults) {
      faults_seen.kernel_launches += faults->stats().kernel_launches;
      faults_seen.allocs += faults->stats().allocs;
      s->dev->set_fault_plan(nullptr);
    }
    // The isolated kernel calls run once, on the last set-up's device.
    if (cfg.trace && seg + 1 == kSegments) {
      set_kernel_metrics(r, probe_kernels(*s->dev, kDims, log));
    }
  }
  const double ops = static_cast<double>(out.tally.attempted);

  // Traced runs read the tail from their untraced solves.
  const Percentile tl = tail(cfg.trace ? untraced_wall : wall);
  out.notes.push_back("map_solve " + std::to_string(kDims.n_m) + "x" +
                      std::to_string(kDims.n_d) + "x" + std::to_string(kDims.n_t) +
                      " dssdd: " + std::to_string(out.tally.attempted) +
                      " solves in " + std::to_string(window) + " s over " +
                      std::to_string(kSegments) + " segments, " +
                      std::to_string(cg_iterations) + " CG iterations each");
  out.notes.push_back(setup_note(setup_s));
  out.notes.push_back("latency p50 " + std::to_string(median(wall).value * 1e3) + " ms, p" +
                      std::to_string(tl.pct) + " " + std::to_string(tl.value * 1e3) + " ms of " +
                      std::to_string(tl.samples) + " solves (" +
                      std::to_string(tl.beyond) + " beyond)");
  if (!cfg.trace) {
    r.set("setup_s", median(setup_s).value);
    r.set("sim_us_per_op", sim_per_solve * 1e6);
    r.set("device_mem_mb", mem_mb);
    r.set("rel_err", rel_err);
    r.set("success_rate", out.tally.success_rate());
    return out;
  }

  const auto totals = log.totals();
  const auto ms_per = [&](const char* name, bool self) {
    const auto it = totals.find(name);
    if (it == totals.end() || it->second.count == 0) return 0.0;
    const double s_total = self ? it->second.self_s : it->second.total_s;
    return s_total / static_cast<double>(it->second.count) * 1e3;
  };
  const double untraced = median_or_zero(untraced_wall);
  double untraced_s = 0.0;
  for (const double s : untraced_wall) untraced_s += s;
  r.set("e2e.latency_p50_ms", untraced * 1e3);
  r.set("e2e.latency_tail_ms", tl.value * 1e3);
  r.set("e2e.throughput_ops_s",
        untraced_s > 0.0 ? static_cast<double>(untraced_wall.size()) / untraced_s : 0.0);
  r.set("error_rate", out.tally.error_rate());
  r.set("trace.overhead_pct",
        untraced > 0.0 && !traced_wall.empty()
            ? (median_or_zero(traced_wall) / untraced - 1.0) * 100.0
            : 0.0);
  r.set("inverse.cg_iterations", static_cast<double>(cg_iterations));
  r.set("inverse.matvecs_per_solve", static_cast<double>(hessian_matvecs));
  r.set("inverse.self_ms_per_solve", ms_per("inverse.solve", true));
  r.set("core.forward_ms", ms_per("core.forward", false));
  r.set("core.adjoint_ms", ms_per("core.adjoint", false));
  const double us = traced_solves > 0 ? 1e6 / static_cast<double>(traced_solves) : 0.0;
  r.set("core.pad_sim_us", traced_sim.pad * us);
  r.set("core.fft_sim_us", traced_sim.fft * us);
  r.set("core.sbgemv_sim_us", traced_sim.sbgemv * us);
  r.set("core.ifft_sim_us", traced_sim.ifft * us);
  r.set("core.unpad_sim_us", traced_sim.unpad * us);
  r.set("core.overlap_ratio",
        traced_sim.span() > 0.0 ? traced_sim.total() / traced_sim.span() : 0.0);
  r.set("device.launches_per_op", static_cast<double>(faults_seen.kernel_launches) / ops);
  r.set("device.allocs_per_op", static_cast<double>(faults_seen.allocs) / ops);
  r.set("util.cpu_ms_per_op", cpu / ops * 1e3);
  r.set("util.cpu_over_wall", cpu / window);
  write_spans(cfg, "map_solve", log, out);
  return out;
}

}  // namespace perfbench
