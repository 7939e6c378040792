// Serving-layer throughput: batching + plan caching + multi-stream
// scheduling vs the naive one-plan-per-request loop, plus the
// cross-tenant batching ablation on a many-tenant skewed workload.
//
// A mixed-key workload (several tenant shapes x precision configs x
// forward/adjoint) is replayed two ways:
//   naive  - what the one-shot executables do per request today:
//            build the BlockToeplitzOperator and FftMatvecPlan, apply
//            once, tear down; single stream.
//   served - AsyncScheduler: operators built once per tenant, plans
//            reused through the LRU cache, same-key requests
//            coalesced into batches and dispatched across streams.
// Reported: wall seconds, simulated device seconds (naive: its single
// stream; served: busiest-lane makespan + one-time tenant setup), and
// the speedups.
//
// The skew section then replays one zipf-skewed trace over many
// same-shape tenants (few in-flight requests per tenant — the regime
// where same-tenant-only coalescing collapses to batch size ~1)
// through the scheduler twice: cross_tenant_batching off (the PR 3
// behaviour) and on (shape-keyed coalescing + grouped dispatch).
// Outputs must be bit-identical between the modes — per-RHS
// arithmetic is independent of batch composition — and grouped
// cross-tenant batching must beat same-tenant-only coalescing by
// >= 1.5x on simulated lane makespan.
//
// `--quick` shrinks the workloads for the CI smoke step; `--json
// <path>` writes the tracked perf artifact.  Exits nonzero if the
// served path fails to beat naive on simulated time, or the skew
// self-check fails — both deterministic metrics — so CI catches a
// regressed serving layer.
#include <cmath>
#include <future>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/dense_reference.hpp"
#include "serve/scheduler.hpp"
#include "util/trace.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace fftmv;

namespace {

struct WorkloadItem {
  std::size_t tenant;
  core::ApplyDirection direction;
  precision::PrecisionConfig config;
};

struct TenantData {
  core::ProblemDims dims;
  std::vector<double> col;
  std::vector<double> fwd_input;
  std::vector<double> adj_input;
};

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::consume_quick_flag(argc, argv);
  bench::Artifact artifact("serve_throughput", argc, argv);
  // `-trace PATH` records the whole bench (all modes and ablations)
  // as a Chrome trace — see util/trace.hpp.
  std::string trace_path;
  bench::consume_flag(argc, argv, "--trace", "-trace", &trace_path);
  bench::reject_unknown_args(argc, argv);
  if (!trace_path.empty()) util::trace::start();

  const index_t requests = quick ? 96 : 512;
  const int streams = 2;
  const int max_batch = 8;
  const auto spec = device::make_mi300x();

  std::vector<TenantData> tenants;
  for (index_t t = 0; t < 3; ++t) {
    TenantData td;
    td.dims = core::ProblemDims{48 + 24 * t, 4 + 2 * (t % 2), 24 + 8 * t};
    const auto local = core::LocalDims::single_rank(td.dims);
    td.col = core::make_first_block_col(local, 100 + t);
    td.fwd_input = core::make_input_vector(td.dims.n_t * td.dims.n_m, 200 + t);
    td.adj_input = core::make_input_vector(td.dims.n_t * td.dims.n_d, 300 + t);
    tenants.push_back(std::move(td));
  }
  const precision::PrecisionConfig configs[] = {
      precision::PrecisionConfig::parse("ddddd"),
      precision::PrecisionConfig::parse("dssdd")};

  // Deterministic mixed-key trace: rotate tenants, configs and
  // directions at co-prime strides so same-key requests recur (the
  // repeated-key traffic a cache and batcher exist for).
  std::vector<WorkloadItem> trace;
  trace.reserve(static_cast<std::size_t>(requests));
  for (index_t r = 0; r < requests; ++r) {
    trace.push_back({static_cast<std::size_t>(r % 3),
                     (r % 5 == 0) ? core::ApplyDirection::kAdjoint
                                  : core::ApplyDirection::kForward,
                     configs[(r / 3) % 2]});
  }

  bench::print_header("Serving throughput — mixed-key workload (" +
                      std::to_string(requests) + " requests, 3 tenants, 2 configs)");

  // ------------------------------------------------------------ naive
  util::WallTimer naive_timer;
  double naive_sim = 0.0;
  {
    device::Device dev(spec);
    device::Stream stream(dev);
    for (const auto& item : trace) {
      const auto& td = tenants[item.tenant];
      const auto local = core::LocalDims::single_rank(td.dims);
      // Re-pay operator + plan setup per request, exactly like a
      // one-shot executable invocation.
      core::BlockToeplitzOperator op(dev, stream, local, td.col);
      core::FftMatvecPlan plan(dev, stream, local);
      if (item.config.phase(precision::kPhaseSbgemv) ==
          precision::Precision::kSingle) {
        op.spectrum_f(stream);
      }
      if (item.direction == core::ApplyDirection::kForward) {
        std::vector<double> out(static_cast<std::size_t>(td.dims.n_t * td.dims.n_d));
        plan.forward(op, td.fwd_input, out, item.config);
      } else {
        std::vector<double> out(static_cast<std::size_t>(td.dims.n_t * td.dims.n_m));
        plan.adjoint(op, td.adj_input, out, item.config);
      }
    }
    naive_sim = stream.now();
  }
  const double naive_wall = naive_timer.seconds();

  // ----------------------------------------------------------- served
  // The production configuration (multi-lane) drives the gated
  // speedup-vs-naive row.
  index_t failed = 0;
  double served_wall = 0.0;
  double served_sim = 0.0;
  serve::MetricsSnapshot snap;
  {
    util::WallTimer served_timer;
    serve::ServeOptions opts;
    opts.num_streams = streams;
    opts.max_batch = max_batch;
    // Generous linger: the whole trace is submitted well inside the
    // first linger window, so batch composition — and with it the
    // gated "speedup sim" metric — is near-deterministic run to run
    // instead of racing the submission loop against the worker lanes.
    opts.linger_seconds = 5e-3;
    opts.plan_cache_capacity = 24;
    serve::AsyncScheduler scheduler(spec, opts);
    std::vector<serve::TenantId> ids;
    for (const auto& td : tenants) ids.push_back(scheduler.add_tenant(td.dims, td.col));

    std::vector<std::future<serve::MatvecResult>> futures;
    futures.reserve(trace.size());
    for (const auto& item : trace) {
      const auto& td = tenants[item.tenant];
      futures.push_back(scheduler.submit(serve::Request{
          .tenant = ids[item.tenant],
          .direction = item.direction,
          .config = item.config,
          .input = item.direction == core::ApplyDirection::kForward
                       ? td.fwd_input
                       : td.adj_input,
          .qos = {}}));
    }
    scheduler.drain();
    for (auto& f : futures) {
      try {
        f.get();
      } catch (const std::exception&) {
        ++failed;
      }
    }
    served_wall = served_timer.seconds();
    served_sim = scheduler.max_lane_sim_seconds() + scheduler.setup_sim_seconds();
    snap = scheduler.metrics();
  }

  util::Table table({"path", "wall ms", "sim ms", "req/s (wall)", "speedup wall",
                     "speedup sim"});
  const double n = static_cast<double>(requests);
  table.add_row({"naive per-request", bench::ms(naive_wall), bench::ms(naive_sim),
                 util::Table::fmt(n / naive_wall, 0), "1.00x", "1.00x"});
  table.add_row({"served (batch+cache)", bench::ms(served_wall), bench::ms(served_sim),
                 util::Table::fmt(n / served_wall, 0),
                 util::Table::fmt(naive_wall / served_wall, 2) + "x",
                 util::Table::fmt(naive_sim / served_sim, 2) + "x"});
  table.print(std::cout);
  artifact.add("throughput", table);

  std::cout << "\nserved metrics:\n";
  const auto summary = snap.summary_table();
  const auto latency = snap.latency_table();
  const auto batches = snap.batch_table();
  summary.print(std::cout);
  latency.print(std::cout);
  batches.print(std::cout);
  artifact.add("served summary", summary);
  artifact.add("served latency", latency);
  artifact.add("served batch histogram", batches);

  // -------------------------------------------- cross-tenant skew
  // One deterministic zipf^0.7 trace over many same-shape tenants,
  // served with cross-tenant batching off (same-tenant-only, the PR 3
  // batcher) and on (shape-keyed coalescing, grouped dispatch).  The
  // single worker lane and generous linger make batch composition —
  // and with it the gated simulated-time ratio — reproducible.
  const index_t skew_tenants = 128;
  const index_t skew_requests = quick ? 64 : 128;
  const core::ProblemDims skew_dims{96, 6, 40};
  const auto skew_local = core::LocalDims::single_rank(skew_dims);
  bench::print_header("cross-tenant skew — " + std::to_string(skew_requests) +
                      " requests over " + std::to_string(skew_tenants) +
                      " same-shape tenants (zipf)");

  std::vector<double> zipf_cum;
  double zipf_h = 0.0;
  for (index_t t = 0; t < skew_tenants; ++t) {
    zipf_h += std::pow(static_cast<double>(t + 1), -0.7);
    zipf_cum.push_back(zipf_h);
  }
  util::Rng skew_rng(7);
  std::vector<std::size_t> skew_trace;
  for (index_t r = 0; r < skew_requests; ++r) {
    const double u = skew_rng.next_double() * zipf_h;
    std::size_t t = 0;
    while (zipf_cum[t] < u) ++t;
    skew_trace.push_back(t);
  }
  std::vector<std::vector<double>> skew_cols;
  for (index_t t = 0; t < skew_tenants; ++t) {
    skew_cols.push_back(core::make_first_block_col(
        skew_local, 900 + static_cast<std::uint64_t>(t)));
  }
  std::vector<std::vector<double>> skew_inputs;
  for (index_t r = 0; r < skew_requests; ++r) {
    skew_inputs.push_back(core::make_input_vector(
        skew_dims.n_t * skew_dims.n_m, 1300 + static_cast<std::uint64_t>(r)));
  }

  double skew_sim[2] = {0.0, 0.0};
  double skew_mean_batch[2] = {0.0, 0.0};
  int skew_max_batch = 0;
  index_t skew_failed = 0;
  std::vector<std::vector<std::vector<double>>> skew_outputs(2);
  for (int mode = 0; mode < 2; ++mode) {
    serve::ServeOptions sopts;
    sopts.num_streams = 1;
    sopts.max_batch = 0;  // the scheduler's default cap
    // Generous linger: the whole trace must land inside the first
    // linger window even on a stalled CI runner, or partial batches
    // would erode the gated (and hard-checked) speedup.
    sopts.linger_seconds = 50e-3;
    sopts.plan_cache_capacity = 4;
    sopts.cross_tenant_batching = mode == 1;
    serve::AsyncScheduler sched(spec, sopts);
    skew_max_batch = sched.options().max_batch;
    std::vector<serve::TenantId> tids;
    for (index_t t = 0; t < skew_tenants; ++t) {
      tids.push_back(
          sched.add_tenant(skew_dims, skew_cols[static_cast<std::size_t>(t)]));
    }
    std::vector<std::future<serve::MatvecResult>> skew_futures;
    for (index_t r = 0; r < skew_requests; ++r) {
      skew_futures.push_back(sched.submit(serve::Request{
          .tenant = tids[skew_trace[static_cast<std::size_t>(r)]],
          .config = configs[0],
          .input = skew_inputs[static_cast<std::size_t>(r)],
          .qos = {}}));
    }
    sched.drain();
    for (auto& f : skew_futures) {
      try {
        skew_outputs[mode].push_back(f.get().output);
      } catch (const std::exception&) {
        ++skew_failed;
        skew_outputs[mode].emplace_back();
      }
    }
    skew_sim[mode] = sched.max_lane_sim_seconds();
    skew_mean_batch[mode] = sched.metrics().mean_batch_size();
  }
  const bool skew_identical = skew_outputs[0] == skew_outputs[1];
  const double skew_speedup = skew_sim[0] / skew_sim[1];

  util::Table skew_table({"coalescing", "sim ms", "mean batch", "vs same-tenant"});
  skew_table.add_row({"same-tenant only", bench::ms(skew_sim[0]),
                      util::Table::fmt(skew_mean_batch[0], 2), "1.00x"});
  skew_table.add_row({"grouped cross-tenant", bench::ms(skew_sim[1]),
                      util::Table::fmt(skew_mean_batch[1], 2),
                      util::Table::fmt(skew_speedup, 2) + "x"});
  skew_table.print(std::cout);
  std::cout << "default max_batch " << skew_max_batch
            << ", outputs across modes "
            << (skew_identical ? "bit-identical" : "DIVERGED") << "\n";
  artifact.add("cross-tenant skew", skew_table);

  if (!trace_path.empty()) {
    util::trace::stop();
    const auto trace_stats = util::trace::stats();
    util::Table trace_table({"events", "dropped"});
    trace_table.add_row({std::to_string(trace_stats.events),
                         std::to_string(trace_stats.dropped)});
    artifact.add("trace", trace_table);
    if (util::trace::write_file(trace_path)) {
      std::cout << "wrote trace " << trace_path << " (" << trace_stats.events
                << " events, " << trace_stats.dropped << " dropped)\n";
    } else {
      std::cerr << "serve_throughput: cannot write trace file " << trace_path
                << "\n";
    }
  }

  if (const auto path = artifact.write(); !path.empty()) {
    std::cout << "\nwrote artifact " << path << "\n";
  }

  // Self-checks: served must beat naive on simulated time, and on the
  // skewed workload grouped cross-tenant batching must beat
  // same-tenant-only coalescing by >= 1.5x with bit-identical outputs.
  const bool ok = failed == 0 && naive_sim / served_sim > 1.0 &&
                  skew_failed == 0 && skew_identical && skew_speedup >= 1.5;
  std::cout << "\nserved vs naive: " << util::Table::fmt(naive_sim / served_sim, 2)
            << "x simulated, " << util::Table::fmt(naive_wall / served_wall, 2)
            << "x wall, " << failed << " failed; cross-tenant skew "
            << util::Table::fmt(skew_speedup, 2) << "x (need >= 1.5x), "
            << skew_failed << " failed -> " << (ok ? "PASSED" : "FAILED") << "\n";
  return ok ? 0 : 1;
}
