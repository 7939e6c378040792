// Chaos harness for the fault-tolerant serving layer (self-checking,
// CI-gated).  Two sections:
//
// Section A — fault storm.  Three tenants (two unsharded shapes plus
// one sharded across a 2-rank group) serve a fixed round-robin burst
// twice: once clean, once under a deterministic device::FaultPlan
// combining scripted faults (the first two kernel launches fail, so
// the first batch must retry twice; rank 1 of the sharded group is
// down for group sync 1, forcing one degraded single-rank dispatch)
// with low-rate seeded Bernoulli kernel/alloc faults.  Self-checks:
// every future resolves, every COMPLETED request's output is
// bit-identical to the clean run (retries, quarantine and the
// degraded path must never change numerics), retries are attempted
// and succeed, the rank failure and degraded dispatch are observed,
// >= 95% of requests complete, and every failure carries a transient
// error code with the errors map summing to `failed`.
//
// Section B — overload.  A single lane with max_queue_depth 32 takes
// a burst of best-effort flood requests (one shape) followed by a
// deadlined tight class (another shape, WFQ weight 3, deadline
// calibrated to 2x the worst tight latency of an UNBOUNDED no-deadline
// calibration run — generous by construction, since the bounded queue
// is far shorter).  Under kShedBestEffort the tight class displaces
// pending best-effort work and meets its deadlines; the kRejectNew
// contrast run refuses the same tight arrivals at the bound
// (informational).  Self-checks: shed-best-effort tight attainment
// >= 0.9, at least one shed and one rejection, and no lost futures
// (completed + failed == submitted).
//
// Section C — SDC storm.  The same three tenants serve the Section A
// burst under seeded silent-data-corruption injection (the FaultPlan's
// buffer site flips an exponent bit in grouped-GEMV outputs: the first
// two buffer writes scripted plus a Bernoulli rate).  A verify-off
// baseline completes "successfully" with wrong answers (the
// corrupted-and-undetected contrast row); the checksum-mode run must
// deliver >= 99% results bit-identical to the clean run, detect every
// injected fault (detection rate = serve detections / injected buffer
// faults), recompute transparently, and surface ZERO false positives.
// Then two deterministic core-level probes: the modelled checksum
// overhead at the serve shape (verify-on vs verify-off makespan,
// <= 10%) and a zero-false-positive sweep running paranoid mode over
// ALL 32 precision configs x both directions with no injection —
// outputs must match verify-off bit-for-bit and nothing may throw.
//
// Reported: a "resilience" table ("retry success rate" is tracked by
// cmake/perf_diff.py), an "overload" table (the "shed-best-effort"
// row's "SLO attainment" is tracked) and an "sdc" table ("sdc
// detection rate" and "verify overhead" are tracked).  `--quick`
// shrinks the bursts for the CI smoke step.  Exits nonzero on any
// self-check failure.
#include <algorithm>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "core/block_toeplitz.hpp"
#include "device/fault_plan.hpp"
#include "serve/scheduler.hpp"
#include "util/thread_pool.hpp"

using namespace fftmv;

namespace {

struct TenantSpec {
  core::ProblemDims dims;
  int rank_group = 1;
  std::vector<double> col;
};

struct StormResult {
  std::vector<serve::MatvecResult> results;  // submission order
  serve::MetricsSnapshot snap;
  bool sharded_degraded = false;
};

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::consume_quick_flag(argc, argv);
  bench::Artifact artifact("serve_faults", argc, argv);
  bench::reject_unknown_args(argc, argv);

  const auto spec = device::make_mi300x();
  bool ok = true;

  // ------------------------------------------------ Section A: fault storm
  std::vector<TenantSpec> tenants;
  {
    std::size_t i = 0;
    for (const auto& [dims, rank_group] :
         {std::pair{core::ProblemDims{96, 6, 48}, 1},
          std::pair{core::ProblemDims{128, 4, 64}, 1},
          std::pair{core::ProblemDims{96, 8, 48}, 2}}) {
      TenantSpec ts;
      ts.dims = dims;
      ts.rank_group = rank_group;
      ts.col = core::make_first_block_col(core::LocalDims::single_rank(dims),
                                          700 + i++);
      tenants.push_back(std::move(ts));
    }
  }
  const int n_storm = quick ? 24 : 48;  // round-robin across the tenants
  std::vector<std::vector<double>> storm_inputs;
  for (int i = 0; i < n_storm; ++i) {
    const auto& dims = tenants[static_cast<std::size_t>(i) % tenants.size()].dims;
    storm_inputs.push_back(
        core::make_input_vector(dims.n_t * dims.n_m, 800 + i));
  }

  const auto run_storm = [&](bool faulted) {
    StormResult out;
    serve::ServeOptions opts;
    opts.num_streams = 1;
    opts.max_batch = 4;
    opts.linger_seconds = 200e-6;
    opts.max_retries = 3;
    opts.retry_backoff_seconds = 20e-6;
    serve::AsyncScheduler sched(spec, opts);
    std::vector<serve::TenantId> ids;
    for (const auto& ts : tenants) {
      ids.push_back(sched.add_tenant(ts.dims, ts.col, ts.rank_group));
    }
    if (faulted) {
      // Attached AFTER tenant setup, so fault counters index the
      // request path: launches 0-1 (the first batch's first two
      // attempts) fail, rank 1 is down for group sync 1, and a low
      // seeded Bernoulli rate keeps faults arriving throughout.
      device::FaultPlanOptions fopts;
      fopts.seed = 2026;
      fopts.kernel_fault_rate = 0.002;
      fopts.alloc_fault_rate = 0.001;
      auto plan = std::make_shared<device::FaultPlan>(fopts);
      plan->fail_kernel_launches(0, 2);
      plan->fail_rank(1, 1, 2);
      sched.device().set_fault_plan(plan);
    }
    std::vector<std::future<serve::MatvecResult>> futures;
    for (int i = 0; i < n_storm; ++i) {
      futures.push_back(sched.submit(
          ids[static_cast<std::size_t>(i) % tenants.size()],
          core::ApplyDirection::kForward, precision::PrecisionConfig{},
          storm_inputs[static_cast<std::size_t>(i)]));
    }
    for (auto& f : futures) out.results.push_back(f.get());
    sched.drain();
    out.sharded_degraded = sched.tenant_degraded(ids.back());
    out.snap = sched.metrics();
    return out;
  };

  bench::print_header("Serve fault storm — scripted + seeded faults vs clean (" +
                      std::to_string(n_storm) + " requests, 3 tenants, 1 lane)");
  const StormResult clean = run_storm(/*faulted=*/false);
  const StormResult storm = run_storm(/*faulted=*/true);

  for (const auto& r : clean.results) {
    if (!r.ok()) {
      std::cout << "FAIL: clean run request failed ("
                << serve::error_code_name(r.error) << ")\n";
      ok = false;
      break;
    }
  }
  index_t completed = 0, mismatched = 0;
  for (std::size_t i = 0; i < storm.results.size(); ++i) {
    const auto& r = storm.results[i];
    if (!r.ok()) {
      if (r.error != serve::ErrorCode::kTransientDevice &&
          r.error != serve::ErrorCode::kOutOfMemory) {
        std::cout << "FAIL: non-transient failure code "
                  << serve::error_code_name(r.error) << " on request " << i
                  << "\n";
        ok = false;
      }
      continue;
    }
    ++completed;
    if (r.output != clean.results[i].output) ++mismatched;
  }
  if (mismatched != 0) {
    std::cout << "FAIL: " << mismatched
              << " completed request(s) differ from the clean run\n";
    ok = false;
  }
  const auto& snap = storm.snap;
  if (completed < static_cast<index_t>(0.95 * n_storm)) {
    std::cout << "FAIL: only " << completed << "/" << n_storm
              << " requests completed under the storm (need >= 95%)\n";
    ok = false;
  }
  if (snap.retries_attempted < 2 || snap.retries_succeeded < 1) {
    std::cout << "FAIL: expected retries (attempted "
              << snap.retries_attempted << ", succeeded "
              << snap.retries_succeeded << ")\n";
    ok = false;
  }
  if (snap.rank_failures < 1 || snap.degraded_batches < 1) {
    std::cout << "FAIL: expected the scripted rank outage (rank failures "
              << snap.rank_failures << ", degraded batches "
              << snap.degraded_batches << ")\n";
    ok = false;
  }
  std::int64_t error_sum = 0;
  for (const auto& [code, n] : snap.errors) error_sum += n;
  if (error_sum != snap.failed || completed != snap.completed) {
    std::cout << "FAIL: error accounting (errors sum " << error_sum
              << ", failed " << snap.failed << ", completed "
              << snap.completed << " vs harvested " << completed << ")\n";
    ok = false;
  }
  const double retry_success_rate =
      static_cast<double>(snap.retries_succeeded) /
      static_cast<double>(std::max<std::int64_t>(
          1, snap.retries_succeeded + snap.failed));
  std::cout << "storm: " << completed << "/" << n_storm << " completed, "
            << snap.retries_attempted << " retries ("
            << snap.retries_succeeded << " requests recovered), "
            << snap.rank_failures << " rank failure(s), "
            << snap.degraded_batches << " degraded batch(es)\n";

  util::Table resilience({"metric", "value"});
  resilience.add_row(
      {"retry success rate", util::Table::fmt(retry_success_rate, 3)});
  resilience.add_row(
      {"completion rate",
       util::Table::fmt(static_cast<double>(completed) / n_storm, 3)});
  resilience.add_row({"rank failures", std::to_string(snap.rank_failures)});
  resilience.add_row(
      {"degraded batches", std::to_string(snap.degraded_batches)});
  resilience.print(std::cout);
  artifact.add("resilience", resilience);

  // --------------------------------------------- Section B: overload
  const TenantSpec& flood_spec = tenants[1];  // {128, 4, 64}
  const TenantSpec& tight_spec = tenants[0];  // {96, 6, 48}
  const int n_flood = quick ? 96 : 128;
  const int n_tight = quick ? 16 : 24;  // <= max_queue_depth: all can displace
  const auto flood_input =
      core::make_input_vector(flood_spec.dims.n_t * flood_spec.dims.n_m, 900);
  const auto tight_input =
      core::make_input_vector(tight_spec.dims.n_t * tight_spec.dims.n_m, 901);

  struct OverloadResult {
    serve::MetricsSnapshot snap;
    index_t lost = 0;  // futures that did not resolve to a value
  };
  // depth 0 = unbounded calibration (no deadlines, nothing refused);
  // bounded runs pass the real depth + policy and d_tight.
  const auto run_overload = [&](int depth, serve::OverloadPolicy policy,
                                double d_tight,
                                std::vector<double>* tight_latency) {
    OverloadResult out;
    serve::ServeOptions opts;
    opts.num_streams = 1;
    opts.max_batch = 8;
    opts.linger_seconds = 200e-6;
    opts.max_queue_depth = depth;
    opts.overload_policy = policy;
    serve::AsyncScheduler sched(spec, opts);
    const auto flood_id =
        sched.add_tenant(flood_spec.dims, flood_spec.col);
    const auto tight_id =
        sched.add_tenant(tight_spec.dims, tight_spec.col);
    std::vector<std::future<serve::MatvecResult>> futures;
    for (int i = 0; i < n_flood; ++i) {
      futures.push_back(sched.submit(flood_id, core::ApplyDirection::kForward,
                                     precision::PrecisionConfig{},
                                     flood_input));
    }
    std::vector<std::size_t> tight_at;
    for (int i = 0; i < n_tight; ++i) {
      serve::Request req;
      req.tenant = tight_id;
      req.direction = core::ApplyDirection::kForward;
      req.input = tight_input;
      req.qos.deadline_seconds = d_tight;  // 0 during calibration
      req.qos.weight = 3.0;
      tight_at.push_back(futures.size());
      futures.push_back(sched.submit(std::move(req)));
    }
    sched.drain();
    std::vector<serve::MatvecResult> results;
    for (auto& f : futures) {
      if (!f.valid()) {
        ++out.lost;
        results.emplace_back();
        continue;
      }
      results.push_back(f.get());
    }
    if (tight_latency != nullptr) {
      for (const std::size_t i : tight_at) {
        if (results[i].ok()) {
          tight_latency->push_back(results[i].queue_seconds +
                                   results[i].exec_seconds);
        }
      }
    }
    out.snap = sched.metrics();
    return out;
  };

  bench::print_header("Serve overload — bounded admission (" +
                      std::to_string(n_flood) + " best-effort flood + " +
                      std::to_string(n_tight) +
                      " deadlined tight, depth 32, 1 lane)");
  std::vector<double> cal_latency;
  run_overload(/*depth=*/0, serve::OverloadPolicy::kShedBestEffort,
               /*d_tight=*/0.0, &cal_latency);
  if (cal_latency.empty()) {
    std::cout << "FAIL: calibration produced no tight-class latencies\n";
    std::cout << "self-check FAILED\n";
    return 1;
  }
  const double d_tight =
      2.0 * *std::max_element(cal_latency.begin(), cal_latency.end());
  std::cout << "calibrated tight deadline: " << bench::ms(d_tight)
            << " ms (2x worst unbounded-queue tight latency)\n";

  const OverloadResult shed =
      run_overload(32, serve::OverloadPolicy::kShedBestEffort, d_tight,
                   nullptr);
  const OverloadResult reject =
      run_overload(32, serve::OverloadPolicy::kRejectNew, d_tight, nullptr);

  util::Table overload({"policy", "SLO attainment", "shed", "rejected",
                        "completed", "failed"});
  const auto add_row = [&](const char* name, const OverloadResult& r) {
    overload.add_row({name, util::Table::fmt(r.snap.slo_attainment(), 3),
                      std::to_string(r.snap.shed),
                      std::to_string(r.snap.rejected),
                      std::to_string(r.snap.completed),
                      std::to_string(r.snap.failed)});
  };
  add_row("shed-best-effort", shed);
  add_row("reject-new", reject);
  overload.print(std::cout);
  artifact.add("overload", overload);

  if (shed.lost != 0 || reject.lost != 0) {
    std::cout << "FAIL: " << (shed.lost + reject.lost)
              << " future(s) never resolved\n";
    ok = false;
  }
  if (shed.snap.slo_attainment() < 0.9) {
    std::cout << "FAIL: shed-best-effort tight attainment "
              << util::Table::fmt(shed.snap.slo_attainment(), 3)
              << " < 0.9 (the displaced best-effort load should have "
                 "kept the tight class on time)\n";
    ok = false;
  }
  if (shed.snap.shed < 1 || shed.snap.rejected < 1) {
    std::cout << "FAIL: overload never engaged (shed " << shed.snap.shed
              << ", rejected " << shed.snap.rejected << ")\n";
    ok = false;
  }
  for (const OverloadResult* r : {&shed, &reject}) {
    if (r->snap.completed + r->snap.failed != r->snap.submitted) {
      std::cout << "FAIL: request accounting (completed "
                << r->snap.completed << " + failed " << r->snap.failed
                << " != submitted " << r->snap.submitted << ")\n";
      ok = false;
    }
  }

  // --------------------------------------------- Section C: SDC storm
  bench::print_header("Serve SDC storm — seeded buffer corruption, checksum "
                      "verify vs undetected baseline (" +
                      std::to_string(n_storm) + " requests)");

  struct SdcResult {
    std::vector<serve::MatvecResult> results;  // submission order
    serve::MetricsSnapshot snap;
  };
  // The Section A burst replayed under SDC injection: the FaultPlan's
  // buffer site corrupts grouped-GEMV outputs (first two writes
  // scripted so the storm engages deterministically, plus a Bernoulli
  // tail), while kernel/alloc/rank sites stay quiet — every observed
  // wrong answer or detection is attributable to the buffer site.
  const auto run_sdc = [&](core::VerifyMode verify) {
    SdcResult out;
    serve::ServeOptions opts;
    opts.num_streams = 1;
    opts.max_batch = 4;
    opts.linger_seconds = 200e-6;
    opts.max_retries = 4;
    opts.retry_backoff_seconds = 20e-6;
    opts.verify_mode = verify;
    serve::AsyncScheduler sched(spec, opts);
    std::vector<serve::TenantId> ids;
    for (const auto& ts : tenants) {
      ids.push_back(sched.add_tenant(ts.dims, ts.col, ts.rank_group));
    }
    device::FaultPlanOptions fopts;
    fopts.seed = 3033;
    fopts.buffer_fault_rate = 0.05;
    auto plan = std::make_shared<device::FaultPlan>(fopts);
    plan->fail_buffer_writes(0, 2);
    sched.device().set_fault_plan(plan);
    std::vector<std::future<serve::MatvecResult>> futures;
    for (int i = 0; i < n_storm; ++i) {
      futures.push_back(sched.submit(
          ids[static_cast<std::size_t>(i) % tenants.size()],
          core::ApplyDirection::kForward, precision::PrecisionConfig{},
          storm_inputs[static_cast<std::size_t>(i)]));
    }
    for (auto& f : futures) out.results.push_back(f.get());
    sched.drain();
    out.snap = sched.metrics();
    return out;
  };

  const SdcResult undetected = run_sdc(core::VerifyMode::kOff);
  const SdcResult protected_run = run_sdc(core::VerifyMode::kChecksum);

  // Baseline contrast: with verify off every request "succeeds", but
  // the injected corruption hands back wrong answers undetected.
  index_t baseline_wrong = 0;
  for (std::size_t i = 0; i < undetected.results.size(); ++i) {
    if (undetected.results[i].ok() &&
        undetected.results[i].output != clean.results[i].output) {
      ++baseline_wrong;
    }
  }
  if (baseline_wrong < 1) {
    std::cout << "FAIL: the verify-off baseline shows no corrupted results — "
                 "the storm never engaged\n";
    ok = false;
  }
  if (undetected.snap.sdc_detected != 0) {
    std::cout << "FAIL: verify-off run reported "
              << undetected.snap.sdc_detected << " detection(s)\n";
    ok = false;
  }

  // Protected run: >= 99% of results must be bit-identical to the
  // clean run (a recompute after a detection is indistinguishable from
  // a never-corrupted dispatch).
  index_t sdc_correct = 0;
  for (std::size_t i = 0; i < protected_run.results.size(); ++i) {
    if (protected_run.results[i].ok() &&
        protected_run.results[i].output == clean.results[i].output) {
      ++sdc_correct;
    }
  }
  const double correct_rate =
      static_cast<double>(sdc_correct) / static_cast<double>(n_storm);
  if (correct_rate < 0.99) {
    std::cout << "FAIL: only " << sdc_correct << "/" << n_storm
              << " results correct under the SDC storm in checksum mode "
                 "(need >= 99%)\n";
    ok = false;
  }
  const auto& psnap = protected_run.snap;
  if (psnap.sdc_detected < 1 || psnap.sdc_recomputes < 1) {
    std::cout << "FAIL: expected detections and recomputes (detected "
              << psnap.sdc_detected << ", recomputes " << psnap.sdc_recomputes
              << ")\n";
    ok = false;
  }
  if (psnap.sdc_false_positives != 0) {
    std::cout << "FAIL: " << psnap.sdc_false_positives
              << " request(s) surfaced kSilentCorruption (persistent "
                 "detection under a transient injection model)\n";
    ok = false;
  }
  if (!psnap.have_fault_stats || psnap.fault_stats.buffer_faults < 1) {
    std::cout << "FAIL: the fault-plan audit shows no injected buffer "
                 "faults\n";
    ok = false;
  }
  // Every injected corruption sits in a grouped-GEMV output that the
  // very next launch, the inverse FFT carrying the checksum compare,
  // reads, so checksum mode must catch them
  // all: detections / injected faults >= 0.99 (it is exactly 1.0 when
  // no detection is spurious).
  const double detection_rate =
      psnap.have_fault_stats && psnap.fault_stats.buffer_faults > 0
          ? static_cast<double>(psnap.sdc_detected) /
                static_cast<double>(psnap.fault_stats.buffer_faults)
          : 0.0;
  if (detection_rate < 0.99) {
    std::cout << "FAIL: sdc detection rate "
              << util::Table::fmt(detection_rate, 3) << " < 0.99 ("
              << psnap.sdc_detected << " detections / "
              << (psnap.have_fault_stats ? psnap.fault_stats.buffer_faults : 0)
              << " injected faults)\n";
    ok = false;
  }
  std::cout << "sdc storm: baseline " << baseline_wrong << "/" << n_storm
            << " silently wrong; checksum mode " << sdc_correct << "/"
            << n_storm << " correct, " << psnap.sdc_detected
            << " detection(s), " << psnap.sdc_recomputes
            << " recompute(s), " << psnap.sdc_false_positives
            << " false positive(s)\n";

  // Modelled verify overhead at the serve shape: one deterministic
  // core-level batch, verify off vs checksum, same plan and stream
  // (the simulated clock advance IS the modelled makespan).  The
  // checksum dots ride the main grouped launch and the compare rides
  // the phase-4 inverse FFT, so verification adds traffic but no
  // launch, and the ratio must stay within the 10% budget.
  double t_off = 0.0, t_on = 0.0;
  {
    device::Device dev(spec, &util::ThreadPool::global());
    device::Stream stream(dev);
    const auto dims = core::LocalDims::single_rank(tenants[0].dims);
    core::BlockToeplitzOperator op(dev, stream, dims, tenants[0].col);
    core::FftMatvecPlan plan(dev, stream, dims);
    op.checksum_d(stream, /*adjoint=*/false);  // warm, like serve setup
    const index_t b = 8;
    std::vector<std::vector<double>> ins;
    std::vector<std::vector<double>> outs(static_cast<std::size_t>(b));
    std::vector<core::ConstVectorView> in_views(static_cast<std::size_t>(b));
    std::vector<core::VectorView> out_views(static_cast<std::size_t>(b));
    for (index_t i = 0; i < b; ++i) {
      ins.push_back(core::make_input_vector(
          tenants[0].dims.n_t * tenants[0].dims.n_m, 950 + i));
      outs[static_cast<std::size_t>(i)].resize(static_cast<std::size_t>(
          tenants[0].dims.n_t * tenants[0].dims.n_d));
      in_views[static_cast<std::size_t>(i)] = ins.back();
      out_views[static_cast<std::size_t>(i)] = outs[static_cast<std::size_t>(i)];
    }
    const auto timed = [&](core::VerifyMode mode) {
      const double t0 = stream.now();
      plan.apply_batch(op, core::ApplyDirection::kForward,
                       precision::PrecisionConfig{}, in_views, out_views, mode);
      return stream.now() - t0;
    };
    timed(core::VerifyMode::kOff);  // untimed warm-up (plan workspaces)
    t_off = timed(core::VerifyMode::kOff);
    t_on = timed(core::VerifyMode::kChecksum);
  }
  const double overhead = t_on / t_off - 1.0;
  if (!(t_on > 0.0) || overhead > 0.10) {
    std::cout << "FAIL: modelled checksum overhead "
              << util::Table::fmt(overhead * 100.0, 2)
              << "% exceeds the 10% budget (off "
              << bench::ms(t_off) << " ms, on " << bench::ms(t_on)
              << " ms)\n";
    ok = false;
  }
  std::cout << "verify overhead: " << util::Table::fmt(overhead * 100.0, 2)
            << "% modelled (off " << bench::ms(t_off) << " ms, on "
            << bench::ms(t_on) << " ms, batch 8, serve shape)\n";

  // Zero-false-positive property sweep: paranoid mode across ALL 32
  // precision configs, both directions, no injection — legitimate
  // mixed-precision rounding must never trip a tolerance, and the
  // outputs must match verify-off bit-for-bit.
  index_t sweep_failures = 0;
  {
    device::Device dev(spec, &util::ThreadPool::global());
    device::Stream stream(dev);
    const core::ProblemDims small{32, 4, 16};
    const auto dims = core::LocalDims::single_rank(small);
    const auto col = core::make_first_block_col(dims, 777);
    core::BlockToeplitzOperator op(dev, stream, dims, col);
    core::FftMatvecPlan plan(dev, stream, dims);
    for (const bool adjoint : {false, true}) {
      const auto direction = adjoint ? core::ApplyDirection::kAdjoint
                                     : core::ApplyDirection::kForward;
      const index_t in_len = small.n_t * (adjoint ? small.n_d : small.n_m);
      const index_t out_len = small.n_t * (adjoint ? small.n_m : small.n_d);
      const auto input = core::make_input_vector(in_len, adjoint ? 779 : 778);
      std::vector<double> ref(static_cast<std::size_t>(out_len));
      std::vector<double> got(static_cast<std::size_t>(out_len));
      const core::ConstVectorView in_view[] = {input};
      for (const auto& config : precision::PrecisionConfig::all_configs()) {
        try {
          core::VectorView ref_view[] = {ref};
          plan.apply_batch(op, direction, config, in_view, ref_view);
          core::VectorView got_view[] = {got};
          plan.apply_batch(op, direction, config, in_view, got_view,
                           core::VerifyMode::kParanoid);
          if (got != ref) {
            std::cout << "FAIL: paranoid verify changed the "
                      << config.to_string() << (adjoint ? " adjoint" : "")
                      << " output\n";
            ++sweep_failures;
          }
        } catch (const device::SilentCorruption& e) {
          std::cout << "FAIL: false positive on clean " << config.to_string()
                    << (adjoint ? " adjoint" : "") << ": " << e.what() << "\n";
          ++sweep_failures;
        }
      }
    }
  }
  if (sweep_failures != 0) ok = false;
  std::cout << "false-positive sweep: 32 configs x 2 directions, "
            << sweep_failures << " failure(s)\n";

  util::Table sdc({"metric", "value"});
  sdc.add_row({"sdc detection rate", util::Table::fmt(detection_rate, 3)});
  sdc.add_row({"verify overhead", util::Table::fmt(t_off / t_on, 3)});
  sdc.add_row({"correct under storm", util::Table::fmt(correct_rate, 3)});
  sdc.add_row({"baseline silently wrong", std::to_string(baseline_wrong)});
  sdc.add_row({"sdc recomputes", std::to_string(psnap.sdc_recomputes)});
  sdc.add_row(
      {"sdc false positives", std::to_string(psnap.sdc_false_positives)});
  sdc.print(std::cout);
  artifact.add("sdc", sdc);

  if (const auto path = artifact.write(); !path.empty()) {
    std::cout << "wrote artifact " << path << "\n";
  }
  std::cout << (ok ? "self-check PASSED" : "self-check FAILED") << "\n";
  return ok ? 0 : 1;
}
