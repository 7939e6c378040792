// fftmv_server — long-lived multi-tenant matvec service driven by a
// synthetic open-loop load generator.
//
//   fftmv_server [-tenants 3] [-requests 400] [-rps 2000] [-streams 2]
//                [-batch 0] [-linger-ms 0.5] [-cache 24]
//                [-prec ddddd,dssdd,sssss] [-adjoint-frac 0.3]
//                [-sessions 0] [-deadline-ms 0] [-weights 1]
//                [-queue-depth 0] [-fault-rate 0] [-fault-seed 1]
//                [-device mi300x] [-seed 42] [-trace PATH] [-raw]
//                [--smoke]
//
//   -tenants N       distinct tenant models (mixed shapes: each tenant
//                    scales the base problem differently); N >= 1
//   -requests N      total requests issued by the generator; N >= 0
//   -rps R           open-loop Poisson arrival rate (requests/second,
//                    finite and > 0); inter-arrival gaps are
//                    exponential via util::Rng
//   -streams S       scheduler worker lanes (one device stream each)
//   -batch B         max requests coalesced per batch; 0 (default)
//                    resolves to serve::kDefaultMaxBatch (16)
//   -linger-ms L     max time a request waits for batch companions
//   -cache C         resident FftMatvecPlan budget (LRU)
//   -prec a,b,...    precision configs cycled across requests
//   -adjoint-frac F  fraction of requests that are adjoint (F*)
//                    applies, in [0, 1]
//   -sessions N      open N >= 0 streaming sessions (open_stream handles,
//                    cycled across tenants; plan shapes stay pinned in
//                    the cache).  Even-indexed requests then route
//                    through the sessions in round-robin instead of
//                    one-shot submits, and the per-session latency
//                    table prints with the report.  0 (default) = all
//                    one-shot
//   -deadline-ms D   per-request completion deadline carried by the
//                    session submits (StreamQoS), finite and >= 0;
//                    misses are counted in the summary's "deadline
//                    miss" column.  0 (default) = best effort
//   -weights a,b,... weighted-fair-queueing weights cycled across the
//                    sessions, each finite and > 0 (default all 1)
//   -queue-depth N   bounded admission: max pending requests before
//                    the shed-best-effort overload policy engages
//                    (refusals surface as kQueueFull/kShed result
//                    codes, never exceptions).  0 (default) =
//                    unbounded
//   -fault-rate F    deterministic fault injection: per-launch
//                    probability F in [0, 1] of a transient kernel
//                    fault (and F/2 per allocation of an injected
//                    OOM), sampled from -fault-seed via
//                    device::FaultPlan and attached AFTER tenant
//                    setup so only the request path is exposed.
//                    Faulted batches retry with backoff and
//                    quarantine (see ServeOptions); the
//                    errors/resilience tables report the outcome.  0
//                    (default) = no injection
//   -fault-seed S    seed for the fault plan's Bernoulli draws; the
//                    same seed and workload replays the same faults
//   -verify M        ABFT verification mode: off (default), checksum
//                    (grouped-GEMV column checksums) or paranoid
//                    (+ FFT Parseval checks).  Detections
//                    re-dispatch through the retry machinery; the
//                    resilience table reports detections, recomputes
//                    and false positives
//   -sdc-rate F      silent-data-corruption injection: per grouped-
//                    GEMV launch probability F in [0, 1] of flipping
//                    an exponent bit in the output buffer
//                    (device::FaultPlan's buffer site).  Corruption
//                    is injected whether or not -verify is on — off
//                    shows the corrupted-and-undetected baseline.  0
//                    (default) = no injection
//   -sdc-seed S      seed for the SDC draws (defaults to -fault-seed)
//   -raw             machine-parseable summary (bare numbers)
//   -json PATH       write the metrics tables as a bench::Artifact
//                    (headers carry the git SHA and build type, so CI
//                    perf diffs are attributable)
//   -trace PATH      record a util::trace session across the run and
//                    export it as Chrome trace-event JSON (loadable in
//                    chrome://tracing / Perfetto): queue-wait spans,
//                    per-batch dispatch spans, per-phase device-clock
//                    spans on each lane's stream, plan-cache
//                    events.  The artifact's "trace" table records the
//                    retained event count and the ring-overflow drop
//                    count (drops are counted, never silent)
//   --smoke          short fixed-seed CI run; exits nonzero unless all
//                    requests completed and throughput is nonzero
//
// The metrics report (throughput, p50/p95/p99 latency, batch-size
// histogram, cache hit rate) prints on shutdown.  An out-of-range
// value for a load flag exits 1 with a message naming the flag, before
// anything is built.
#include <cmath>
#include <cstdlib>
#include <future>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "core/synthetic.hpp"
#include "device/device_spec.hpp"
#include "device/fault_plan.hpp"
#include "serve/scheduler.hpp"
#include "util/artifact.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

using namespace fftmv;

namespace {

struct TenantModel {
  serve::TenantId id = 0;
  core::ProblemDims dims;
  std::vector<double> fwd_input;
  std::vector<double> adj_input;
};

std::vector<precision::PrecisionConfig> parse_config_list(const std::string& csv) {
  std::vector<precision::PrecisionConfig> configs;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string item =
        csv.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) configs.push_back(precision::PrecisionConfig::parse(item));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (configs.empty()) {
    throw std::invalid_argument("-prec: expected a comma-separated config list");
  }
  return configs;
}

std::vector<double> parse_weight_list(const std::string& csv) {
  std::vector<double> weights;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string item = csv.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) {
      char* end = nullptr;
      const double weight = std::strtod(item.c_str(), &end);
      if (end != item.c_str() + item.size() || !std::isfinite(weight) ||
          weight <= 0.0) {
        throw std::invalid_argument(
            "-weights: expected finite weights > 0, got '" + item + "'");
      }
      weights.push_back(weight);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (weights.empty()) {
    throw std::invalid_argument("-weights: expected a comma-separated list");
  }
  return weights;
}

/// Throws naming `flag` unless `value` is a fraction in [0, 1] (NaN
/// fails both comparisons).
void check_fraction(const char* flag, double value) {
  if (!(value >= 0.0 && value <= 1.0)) {
    throw std::invalid_argument(std::string(flag) +
                                ": expected a fraction in [0, 1], got " +
                                std::to_string(value));
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // Consumes --json/-json <path> from argv before the flag parser.
    util::Artifact artifact("fftmv_server", argc, argv);
    std::string trace_path;
    util::consume_flag(argc, argv, "--trace", "-trace", &trace_path);
    const util::CliParser cli(argc, argv);
    cli.check_known({"tenants", "requests", "rps", "streams", "batch",
                     "linger-ms", "cache", "prec", "adjoint-frac", "sessions",
                     "deadline-ms", "weights", "queue-depth", "fault-rate",
                     "fault-seed", "verify", "sdc-rate", "sdc-seed", "device",
                     "seed", "raw", "smoke"});
    const bool smoke = cli.get_flag("smoke");
    const bool raw = cli.get_flag("raw");

    const index_t n_tenants = cli.get_int("tenants", 3);
    const index_t n_requests = cli.get_int("requests", smoke ? 120 : 400);
    const double rps = cli.get_double("rps", smoke ? 4000.0 : 2000.0);
    const double adjoint_frac = cli.get_double("adjoint-frac", 0.3);
    // Smoke exercises the streaming-session path too (2 pinned
    // sessions with a loose deadline).
    const index_t n_sessions = cli.get_int("sessions", smoke ? 2 : 0);
    if (n_tenants < 1) {
      throw std::invalid_argument("-tenants: expected a count >= 1, got " +
                                  std::to_string(n_tenants));
    }
    if (n_requests < 0) {
      throw std::invalid_argument("-requests: expected a count >= 0, got " +
                                  std::to_string(n_requests));
    }
    if (n_sessions < 0) {
      throw std::invalid_argument("-sessions: expected a count >= 0, got " +
                                  std::to_string(n_sessions));
    }
    if (!std::isfinite(rps) || rps <= 0.0) {
      throw std::invalid_argument(
          "-rps: expected a finite arrival rate > 0, got " + std::to_string(rps));
    }
    check_fraction("-adjoint-frac", adjoint_frac);
    const auto spec = device::spec_by_name(cli.get_string("device", "mi300x"));
    const std::uint64_t seed =
        smoke ? 20260730 : static_cast<std::uint64_t>(cli.get_int("seed", 42));
    const auto configs = parse_config_list(cli.get_string("prec", "ddddd,dssdd,sssss"));
    const double deadline_ms = cli.get_double("deadline-ms", smoke ? 250.0 : 0.0);
    if (!std::isfinite(deadline_ms) || deadline_ms < 0.0) {
      throw std::invalid_argument("-deadline-ms: expected a finite deadline >= 0, got " +
                                  std::to_string(deadline_ms));
    }
    const auto weights = parse_weight_list(cli.get_string("weights", "1"));

    serve::ServeOptions opts;
    opts.num_streams = static_cast<int>(cli.get_int("streams", 2));
    // 0 = the scheduler's default cap; -batch N overrides it.
    opts.max_batch = static_cast<int>(cli.get_int("batch", 0));
    opts.linger_seconds = cli.get_double("linger-ms", 0.5) * 1e-3;
    // Default sized to the full default workload working set: plans
    // are precision-agnostic, so 3 tenant shapes x 2 lanes = 6 plan
    // keys; the headroom absorbs -tenants/-streams overrides.
    opts.plan_cache_capacity = static_cast<std::size_t>(cli.get_int("cache", 24));
    // 0 = unbounded; at the bound the default shed-best-effort policy
    // displaces pending best-effort work for deadlined arrivals.
    opts.max_queue_depth = static_cast<int>(cli.get_int("queue-depth", 0));
    const double fault_rate = cli.get_double("fault-rate", 0.0);
    check_fraction("-fault-rate", fault_rate);
    const std::uint64_t fault_seed =
        static_cast<std::uint64_t>(cli.get_int("fault-seed", 1));
    const std::string verify_name = cli.get_string("verify", "off");
    if (verify_name == "off") {
      opts.verify_mode = core::VerifyMode::kOff;
    } else if (verify_name == "checksum") {
      opts.verify_mode = core::VerifyMode::kChecksum;
    } else if (verify_name == "paranoid") {
      opts.verify_mode = core::VerifyMode::kParanoid;
    } else {
      throw std::invalid_argument(
          "-verify: expected off, checksum or paranoid, got " + verify_name);
    }
    const double sdc_rate = cli.get_double("sdc-rate", 0.0);
    check_fraction("-sdc-rate", sdc_rate);
    const std::uint64_t sdc_seed = static_cast<std::uint64_t>(
        cli.get_int("sdc-seed", static_cast<index_t>(fault_seed)));

    // Started before the scheduler exists so lane threads, tenant
    // setup and the first cold-cache dispatches are all on the record.
    if (!trace_path.empty()) util::trace::start();

    serve::AsyncScheduler scheduler(spec, opts);

    if (!raw) {
      std::cout << "fftmv_server: " << n_tenants << " tenants, " << n_requests
                << " requests @ " << rps << " req/s (Poisson), " << opts.num_streams
                << " streams, batch<=" << scheduler.options().max_batch
                << (opts.max_batch == 0 ? " (default)" : "") << ", linger " << opts.linger_seconds * 1e3 << " ms, plan cache "
                << opts.plan_cache_capacity << ", device " << spec.name << "\n";
    }

    // Mixed shapes: tenant t scales the base problem by (1 + t/2) in
    // parameters and rotates sensor/time extents, so the plan cache
    // sees genuinely distinct keys.
    std::vector<TenantModel> tenants;
    for (index_t t = 0; t < n_tenants; ++t) {
      TenantModel model;
      model.dims = core::ProblemDims{48 + 24 * (t % 3), 4 + 2 * (t % 2),
                                     24 + 8 * (t % 3)};
      const auto local = core::LocalDims::single_rank(model.dims);
      const auto col = core::make_first_block_col(local, seed + 17 * t);
      model.id = scheduler.add_tenant(model.dims, col);
      model.fwd_input =
          core::make_input_vector(model.dims.n_t * model.dims.n_m, seed + 17 * t + 1);
      model.adj_input =
          core::make_input_vector(model.dims.n_t * model.dims.n_d, seed + 17 * t + 2);
      tenants.push_back(std::move(model));
    }

    // Streaming sessions: pinned (tenant, direction, config) streams
    // cycled across tenants, each carrying its own deadline/weight QoS.
    std::vector<serve::StreamSession> sessions;
    std::vector<std::size_t> session_tenant;
    for (index_t s = 0; s < n_sessions; ++s) {
      const auto t = static_cast<std::size_t>(s) % tenants.size();
      serve::StreamQoS qos;
      qos.deadline_seconds = deadline_ms * 1e-3;
      qos.weight = weights[static_cast<std::size_t>(s) % weights.size()];
      sessions.push_back(scheduler.open_stream(
          tenants[t].id, core::ApplyDirection::kForward,
          configs[static_cast<std::size_t>(s) % configs.size()], qos));
      session_tenant.push_back(t);
    }

    // Fault injection is attached AFTER tenant setup and session
    // opens, so the fault counters index only request-path work (and
    // setup can never be the thing that faults).
    std::shared_ptr<device::FaultPlan> fault_plan;
    if (fault_rate > 0.0 || sdc_rate > 0.0) {
      device::FaultPlanOptions fopts;
      // All four sites hash a per-site constant into their draws, so
      // one seed drives them independently; -sdc-seed lets the SDC
      // storm replay while the fail-stop schedule changes (it defaults
      // to -fault-seed).
      fopts.seed = sdc_rate > 0.0 ? sdc_seed : fault_seed;
      fopts.kernel_fault_rate = fault_rate;
      fopts.alloc_fault_rate = fault_rate / 2.0;
      fopts.buffer_fault_rate = sdc_rate;
      fault_plan = std::make_shared<device::FaultPlan>(fopts);
      scheduler.device().set_fault_plan(fault_plan);
      if (!raw) {
        std::cout << "fault injection: kernel rate " << fault_rate
                  << ", alloc rate " << fault_rate / 2.0 << ", buffer rate "
                  << sdc_rate << ", seed " << fopts.seed << ", verify "
                  << core::verify_mode_name(opts.verify_mode) << "\n";
      }
    }

    // Open-loop generator: arrivals are scheduled ahead of time from
    // the exponential inter-arrival draw and submitted on schedule
    // regardless of completion (no back-pressure), the standard
    // closed-vs-open-loop distinction in serving benchmarks.  With
    // -sessions, even-indexed requests ride the session handles in
    // round-robin (ordered, pinned, QoS-tagged); the rest stay
    // one-shot.
    util::Rng rng(seed);
    std::vector<std::future<serve::MatvecResult>> futures;
    futures.reserve(static_cast<std::size_t>(n_requests));
    const auto t0 = std::chrono::steady_clock::now();
    double arrival = 0.0;
    for (index_t r = 0; r < n_requests; ++r) {
      arrival += -std::log(1.0 - rng.next_double()) / rps;
      std::this_thread::sleep_until(t0 + std::chrono::duration<double>(arrival));
      if (!sessions.empty() && r % 2 == 0) {
        auto& session = sessions[static_cast<std::size_t>(r / 2) % sessions.size()];
        futures.push_back(session.submit(
            tenants[session_tenant[static_cast<std::size_t>(r / 2) %
                                   sessions.size()]]
                .fwd_input));
        continue;
      }
      const auto& tenant = tenants[static_cast<std::size_t>(rng.next_u64() %
                                                            tenants.size())];
      const auto& config = configs[static_cast<std::size_t>(r) % configs.size()];
      const bool adjoint = rng.next_double() < adjoint_frac;
      futures.push_back(scheduler.submit(serve::Request{
          .tenant = tenant.id,
          .direction = adjoint ? core::ApplyDirection::kAdjoint
                               : core::ApplyDirection::kForward,
          .config = config,
          .input = adjoint ? tenant.adj_input : tenant.fwd_input,
          .qos = {}}));
    }

    // close() drains each session's outstanding applies and unpins its
    // plan shape.
    for (auto& session : sessions) session.close();
    scheduler.drain();
    // Failures arrive as result VALUES carrying an ErrorCode, never
    // as future exceptions (the scheduler's error contract); the
    // per-code breakdown prints with the metrics report.
    index_t fulfilled = 0, errors = 0;
    for (auto& f : futures) {
      if (f.get().ok()) {
        ++fulfilled;
      } else {
        ++errors;
      }
    }

    const auto snap = scheduler.metrics();
    artifact.add("summary", snap.summary_table());
    artifact.add("latency", snap.latency_table());
    artifact.add("batch histogram", snap.batch_table());
    artifact.add("errors", snap.error_table());
    artifact.add("resilience", snap.resilience_table());
    if (snap.have_fault_stats) {
      // Injected-vs-observed audit (satellite of the ABFT work): the
      // device FaultPlan's per-site counters, so a run's artifact
      // records exactly what was injected alongside the serve-level
      // outcomes in the resilience table.
      const auto& fs = snap.fault_stats;
      util::Table faults_table({"kernel launches", "kernel faults", "allocs",
                                "alloc faults", "group syncs", "rank faults",
                                "buffer writes", "buffer faults"});
      faults_table.add_row(
          {std::to_string(fs.kernel_launches), std::to_string(fs.kernel_faults),
           std::to_string(fs.allocs), std::to_string(fs.alloc_faults),
           std::to_string(fs.group_syncs), std::to_string(fs.rank_faults),
           std::to_string(fs.buffer_writes), std::to_string(fs.buffer_faults)});
      artifact.add("faults", faults_table);
    }
    if (!snap.lanes.empty()) artifact.add("lanes", snap.lane_table());
    if (!snap.sessions.empty()) artifact.add("sessions", snap.session_table());
    if (!trace_path.empty()) {
      util::trace::stop();
      const auto trace_stats = util::trace::stats();
      util::Table trace_table({"events", "dropped"});
      trace_table.add_row({std::to_string(trace_stats.events),
                           std::to_string(trace_stats.dropped)});
      artifact.add("trace", trace_table);
      if (!util::trace::write_file(trace_path)) {
        std::cerr << "fftmv_server: cannot write trace file " << trace_path
                  << "\n";
        return 1;
      }
      if (!raw) {
        std::cout << "wrote trace " << trace_path << " ("
                  << trace_stats.events << " events, " << trace_stats.dropped
                  << " dropped)\n";
      }
    }
    if (const auto path = artifact.write(); !path.empty() && !raw) {
      std::cout << "wrote artifact " << path << "\n";
    }
    if (raw) {
      std::cout << snap.completed << "\n"
                << snap.failed << "\n"
                << snap.throughput_rps() << "\n"
                << snap.cache_hit_rate() << "\n";
    } else {
      std::cout << "\n";
      snap.print(std::cout);
      std::cout << "\nlane sim makespan: " << scheduler.max_lane_sim_seconds() * 1e3
                << " ms, tenant setup: " << scheduler.setup_sim_seconds() * 1e3
                << " ms (simulated)\n";
    }

    if (smoke) {
      const bool ok = errors == 0 && fulfilled == n_requests &&
                      snap.failed == 0 && snap.completed == n_requests &&
                      snap.throughput_rps() > 0.0;
      std::cout << "smoke: " << fulfilled << "/" << n_requests
                << " fulfilled, " << errors << " errors, "
                << util::Table::fmt(snap.throughput_rps(), 0) << " req/s -> "
                << (ok ? "PASSED" : "FAILED") << "\n";
      return ok ? 0 : 1;
    }
    return errors == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "fftmv_server: " << e.what() << "\n";
    return 1;
  }
}
