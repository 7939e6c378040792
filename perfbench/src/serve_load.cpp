// serve_mixed and serve_skew: open- and closed-loop load on the
// multi-tenant matvec service.  Every served output is checked bit for
// bit against a solo FftMatvecPlan::apply_batch of the same (tenant,
// direction, config, input), computed beforehand on a device of its own.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "blas/vector_ops.hpp"
#include "core/block_toeplitz.hpp"
#include "core/matvec_plan.hpp"
#include "core/synthetic.hpp"
#include "device/device_spec.hpp"
#include "device/fault_plan.hpp"
#include "device/stream.hpp"
#include "serve/scheduler.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace fftmv;
using Dir = core::ApplyDirection;

/// Warm-up rounds inside setup_s, and the most rounds a set-up may take
/// before its memory reading counts as settled.
constexpr int kSetupWarmRounds = 3;
constexpr int kMaxWarmRounds = 8;
/// Traced runs alternate untraced and traced slices of this length, so
/// the tracing overhead is measured under the same machine conditions.
constexpr double kTraceSliceSeconds = 0.5;
/// How long a waiter blocks on its oldest future before re-sweeping the
/// others: the stamping error of a future that completes out of order.
constexpr auto kPollSlice = std::chrono::microseconds(100);

// serve_mixed: open-loop Poisson traffic well below saturation.
constexpr double kMixedRate = 1000.0;  // requests per second
constexpr double kAdjointShare = 0.3;
constexpr double kSessionShare = 0.2;
// serve_skew: closed loop over zipf-popular same-shape tenants.
constexpr std::size_t kSkewOutstanding = 64;
constexpr double kSkewZipf = 0.7;

struct TenantSpec {
  core::ProblemDims dims;
  int rank_group = 1;
};

struct SessionSpec {
  int tenant = 0;
  Dir direction = Dir::kForward;
  int config = 0;
  serve::StreamQoS qos;
};

struct WorkloadSpec {
  const char* name = "";
  std::vector<TenantSpec> tenants;
  /// configs[0] is "ddddd", the reference of rel_err.
  std::vector<std::string> configs;
  std::vector<Dir> directions;
  int inputs_per_key = 2;  ///< distinct inputs per (tenant, direction)
  std::vector<SessionSpec> sessions;
};

/// One request of the traffic: who, what and (open loop) when.
struct Req {
  double due = 0.0;  ///< seconds after the window opens (open loop)
  int tenant = 0;
  int session = -1;  ///< StreamSession index, -1 for a one-shot submit
  Dir direction = Dir::kForward;
  int config = 0;
  int input = 0;
};

/// What the benchmark saw of one request.
struct Outcome {
  Req req;
  bool traced = false;
  bool ok = false;
  bool mismatch = false;  ///< completed, but the output differed from the oracle
  std::int64_t due_ns = 0;
  std::int64_t send_ns = 0;
  std::int64_t submitted_ns = 0;
  std::int64_t ready_ns = 0;
  int span = -1;
  double queue_s = 0.0;
  double exec_s = 0.0;
  core::PhaseTimings timings;
  double rel_err = 0.0;
};

int dir_index(Dir d) { return d == Dir::kForward ? 0 : 1; }

/// Inputs and expected outputs for every (tenant, direction, config,
/// input) the traffic can draw; each expected output is a solo b = 1
/// apply_batch on a device of the oracle's own.
class Oracle {
 public:
  Oracle(const WorkloadSpec& spec, const std::vector<std::vector<double>>& cols,
         std::uint64_t seed)
      : tenants_(spec.tenants.size()),
        configs_(spec.configs.size()),
        inputs_per_key_(static_cast<std::size_t>(spec.inputs_per_key)) {
    for (const auto& c : spec.configs) parsed_.push_back(precision::PrecisionConfig::parse(c));
    inputs_.resize(tenants_ * 2 * inputs_per_key_);
    expected_.resize(inputs_.size() * configs_);
    rel_err_.resize(expected_.size());
    device::Device dev(device::make_mi300x());
    device::Stream stream(dev);
    std::map<core::LocalDims, std::unique_ptr<core::FftMatvecPlan>> plans;
    for (std::size_t t = 0; t < tenants_; ++t) {
      const auto local = core::LocalDims::single_rank(spec.tenants[t].dims);
      auto& plan = plans[local];
      if (!plan) plan = std::make_unique<core::FftMatvecPlan>(dev, stream, local);
      const core::BlockToeplitzOperator op(dev, stream, local, cols[t]);
      for (const Dir d : spec.directions) {
        const index_t in_len = local.n_t() * (d == Dir::kForward ? local.n_m_local : local.n_d_local);
        const index_t out_len = local.n_t() * (d == Dir::kForward ? local.n_d_local : local.n_m_local);
        for (std::size_t k = 0; k < inputs_per_key_; ++k) {
          Req q;
          q.tenant = static_cast<int>(t);
          q.direction = d;
          q.input = static_cast<int>(k);
          auto& in = inputs_[input_slot(q)];
          in = core::make_input_vector(in_len, mix_seed(seed, 1000000 + input_slot(q)));
          for (std::size_t c = 0; c < configs_; ++c) {
            q.config = static_cast<int>(c);
            auto& out = expected_[slot(q)];
            out.assign(static_cast<std::size_t>(out_len), 0.0);
            const core::ConstVectorView iv = in;
            const core::VectorView ov = out;
            plan->apply_batch(op, d, parsed_[c], std::span(&iv, 1), std::span(&ov, 1));
          }
          for (std::size_t c = 0; c < configs_; ++c) {
            q.config = static_cast<int>(c);
            Req ref = q;
            ref.config = 0;
            rel_err_[slot(q)] = blas::relative_l2_error(
                out_len, expected_[slot(q)].data(), expected_[slot(ref)].data());
          }
        }
      }
    }
  }

  const precision::PrecisionConfig& config(int c) const {
    return parsed_[static_cast<std::size_t>(c)];
  }
  const std::vector<double>& input(const Req& q) const { return inputs_[input_slot(q)]; }
  bool matches(const Req& q, const std::vector<double>& out) const {
    const auto& e = expected_[slot(q)];
    return out.size() == e.size() &&
           std::memcmp(out.data(), e.data(), e.size() * sizeof(double)) == 0;
  }
  double rel_err(const Req& q) const { return rel_err_[slot(q)]; }

 private:
  std::size_t input_slot(const Req& q) const {
    return (static_cast<std::size_t>(q.tenant) * 2 +
            static_cast<std::size_t>(dir_index(q.direction))) *
               inputs_per_key_ +
           static_cast<std::size_t>(q.input);
  }
  std::size_t slot(const Req& q) const {
    return input_slot(q) * configs_ + static_cast<std::size_t>(q.config);
  }

  std::size_t tenants_, configs_, inputs_per_key_;
  std::vector<precision::PrecisionConfig> parsed_;
  std::vector<std::vector<double>> inputs_;
  std::vector<std::vector<double>> expected_;
  std::vector<double> rel_err_;
};

/// One set-up of the service: the scheduler, its tenants and how far
/// its warm-up has got.
struct Service {
  std::unique_ptr<serve::AsyncScheduler> sched;
  std::vector<serve::TenantId> ids;
  int warm_rounds = 0;
  int warm_stable = 0;  ///< rounds in a row after which nothing grew
  index_t warm_mem = -1;
  std::size_t warm_plans = 0;
};

serve::Request make_request(const Service& s, const Oracle& oracle, const Req& q) {
  return serve::Request{.tenant = s.ids[static_cast<std::size_t>(q.tenant)],
                        .direction = q.direction,
                        .config = oracle.config(q.config),
                        .input = oracle.input(q),
                        .qos = {}};
}

/// One warm-up round: two full batches of every batch key the traffic
/// can form, so each lane builds its plans and grows its workspaces for
/// every key.  Warm-up outputs are checked too.
void warm_round(Service& s, const WorkloadSpec& spec, const Oracle& oracle, RunResult& out) {
  const int b = s.sched->options().max_batch;
  // Same-shape tenants share a batch key; a sharded tenant keys alone.
  std::map<std::pair<core::ProblemDims, int>, std::vector<int>> keys;
  for (std::size_t t = 0; t < spec.tenants.size(); ++t) {
    const auto& ts = spec.tenants[t];
    keys[{ts.dims, ts.rank_group > 1 ? static_cast<int>(t) : -1}].push_back(
        static_cast<int>(t));
  }
  std::vector<std::pair<Req, std::future<serve::MatvecResult>>> inflight;
  for (const auto& [key, members] : keys) {
    for (const Dir d : spec.directions) {
      for (int c = 0; c < static_cast<int>(spec.configs.size()); ++c) {
        for (int i = 0; i < 2 * b; ++i) {
          Req q;
          q.tenant = members[static_cast<std::size_t>(i) % members.size()];
          q.direction = d;
          q.config = c;
          q.input = i % spec.inputs_per_key;
          inflight.emplace_back(q, s.sched->submit(make_request(s, oracle, q)));
        }
      }
    }
  }
  for (auto& [q, f] : inflight) {
    const serve::MatvecResult res = f.get();
    if (!res.ok() || !oracle.matches(q, res.output)) out.checks_passed = false;
  }
  const index_t mem = s.sched->device().memory_used();
  const std::size_t plans = s.sched->plan_cache().size();
  s.warm_stable = mem == s.warm_mem && plans == s.warm_plans ? s.warm_stable + 1 : 0;
  s.warm_mem = mem;
  s.warm_plans = plans;
  ++s.warm_rounds;
}

/// The timed set-up: the scheduler, its tenants and a fixed number of
/// warm-up rounds, so setup_s always times the same work.
Service set_up(const WorkloadSpec& spec, const std::vector<std::vector<double>>& cols,
               const Oracle& oracle, RunResult& out) {
  Service s;
  s.sched = std::make_unique<serve::AsyncScheduler>(device::make_mi300x(),
                                                    serve::ServeOptions{});
  for (std::size_t t = 0; t < spec.tenants.size(); ++t) {
    s.ids.push_back(
        s.sched->add_tenant(spec.tenants[t].dims, cols[t], spec.tenants[t].rank_group));
  }
  for (int i = 0; i < kSetupWarmRounds; ++i) warm_round(s, spec, oracle, out);
  return s;
}

/// Untimed rounds after set-up until device memory and the plan cache
/// read the same after two rounds in a row.  Whether they still grow
/// depends on which lane each warm-up batch happened to land on, so this
/// work varies between set-ups and stays out of setup_s.
void settle(Service& s, const WorkloadSpec& spec, const Oracle& oracle, RunResult& out) {
  while (s.warm_stable < 2 && s.warm_rounds < kMaxWarmRounds) warm_round(s, spec, oracle, out);
  if (s.warm_stable < 2) {
    out.notes.push_back("warm-up: device memory still growing after " +
                        std::to_string(s.warm_rounds) + " rounds");
  }
}

bool traced_slice(bool tracing, double t) {
  return tracing && static_cast<std::int64_t>(t / kTraceSliceSeconds) % 2 == 1;
}

/// Record what a finished request returned and check it against the oracle.
void harvest(Outcome& o, std::int64_t index, serve::MatvecResult res,
             std::int64_t ready_ns, const Oracle& oracle, SpanLog& log) {
  o.ready_ns = ready_ns;
  log.end(o.span, ready_ns);
  const int check = o.traced ? log.begin("bench.check", -1, index) : -1;
  o.ok = res.ok() && oracle.matches(o.req, res.output);
  log.end(check);
  o.mismatch = res.ok() && !o.ok;
  o.queue_s = res.queue_seconds;
  o.exec_s = res.exec_seconds;
  o.timings = res.timings;
  o.rel_err = oracle.rel_err(o.req);
}

serve::MatvecResult get_result(std::future<serve::MatvecResult>& f) {
  try {
    return f.get();
  } catch (const std::exception&) {
    serve::MatvecResult failed;
    failed.error = serve::ErrorCode::kInternal;
    return failed;
  }
}

struct Pending {
  std::future<serve::MatvecResult> future;
  std::size_t index;  ///< the request's slot in the outcomes
};

/// One pass over the outstanding futures: hands each ready one to `take`
/// with the moment it was seen ready and drops it.  When none was ready,
/// blocks on the oldest for at most kPollSlice, so a future that
/// completes out of order is stamped at most that late.
template <class Take>
void harvest_ready(std::deque<Pending>& pending, Take&& take) {
  bool any = false;
  for (auto it = pending.begin(); it != pending.end();) {
    if (it->future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      const std::int64_t t = now_ns();
      take(it->index, get_result(it->future), t);
      it = pending.erase(it);
      any = true;
    } else {
      ++it;
    }
  }
  if (!any && !pending.empty()) pending.front().future.wait_for(kPollSlice);
}

/// Waits for open-loop futures on its own thread and stamps each with
/// the moment it was seen ready.
class Collector {
 public:
  using Harvest = std::function<void(std::size_t, serve::MatvecResult, std::int64_t)>;

  explicit Collector(Harvest harvest)
      : harvest_(std::move(harvest)), thread_([this] { loop(); }) {}
  ~Collector() { finish(); }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void push(std::future<serve::MatvecResult> future, std::size_t index) {
    {
      std::lock_guard lock(mutex_);
      incoming_.push_back({std::move(future), index});
    }
    cv_.notify_one();
  }

  /// Harvest everything pushed so far, then stop the thread.
  void finish() {
    {
      std::lock_guard lock(mutex_);
      done_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

  std::int64_t harvested() const { return harvested_.load(std::memory_order_relaxed); }

 private:
  void loop() {
    std::deque<Pending> local;
    for (;;) {
      {
        std::unique_lock lock(mutex_);
        if (local.empty()) cv_.wait(lock, [&] { return done_ || !incoming_.empty(); });
        for (auto& p : incoming_) local.push_back(std::move(p));
        incoming_.clear();
        if (local.empty() && done_) return;
      }
      harvest_ready(local, [&](std::size_t i, serve::MatvecResult res, std::int64_t t) {
        harvest_(i, std::move(res), t);
        harvested_.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }

  Harvest harvest_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Pending> incoming_;
  bool done_ = false;
  std::atomic<std::int64_t> harvested_{0};
  std::thread thread_;  // last: starts once the members it uses exist
};

std::int64_t to_ns(double seconds) { return static_cast<std::int64_t>(seconds * 1e9); }

/// Open loop: one generator thread sends each request at its scheduled
/// time whatever the service's state; a collector thread waits for them.
/// Latency runs from the scheduled send, so a stall that delays later
/// sends is charged to them.  Appends one outcome per request.
void open_loop(Service& s, std::vector<serve::StreamSession>& sessions,
               const Oracle& oracle, const std::vector<Req>& traffic, SpanLog& log,
               std::vector<Outcome>& outcomes, std::int64_t& start,
               std::int64_t& inflight_peak) {
  const std::size_t base = outcomes.size();
  outcomes.resize(base + traffic.size());  // no reallocation while the collector runs
  Collector collector([&](std::size_t i, serve::MatvecResult res, std::int64_t t) {
    harvest(outcomes[i], static_cast<std::int64_t>(i), std::move(res), t, oracle, log);
  });
  start = now_ns() + 1'000'000;  // the first send is never already late
  std::int64_t sent = 0;
  for (std::size_t i = base; i < outcomes.size(); ++i) {
    Outcome& o = outcomes[i];
    o.req = traffic[i - base];
    o.due_ns = start + to_ns(o.req.due);
    serve::Request req = make_request(s, oracle, o.req);
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::nanoseconds(o.due_ns))));
    o.traced = traced_slice(log.enabled(), o.req.due);
    if (o.traced) o.span = log.begin("serve.request", -1, static_cast<std::int64_t>(i), o.due_ns);
    o.send_ns = now_ns();
    std::future<serve::MatvecResult> f =
        o.req.session >= 0
            ? sessions[static_cast<std::size_t>(o.req.session)].submit(std::move(req.input))
            : s.sched->submit(std::move(req));
    o.submitted_ns = now_ns();
    if (o.traced) {
      log.end(log.begin("serve.submit", o.span, static_cast<std::int64_t>(i), o.send_ns),
              o.submitted_ns);
    }
    ++sent;
    inflight_peak = std::max(inflight_peak, sent - collector.harvested());
    collector.push(std::move(f), i);
  }
  collector.finish();
}

/// Closed loop: one thread keeps kSkewOutstanding requests in flight,
/// sending the next as soon as one completes, until the window ends.
/// Appends one outcome per request.
void closed_loop(Service& s, const WorkloadSpec& spec, const Oracle& oracle,
                 util::Rng& rng, double seconds, SpanLog& log,
                 std::vector<Outcome>& outcomes, std::int64_t& start,
                 std::int64_t& inflight_peak) {
  const Zipf zipf(spec.tenants.size(), kSkewZipf);
  std::deque<Pending> outstanding;
  start = now_ns();
  const std::int64_t stop = start + to_ns(seconds);
  for (;;) {
    if (now_ns() < stop) {
      while (outstanding.size() < kSkewOutstanding) {
        Outcome o;
        o.req.tenant = static_cast<int>(zipf(rng));
        o.req.config = static_cast<int>(rng.next_u64() % spec.configs.size());
        o.req.input = static_cast<int>(rng.next_u64() %
                                       static_cast<std::uint64_t>(spec.inputs_per_key));
        const auto i = static_cast<std::int64_t>(outcomes.size());
        serve::Request req = make_request(s, oracle, o.req);
        o.send_ns = o.due_ns = now_ns();
        o.traced = traced_slice(log.enabled(), static_cast<double>(o.send_ns - start) * 1e-9);
        if (o.traced) o.span = log.begin("serve.request", -1, i, o.send_ns);
        std::future<serve::MatvecResult> f = s.sched->submit(std::move(req));
        o.submitted_ns = now_ns();
        if (o.traced) log.end(log.begin("serve.submit", o.span, i, o.send_ns), o.submitted_ns);
        outcomes.push_back(o);
        outstanding.push_back({std::move(f), static_cast<std::size_t>(i)});
      }
      inflight_peak = std::max(inflight_peak, static_cast<std::int64_t>(outstanding.size()));
    } else if (outstanding.empty()) {
      return;
    }
    harvest_ready(outstanding, [&](std::size_t i, serve::MatvecResult res, std::int64_t t) {
      harvest(outcomes[i], static_cast<std::int64_t>(i), std::move(res), t, oracle, log);
    });
  }
}

double lane_sum(const serve::MetricsSnapshot& m, bool busy) {
  double sum = 0.0;
  for (const auto& lane : m.lanes) sum += busy ? lane.busy_sim_seconds : lane.wall_sim_seconds;
  return sum;
}

double ratio_or_zero(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Scheduler counters summed over the measured windows of every segment.
struct WindowCounters {
  double completed = 0.0, failed = 0.0, batches = 0.0, sim_seconds = 0.0;
  double cache_hits = 0.0, cache_misses = 0.0, deadline_total = 0.0, deadline_missed = 0.0;
  double retries = 0.0, sharded_batches = 0.0, comm_sim_seconds = 0.0;
  double lane_busy = 0.0, lane_wall = 0.0;

  void add(const serve::MetricsSnapshot& a, const serve::MetricsSnapshot& b) {
    const auto d = [](auto x, auto y) { return static_cast<double>(y - x); };
    completed += d(a.completed, b.completed);
    failed += d(a.failed, b.failed);
    batches += d(a.batches, b.batches);
    sim_seconds += d(a.sim_seconds, b.sim_seconds);
    cache_hits += d(a.cache_hits, b.cache_hits);
    cache_misses += d(a.cache_misses, b.cache_misses);
    deadline_total += d(a.deadline_total, b.deadline_total);
    deadline_missed += d(a.deadline_missed, b.deadline_missed);
    retries += d(a.retries_attempted, b.retries_attempted);
    sharded_batches += d(a.sharded_batches, b.sharded_batches);
    comm_sim_seconds += d(a.comm_sim_seconds, b.comm_sim_seconds);
    lane_busy += lane_sum(b, true) - lane_sum(a, true);
    lane_wall += lane_sum(b, false) - lane_sum(a, false);
  }
};

/// `traffic` holds each segment's open-loop requests; null runs the
/// closed loop instead.
RunResult run_serve(const WorkloadSpec& spec, const RunConfig& cfg,
                    const std::vector<std::vector<Req>>* traffic) {
  RunResult out;
  out.report = cfg.trace ? per_layer_report() : end_to_end_report();
  Report& r = out.report;
  std::vector<std::vector<double>> cols;
  for (std::size_t t = 0; t < spec.tenants.size(); ++t) {
    cols.push_back(core::make_first_block_col(
        core::LocalDims::single_rank(spec.tenants[t].dims), mix_seed(cfg.seed, 100 + t)));
  }
  const Oracle oracle(spec, cols, cfg.seed);

  SpanLog log(cfg.trace);
  util::Rng closed_rng(mix_seed(cfg.seed, 3));
  std::vector<double> setup_s;
  std::vector<Outcome> outcomes;
  WindowCounters counters;
  device::FaultStats faults_seen;
  std::int64_t inflight_peak = 0;
  double mem_mb = 0.0;
  double window = 0.0;
  double cpu = 0.0;
  int max_batch = 0;
  for (int seg = 0; seg < kSegments; ++seg) {
    Service svc;
    for (int k = 0; k < kSetupsPerSegment; ++k) {
      svc = Service{};  // one service alive at a time
      const std::int64_t setup0 = now_ns();
      svc = set_up(spec, cols, oracle, out);
      setup_s.push_back(static_cast<double>(now_ns() - setup0) * 1e-9);
    }
    settle(svc, spec, oracle, out);
    if (seg == 0) max_batch = svc.sched->options().max_batch;
    // Which lane a warm-up batch lands on is a race, so now and then a
    // lane leaves warm-up without one of its workspaces; the largest of
    // the segments' readings is the warm footprint.  (Read after the
    // window instead, it would count the request path's lazy allocations,
    // whose timing varies.)
    mem_mb = std::max(mem_mb, static_cast<double>(svc.sched->device().memory_used()) / 1e6);
    std::vector<serve::StreamSession> sessions;
    for (const auto& ss : spec.sessions) {
      sessions.push_back(svc.sched->open_stream(svc.ids[static_cast<std::size_t>(ss.tenant)],
                                                ss.direction, oracle.config(ss.config),
                                                ss.qos));
    }
    // A zero-rate fault plan injects nothing; its counters count launches
    // and allocations.
    std::shared_ptr<device::FaultPlan> faults;
    if (cfg.trace) {
      faults = std::make_shared<device::FaultPlan>();
      svc.sched->device().set_fault_plan(faults);
    }
    const serve::MetricsSnapshot before = svc.sched->metrics();
    const std::size_t first = outcomes.size();
    std::int64_t start = 0;
    const double cpu0 = cpu_seconds();
    if (traffic != nullptr) {
      open_loop(svc, sessions, oracle, (*traffic)[static_cast<std::size_t>(seg)], log,
                outcomes, start, inflight_peak);
    } else {
      closed_loop(svc, spec, oracle, closed_rng, cfg.seconds / kSegments, log, outcomes,
                  start, inflight_peak);
    }
    for (auto& session : sessions) session.close();
    svc.sched->drain();
    cpu += cpu_seconds() - cpu0;
    counters.add(before, svc.sched->metrics());
    std::int64_t last_ready = start;
    for (std::size_t i = first; i < outcomes.size(); ++i) {
      last_ready = std::max(last_ready, outcomes[i].ready_ns);
    }
    window += static_cast<double>(last_ready - start) * 1e-9;
    if (faults) {
      faults_seen.kernel_launches += faults->stats().kernel_launches;
      faults_seen.allocs += faults->stats().allocs;
      svc.sched->device().set_fault_plan(nullptr);
    }
  }

  std::vector<double> latency, traced_lat, untraced_lat, lag_ms, submit_us, queue_ms,
      exec_ms, fulfil_ms, rel;
  core::PhaseTimings sim_sum;
  std::int64_t completed = 0;
  for (const Outcome& o : outcomes) {
    out.tally.record(o.ok);
    if (o.mismatch) out.checks_passed = false;
    const double e2e = static_cast<double>(o.ready_ns - o.due_ns) * 1e-9;
    const double lag = static_cast<double>(o.send_ns - o.due_ns) * 1e-9;
    latency.push_back(latency_or_miss(o.ok, e2e));
    (o.traced ? traced_lat : untraced_lat).push_back(latency.back());
    lag_ms.push_back(lag * 1e3);
    submit_us.push_back(static_cast<double>(o.submitted_ns - o.send_ns) * 1e-3);
    if (!o.ok) continue;
    ++completed;
    rel.push_back(o.rel_err);
    queue_ms.push_back(o.queue_s * 1e3);
    exec_ms.push_back(o.exec_s * 1e3);
    fulfil_ms.push_back((e2e - lag - o.queue_s - o.exec_s) * 1e3);
    sim_sum += o.timings;
  }
  const double ops = static_cast<double>(out.tally.attempted);

  // Traced runs read the tail from their untraced slices.
  const Percentile tl = chunked_tail(cfg.trace ? untraced_lat : latency, kTailChunk);
  out.notes.push_back(std::string(spec.name) + ": " + std::to_string(out.tally.attempted) +
                      " requests over " + std::to_string(spec.tenants.size()) +
                      " tenants in " + std::to_string(window) + " s over " +
                      std::to_string(kSegments) + " segments, max_batch " +
                      std::to_string(max_batch));
  out.notes.push_back(setup_note(setup_s));
  out.notes.push_back("latency p50 " + std::to_string(median(latency).value * 1e3) + " ms, p" +
                      std::to_string(tl.pct) + " " + std::to_string(tl.value * 1e3) + " ms of " +
                      std::to_string(tl.samples) + " requests (" +
                      std::to_string(tl.beyond) + " beyond)");
  if (!cfg.trace) {
    r.set("setup_s", median(setup_s).value);
    r.set("sim_us_per_op", ratio_or_zero(counters.sim_seconds, counters.completed) * 1e6);
    r.set("device_mem_mb", mem_mb);
    r.set("rel_err", mean(rel));
    r.set("success_rate", out.tally.success_rate());
    return out;
  }

  const double untraced = median_or_zero(untraced_lat);
  r.set("e2e.latency_p50_ms", untraced * 1e3);
  r.set("e2e.latency_tail_ms", tl.value * 1e3);
  // Over the whole window: the traced slices cost about 1% (trace.overhead_pct).
  r.set("e2e.throughput_ops_s", ratio_or_zero(static_cast<double>(completed), window));
  r.set("error_rate", out.tally.error_rate());
  r.set("trace.overhead_pct",
        untraced > 0.0 && !traced_lat.empty()
            ? (median_or_zero(traced_lat) / untraced - 1.0) * 100.0
            : 0.0);
  const double us = completed > 0 ? 1e6 / static_cast<double>(completed) : 0.0;
  r.set("core.pad_sim_us", sim_sum.pad * us);
  r.set("core.fft_sim_us", sim_sum.fft * us);
  r.set("core.sbgemv_sim_us", sim_sum.sbgemv * us);
  r.set("core.ifft_sim_us", sim_sum.ifft * us);
  r.set("core.unpad_sim_us", sim_sum.unpad * us);
  r.set("core.overlap_ratio", ratio_or_zero(sim_sum.total(), sim_sum.span()));
  r.set("device.launches_per_op", static_cast<double>(faults_seen.kernel_launches) / ops);
  r.set("device.allocs_per_op", static_cast<double>(faults_seen.allocs) / ops);
  r.set("util.cpu_ms_per_op", cpu / ops * 1e3);
  r.set("util.cpu_over_wall", ratio_or_zero(cpu, window));
  r.set("serve.submit_us_p50", median_or_zero(submit_us));
  r.set("serve.queue_ms_p50", median_or_zero(queue_ms));
  r.set("serve.queue_ms_p99", tail_or_zero(queue_ms));
  r.set("serve.exec_ms_p50", median_or_zero(exec_ms));
  r.set("serve.exec_ms_p99", tail_or_zero(exec_ms));
  r.set("serve.fulfil_ms_p50", median_or_zero(fulfil_ms));
  r.set("serve.batch_mean",
        ratio_or_zero(counters.completed + counters.failed, counters.batches));
  r.set("serve.batches", counters.batches);
  r.set("serve.lane_utilization", ratio_or_zero(counters.lane_busy, counters.lane_wall));
  r.set("serve.cache_hit_rate",
        ratio_or_zero(counters.cache_hits, counters.cache_hits + counters.cache_misses));
  // Seen from outside: requests submitted whose future is not yet ready
  // (queued plus executing).  The scheduler's own queue-depth gauge
  // keeps its high-water mark from the warm-up bursts.
  r.set("serve.queue_depth_peak", static_cast<double>(inflight_peak));
  r.set("serve.deadline_miss_rate",
        ratio_or_zero(counters.deadline_missed, counters.deadline_total));
  r.set("serve.retries", counters.retries);
  r.set("comm.sharded_batches", counters.sharded_batches);
  r.set("comm.sim_us_per_sharded_batch",
        ratio_or_zero(counters.comm_sim_seconds, counters.sharded_batches) * 1e6);
  r.set("load.lag_p99_ms", tail_or_zero(lag_ms));
  device::Device probe_dev(device::make_mi300x());
  set_kernel_metrics(r, probe_kernels(probe_dev, spec.tenants.front().dims, log));
  write_spans(cfg, spec.name, log, out);
  return out;
}

/// One serve_mixed request due at `due`: a session apply or a one-shot
/// to any tenant, direction and config.
Req draw_mixed(const WorkloadSpec& spec, util::Rng& rng, double due) {
  Req q;
  q.due = due;
  if (rng.next_double() < kSessionShare) {
    q.session = static_cast<int>(rng.next_u64() % spec.sessions.size());
    const SessionSpec& ss = spec.sessions[static_cast<std::size_t>(q.session)];
    q.tenant = ss.tenant;
    q.direction = ss.direction;
    q.config = ss.config;
  } else {
    q.tenant = static_cast<int>(rng.next_u64() % spec.tenants.size());
    q.direction = rng.next_double() < kAdjointShare ? Dir::kAdjoint : Dir::kForward;
    q.config = static_cast<int>(rng.next_u64() % spec.configs.size());
  }
  q.input = static_cast<int>(rng.next_u64() % static_cast<std::uint64_t>(spec.inputs_per_key));
  return q;
}

}  // namespace

RunResult run_serve_mixed(const RunConfig& cfg) {
  // Eight same-shape tenants, two larger shapes and one tenant sharded
  // over a 2-rank group; three precision configs, 30% adjoint, part of
  // the traffic through two deadline-tagged streaming sessions.
  WorkloadSpec spec;
  spec.name = "serve_mixed";
  for (int i = 0; i < 8; ++i) spec.tenants.push_back({{96, 6, 40}, 1});
  spec.tenants.push_back({{192, 12, 40}, 1});
  spec.tenants.push_back({{144, 8, 64}, 1});
  spec.tenants.push_back({{96, 6, 40}, 2});
  spec.configs = {"ddddd", "dssdd", "sssss"};
  spec.directions = {Dir::kForward, Dir::kAdjoint};
  spec.inputs_per_key = 4;
  spec.sessions = {{0, Dir::kForward, 1, {.deadline_seconds = 0.02, .weight = 2.0}},
                   {1, Dir::kAdjoint, 0, {.deadline_seconds = 0.02, .weight = 1.0}}};

  util::Rng rng(mix_seed(cfg.seed, 2));
  std::vector<std::vector<Req>> traffic(kSegments);
  for (auto& segment : traffic) {
    for (const double due : poisson_arrivals(rng, kMixedRate, cfg.seconds / kSegments)) {
      segment.push_back(draw_mixed(spec, rng, due));
    }
  }
  return run_serve(spec, cfg, &traffic);
}

RunResult run_serve_skew(const RunConfig& cfg) {
  // 64 same-shape tenants with zipf^0.7 popularity, forward only: at
  // saturation every batch fills across many tenants.
  WorkloadSpec spec;
  spec.name = "serve_skew";
  for (int i = 0; i < 64; ++i) spec.tenants.push_back({{96, 6, 40}, 1});
  spec.configs = {"ddddd", "dssdd"};
  spec.directions = {Dir::kForward};
  spec.inputs_per_key = 2;
  return run_serve(spec, cfg, nullptr);
}

}  // namespace perfbench
