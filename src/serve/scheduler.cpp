#include "serve/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>

#include "comm/fault.hpp"
#include "device/fault_plan.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace fftmv::serve {

namespace {

using clock = std::chrono::steady_clock;

double seconds_between(clock::time_point a, clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Reject QoS the scheduler cannot honour, naming the calling entry
/// point.  A NaN or infinite deadline has no place on the clock.
void validate_qos(const StreamQoS& qos, const char* caller) {
  if (!std::isfinite(qos.deadline_seconds) || qos.deadline_seconds < 0.0) {
    throw std::invalid_argument(
        std::string(caller) + ": qos.deadline_seconds must be finite and >= 0, got " +
        std::to_string(qos.deadline_seconds));
  }
  if (!(qos.weight > 0.0)) {
    throw std::invalid_argument(std::string(caller) +
                                ": qos.weight must be > 0, got " +
                                std::to_string(qos.weight));
  }
}

/// The absolute deadline `seconds` (finite, > 0) after `start`.  One
/// past the clock's range (~292 years) saturates just short of it
/// instead of overflowing the conversion: time_point::max() itself
/// marks best effort, and the millisecond margin absorbs the rounding
/// of the double-to-tick conversion.
clock::time_point deadline_after(clock::time_point start, double seconds) {
  const clock::duration headroom =
      clock::time_point::max() - start - std::chrono::milliseconds(1);
  const std::chrono::duration<double> relative(seconds);
  if (relative >= headroom) return start + headroom;
  return start + std::chrono::duration_cast<clock::duration>(relative);
}

/// Validate and resolve the service configuration up front (throwing
/// std::invalid_argument naming the bad field), so a misconfigured
/// scheduler fails at construction instead of misbehaving under load.
ServeOptions resolve_options(ServeOptions options) {
  if (options.num_streams <= 0) {
    throw std::invalid_argument("ServeOptions: num_streams must be >= 1, got " +
                                std::to_string(options.num_streams));
  }
  if (options.max_batch < 0) {
    throw std::invalid_argument("ServeOptions: max_batch must be >= 0, got " +
                                std::to_string(options.max_batch));
  }
  if (options.linger_seconds < 0.0) {
    throw std::invalid_argument(
        "ServeOptions: linger_seconds must be >= 0, got " +
        std::to_string(options.linger_seconds));
  }
  if (options.plan_cache_capacity == 0) {
    throw std::invalid_argument("ServeOptions: plan_cache_capacity must be >= 1");
  }
  if (options.max_queue_depth < 0) {
    throw std::invalid_argument(
        "ServeOptions: max_queue_depth must be >= 0, got " +
        std::to_string(options.max_queue_depth));
  }
  if (options.max_retries < 0) {
    throw std::invalid_argument("ServeOptions: max_retries must be >= 0, got " +
                                std::to_string(options.max_retries));
  }
  if (options.retry_backoff_seconds < 0.0) {
    throw std::invalid_argument(
        "ServeOptions: retry_backoff_seconds must be >= 0, got " +
        std::to_string(options.retry_backoff_seconds));
  }
  if (options.max_batch == 0) options.max_batch = kDefaultMaxBatch;
  return options;
}

/// Map a dispatch-path exception to the serve error taxonomy;
/// kTransientDevice and kOutOfMemory are the retryable classes.
ErrorCode classify_failure(std::exception_ptr error) {
  try {
    std::rethrow_exception(error);
  } catch (const device::StreamFault&) {
    return ErrorCode::kTransientDevice;
  } catch (const device::DeviceOutOfMemory&) {
    return ErrorCode::kOutOfMemory;
  } catch (const comm::RankFailure&) {
    return ErrorCode::kRankFailure;
  } catch (const device::SilentCorruption&) {
    // Ordered before the catch-all: SilentCorruption derives from
    // std::runtime_error, so a later handler would swallow it.
    return ErrorCode::kSilentCorruption;
  } catch (...) {
    return ErrorCode::kInternal;
  }
}

bool retryable(ErrorCode code) {
  return code == ErrorCode::kTransientDevice ||
         code == ErrorCode::kOutOfMemory ||
         code == ErrorCode::kSilentCorruption;
}

/// Fixture for the adaptive rank-group probe: a phantom device (dry
/// runs are pure cost-model arithmetic — deterministic per
/// DeviceSpec, no buffers, no kernels), a stream, an empty-column
/// operator and a plan at `dims`.  `timed_apply` runs one null-view
/// apply_batch and returns its simulated duration.
struct PhantomProbe {
  device::Device dev;
  device::Stream stream;
  core::BlockToeplitzOperator op;
  core::FftMatvecPlan plan;

  PhantomProbe(const device::DeviceSpec& spec, const core::LocalDims& dims)
      : dev(spec, &util::ThreadPool::global(), /*phantom=*/true),
        stream(dev),
        op(dev, stream, dims, {}),
        plan(dev, stream, dims) {}

  double timed_apply(index_t b, core::ApplyDirection direction,
                     const precision::PrecisionConfig& config) {
    const std::vector<core::ConstVectorView> ins(static_cast<std::size_t>(b));
    const std::vector<core::VectorView> outs(static_cast<std::size_t>(b));
    const double t0 = stream.now();
    plan.apply_batch(op, direction, config, ins, outs);
    return stream.now() - t0;
  }
};

}  // namespace

int adaptive_rank_group(const device::DeviceSpec& spec,
                        const core::ProblemDims& dims, int max_rank_group,
                        const comm::NetworkSpec& network) {
  // Crossover probe: a wider group sheds per-rank compute (rank 0's
  // forward slice, the widest, bounds the group's compute makespan)
  // but buys the group's broadcast+gather bill.  Probed at a
  // representative coalesced batch in the double-precision forward
  // direction; each doubling must beat the incumbent by > 3% so
  // marginal shapes never shard for noise-level gains.
  constexpr double kMinGain = 0.03;
  constexpr index_t kProbeBatch = 8;
  dims.validate();
  const index_t cap = std::min<index_t>(std::max(max_rank_group, 1),
                                        std::min(dims.n_d, dims.n_m));
  const comm::CommCostModel net(network);
  const double in_bytes =
      8.0 * static_cast<double>(dims.n_t) * static_cast<double>(dims.n_m);
  const double out_bytes =
      8.0 * static_cast<double>(dims.n_t) * static_cast<double>(dims.n_d);
  double best_t = 0.0;
  index_t best_r = 1;
  for (index_t r = 1; r <= cap; r *= 2) {
    const core::LocalDims local =
        r == 1 ? core::LocalDims::single_rank(dims)
               : core::LocalDims::for_rank(dims, comm::ProcessGrid(r, 1), 0);
    PhantomProbe probe(spec, local);
    const double compute = probe.timed_apply(
        kProbeBatch, core::ApplyDirection::kForward, precision::PrecisionConfig{});
    const double comm =
        r == 1 ? 0.0
               : net.rank_group_collectives(
                        r, static_cast<double>(kProbeBatch) * in_bytes,
                        static_cast<double>(kProbeBatch) * out_bytes)
                     .total();
    const double t = compute + comm;
    if (r == 1 || t < best_t * (1.0 - kMinGain)) {
      best_t = t;
      best_r = r;
    }
  }
  return static_cast<int>(best_r);
}

AsyncScheduler::AsyncScheduler(const device::DeviceSpec& spec, ServeOptions options)
    : options_(resolve_options(options)),
      dev_(spec),
      setup_stream_(dev_),
      cache_(dev_, options_.plan_cache_capacity),
      queue_(options_.max_batch, options_.linger_seconds,
             options_.deadline_aware, options_.max_queue_depth,
             options_.overload_policy) {
  lanes_.resize(static_cast<std::size_t>(options_.num_streams));
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    // Device-clock trace tracks: lane i's rank-0 stream is tid i.
    // Track names are registered unconditionally — they are session
    // metadata, so a trace session started after construction still
    // labels them.
    const auto& stream =
        lanes_[i].streams.emplace_back(std::make_unique<device::Stream>(dev_));
    const int tid = static_cast<int>(i);
    stream->set_trace_tid(tid);
    util::trace::set_device_track_name(tid, "lane " + std::to_string(i));
  }
  // Streams first, then workers: a worker may touch any lane state
  // only through its own index.
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    lanes_[i].worker = std::thread([this, i] { worker_loop(static_cast<int>(i)); });
  }
}

AsyncScheduler::~AsyncScheduler() {
  shutdown();
  // Outstanding StreamSession handles go inert before any member they
  // could touch is destroyed; the exclusive lock waits out handle
  // calls already in flight (their drains completed with shutdown's).
  std::unique_lock live(liveness_->mutex);
  liveness_->alive = false;
}

TenantId AsyncScheduler::add_tenant(const core::ProblemDims& dims,
                                    std::span<const double> first_block_col,
                                    int rank_group) {
  dims.validate();
  if (rank_group < 1) {
    throw std::invalid_argument(
        "AsyncScheduler::add_tenant: rank_group must be >= 1, got " +
        std::to_string(rank_group));
  }
  const comm::NetworkSpec network = comm::NetworkSpec::frontier();
  if (rank_group > network.node_size) {
    throw std::invalid_argument(
        "AsyncScheduler::add_tenant: rank_group " + std::to_string(rank_group) +
        " exceeds the node size " + std::to_string(network.node_size));
  }
  if (rank_group > dims.n_d || rank_group > dims.n_m) {
    throw std::invalid_argument(
        "AsyncScheduler::add_tenant: rank_group " + std::to_string(rank_group) +
        " exceeds an output dimension (n_d=" + std::to_string(dims.n_d) +
        ", n_m=" + std::to_string(dims.n_m) + ")");
  }
  // The expensive setup (batched FFT of the block column, fp32
  // spectrum warm — the latter so the lazily-cast copy is never raced
  // later) runs before the tenants lock is taken: registration must
  // not stall data-plane lanes looking up other tenants.  Its own
  // mutex serialises concurrent registrations on the setup stream.
  std::shared_ptr<core::ShardedOperator> op;
  {
    std::lock_guard setup_lock(setup_mutex_);
    op = std::make_shared<core::ShardedOperator>(
        dev_, setup_stream_, dims, static_cast<index_t>(rank_group),
        first_block_col);
    op->warm_spectrum_f(setup_stream_);
    if (options_.verify_mode != core::VerifyMode::kOff) {
      // Warm the ABFT checksum vectors too, so the lazily-built copies
      // are never raced (and never billed, or fault-injected) on the
      // request path.
      op->warm_checksums(setup_stream_);
    }
  }
  std::lock_guard lock(tenants_mutex_);
  const TenantId id = next_tenant_++;
  tenants_.emplace(id, Tenant{core::LocalDims::single_rank(dims), std::move(op)});
  return id;
}

int AsyncScheduler::tenant_rank_group(TenantId tenant) const {
  std::lock_guard lock(tenants_mutex_);
  const auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    throw std::invalid_argument(
        "AsyncScheduler::tenant_rank_group: unknown tenant " +
        std::to_string(tenant));
  }
  return static_cast<int>(it->second.op->ranks());
}

bool AsyncScheduler::tenant_degraded(TenantId tenant) const {
  std::lock_guard lock(tenants_mutex_);
  const auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    throw std::invalid_argument(
        "AsyncScheduler::tenant_degraded: unknown tenant " +
        std::to_string(tenant));
  }
  return it->second.degraded;
}

std::future<MatvecResult> AsyncScheduler::enqueue(Request request,
                                                  SessionId session) {
  const util::trace::Span submit_span("submit", "serve");
  validate_qos(request.qos, "AsyncScheduler::submit");
  core::LocalDims dims;
  bool tenant_sharded = false;
  {
    std::lock_guard lock(tenants_mutex_);
    const auto it = tenants_.find(request.tenant);
    if (it == tenants_.end()) {
      throw std::invalid_argument("AsyncScheduler::submit: unknown tenant " +
                                  std::to_string(request.tenant));
    }
    dims = it->second.dims;
    tenant_sharded = it->second.op->ranks() > 1;
  }
  const index_t expect = request.direction == core::ApplyDirection::kForward
                             ? dims.n_t() * dims.n_m_local
                             : dims.n_t() * dims.n_d_local;
  if (static_cast<index_t>(request.input.size()) != expect) {
    throw std::invalid_argument("AsyncScheduler::submit: input extent " +
                                std::to_string(request.input.size()) +
                                ", expected " + std::to_string(expect));
  }

  PendingRequest req;
  req.tenant = request.tenant;
  req.session = session;
  req.input = std::move(request.input);
  req.enqueued = clock::now();
  if (request.qos.deadline_seconds > 0.0) {
    // Relative QoS deadline -> absolute: the miss test and the EDF
    // order both run on the absolute time.
    req.deadline = deadline_after(req.enqueued, request.qos.deadline_seconds);
  }
  req.weight = request.qos.weight;
  std::future<MatvecResult> future = req.promise.get_future();

  bool counted = false;
  {
    std::lock_guard lock(state_mutex_);
    if (accepting_) {
      ++in_flight_;
      counted = true;
    }
  }
  // Counted (and the serving wall clock started) before the push: a
  // lane may pop and finish the request before this thread resumes,
  // and completed must never exceed submitted in a metrics() snapshot.
  metrics_.record_submit();
  if (!counted) {
    // Shut down: the error contract returns a ready kShutdown future
    // instead of throwing — the two submit overloads and a live
    // session handle all behave identically.
    retire_undispatched(std::move(req), ErrorCode::kShutdown,
                        /*counted=*/false);
    return future;
  }

  // Queue-wait span: an async begin/end pair (the wait ends on a lane
  // thread, and same-key waits overlap) matched on trace_id, which
  // rides inside the PendingRequest to dispatch.
  if (util::trace::enabled()) {
    req.trace_id = util::trace::next_id();
    util::trace::async_begin(
        "queue_wait", "serve", req.trace_id,
        {{"tenant", static_cast<std::int64_t>(request.tenant)},
         {"session", static_cast<std::int64_t>(session)}});
  }

  // Shape-keyed coalescing: tenant splits keys in the same-tenant-only
  // ablation mode, and ALWAYS for sharded tenants — placement is a
  // property of the whole batch (one sharded apply per dispatch), so a
  // sharded tenant's requests never mix with another tenant's.
  const BatchKey key{dims, request.direction, request.config.to_string(),
                     options_.cross_tenant_batching && !tenant_sharded
                         ? TenantId{0}
                         : request.tenant};
  RequestQueue::PushOutcome outcome = queue_.push(key, std::move(req));
  // Promises surface OUTSIDE the queue lock: push hands refused and
  // displaced requests back instead of fulfilling them itself.
  if (outcome.shed.has_value()) {
    retire_undispatched(std::move(*outcome.shed), ErrorCode::kShed,
                        /*counted=*/true);
  }
  if (!outcome.accepted()) {
    const ErrorCode code =
        outcome.status == RequestQueue::PushOutcome::Status::kClosed
            ? ErrorCode::kShutdown  // close() raced the accepting_ check
            : ErrorCode::kQueueFull;
    retire_undispatched(std::move(*outcome.returned), code, /*counted=*/true);
  }
  return future;
}

void AsyncScheduler::retire_undispatched(PendingRequest req, ErrorCode code,
                                         bool counted) {
  if (req.trace_id != 0) {
    util::trace::async_end("queue_wait", "serve", req.trace_id);
  }
  if (util::trace::enabled()) {
    util::trace::instant(
        code == ErrorCode::kShed        ? "shed"
        : code == ErrorCode::kQueueFull ? "rejected"
                                        : "refused_shutdown",
        "serve",
        {{"tenant", static_cast<std::int64_t>(req.tenant)},
         {"session", static_cast<std::int64_t>(req.session)}});
  }
  const double queue_s = seconds_between(req.enqueued, clock::now());
  const bool had_deadline = req.has_deadline();
  MatvecResult result;
  result.error = code;
  result.session = req.session;
  result.queue_seconds = queue_s;
  // A refused deadline-bearing request was certainly not served on
  // time.
  result.deadline_missed = had_deadline;
  req.promise.set_value(std::move(result));
  metrics_.record_request(queue_s, 0.0, code, req.session, had_deadline,
                          had_deadline);
  {
    std::lock_guard lock(state_mutex_);
    if (counted) --in_flight_;
    if (req.session != 0) {
      if (const auto it = sessions_.find(req.session); it != sessions_.end()) {
        --it->second.outstanding;
      }
    }
  }
  cv_drained_.notify_all();
}

std::future<MatvecResult> AsyncScheduler::submit(Request request) {
  return enqueue(std::move(request), /*session=*/0);
}

std::future<MatvecResult> AsyncScheduler::submit(
    TenantId tenant, core::ApplyDirection direction,
    const precision::PrecisionConfig& config, std::vector<double> input) {
  Request request;
  request.tenant = tenant;
  request.direction = direction;
  request.config = config;
  request.input = std::move(input);
  return enqueue(std::move(request), /*session=*/0);
}

StreamSession AsyncScheduler::open_stream(TenantId tenant,
                                          core::ApplyDirection direction,
                                          const precision::PrecisionConfig& config,
                                          StreamQoS qos) {
  validate_qos(qos, "AsyncScheduler::open_stream");
  // Pin exactly the shapes dispatch acquires: each rank slice of the
  // tenant's placement in this direction (at one rank, its own dims).
  std::vector<PlanKey> pin_keys;
  {
    std::lock_guard lock(tenants_mutex_);
    const auto it = tenants_.find(tenant);
    if (it == tenants_.end()) {
      throw std::invalid_argument("AsyncScheduler::open_stream: unknown tenant " +
                                  std::to_string(tenant));
    }
    const core::ShardedOperator& op = *it->second.op;
    for (index_t rk = 0; rk < op.ranks(); ++rk) {
      pin_keys.push_back(PlanKey{op.rank_dims(direction, rk), /*lane=*/0});
    }
  }
  // Capacity check BEFORE pinning: every pinned shape keeps one
  // resident plan per lane, and the cache must still hold that whole
  // pinned working set or eviction has nothing left to reclaim.
  {
    std::lock_guard lock(state_mutex_);
    if (!accepting_) {
      throw std::runtime_error(
          "AsyncScheduler::open_stream: scheduler is shut down");
    }
    std::size_t shapes = cache_.pinned_shapes();
    for (const PlanKey& key : pin_keys) {
      if (!cache_.pinned(key)) ++shapes;
    }
    if (shapes * lanes_.size() > options_.plan_cache_capacity) {
      throw std::invalid_argument(
          "AsyncScheduler::open_stream: pinning this session needs " +
          std::to_string(shapes * lanes_.size()) +
          " resident plans (pinned shapes x lanes), exceeding "
          "ServeOptions::plan_cache_capacity = " +
          std::to_string(options_.plan_cache_capacity) +
          "; raise the capacity or close other sessions");
    }
    for (const PlanKey& key : pin_keys) cache_.pin(key);
    const SessionId id = next_session_++;
    sessions_.emplace(id, SessionState{tenant, direction, config, qos,
                                       std::move(pin_keys), 0});
    return StreamSession(this, liveness_, id, tenant, direction, config, qos);
  }
}

std::future<MatvecResult> AsyncScheduler::submit_stream(
    SessionId session, std::vector<double> input) {
  Request request;
  {
    std::lock_guard lock(state_mutex_);
    const auto it = sessions_.find(session);
    if (it == sessions_.end()) {
      throw std::runtime_error(
          "AsyncScheduler::submit_stream: session is closed");
    }
    request.tenant = it->second.tenant;
    request.direction = it->second.direction;
    request.config = it->second.config;
    request.qos = it->second.qos;
    // Counted before the enqueue so a racing close_session drains this
    // apply; undone below if enqueue refuses it.
    ++it->second.outstanding;
  }
  request.input = std::move(input);
  try {
    return enqueue(std::move(request), session);
  } catch (...) {
    std::lock_guard lock(state_mutex_);
    if (const auto it = sessions_.find(session); it != sessions_.end()) {
      --it->second.outstanding;
    }
    cv_drained_.notify_all();
    throw;
  }
}

void AsyncScheduler::close_session(SessionId session) {
  std::vector<PlanKey> pin_keys;
  {
    std::unique_lock lock(state_mutex_);
    const auto it = sessions_.find(session);
    if (it == sessions_.end()) return;  // idempotent
    // Drain: every accepted apply of this session is fulfilled before
    // the pin is dropped (execute_batch notifies cv_drained_ after
    // every batch).
    cv_drained_.wait(lock, [&] { return it->second.outstanding == 0; });
    pin_keys = std::move(it->second.pin_keys);
    sessions_.erase(it);
  }
  // Drained first, so every record_request of this session has landed
  // before its reservoir is compacted to a final summary.
  metrics_.close_session(session);
  for (const PlanKey& key : pin_keys) cache_.unpin(key);
}

void AsyncScheduler::worker_loop(int lane) {
  util::trace::set_thread_name("lane " + std::to_string(lane));
  while (auto batch = queue_.pop_batch()) {
    execute_batch(lane, *batch);
  }
}

void AsyncScheduler::execute_batch(int lane, Batch& batch) {
  const auto exec_start = clock::now();
  const bool trace_on = util::trace::enabled();
  const double span_t0 = trace_on ? util::trace::now_us() : 0.0;
  // Stamped by pop_batch under the queue mutex: with several lanes,
  // a fetch_add here could tag two consecutive pops in reverse order
  // and break the session dispatch-order guarantee.
  const std::int64_t batch_seq = batch.seq;
  Lane& lane_state = lanes_[static_cast<std::size_t>(lane)];
  device::Stream& stream = *lane_state.streams.front();
  const double sim_start = stream.now();

  const std::size_t b = batch.requests.size();
  const int batch_size = static_cast<int>(b);

  // Queue-depth gauge + per-request queue-wait closure, sampled at
  // dispatch (the natural "left the queue" point).
  const std::size_t depth = queue_.pending();
  metrics_.record_queue_depth(depth);
  if (trace_on) {
    for (const auto& req : batch.requests) {
      if (req.trace_id != 0) {
        util::trace::async_end("queue_wait", "serve", req.trace_id);
      }
    }
    util::trace::counter("queue_depth", static_cast<double>(depth));
  }

  // A shape-keyed batch may span several tenants: stable-sort by
  // tenant (FIFO order preserved within a tenant) so each tenant's
  // requests form one contiguous operator group.
  std::stable_sort(batch.requests.begin(), batch.requests.end(),
                   [](const PendingRequest& a, const PendingRequest& o) {
                     return a.tenant < o.tenant;
                   });

  const core::LocalDims dims = batch.key.dims;
  const core::ApplyDirection direction = batch.key.direction;
  const TenantId batch_tenant = batch.requests[0].tenant;
  const precision::PrecisionConfig config =
      precision::PrecisionConfig::parse(batch.key.precision);
  const bool forward = direction == core::ApplyDirection::kForward;
  const index_t out_len =
      forward ? dims.n_t() * dims.n_d_local : dims.n_t() * dims.n_m_local;

  // Tenant bindings resolve ONCE, before any (possibly retried)
  // dispatch attempt: the shared_ptrs keep every operator alive
  // across the applies even if its tenant is concurrently
  // deregistered, and a retry or per-request quarantine re-dispatch
  // rebuilds its operator groups from these without another pass over
  // the tenants map.  Every request shares one placement: a sharded
  // tenant's batches are tenant-homogeneous by key construction
  // (enqueue keys them on the tenant id), and a cross-tenant batch
  // holds 1-rank tenants only.
  bool was_degraded = false;
  std::vector<std::shared_ptr<core::ShardedOperator>> req_ops(b);
  {
    std::lock_guard lock(tenants_mutex_);
    was_degraded = tenants_.at(batch_tenant).degraded;
    for (std::size_t r = 0; r < b; ++r) {
      req_ops[r] = tenants_.at(batch.requests[r].tenant).op;
    }
  }
  const core::ShardedOperator& placement = *req_ops.front();
  const index_t ranks = placement.ranks();

  // Records a sharded tenant's degraded state (a rank failure sets
  // it, the next clean sharded dispatch clears it).
  const auto mark_degraded = [&](bool degraded) {
    was_degraded = degraded;
    std::lock_guard lock(tenants_mutex_);
    if (const auto it = tenants_.find(batch_tenant); it != tenants_.end()) {
      it->second.degraded = degraded;
    }
  };

  std::vector<MatvecResult> results(b);
  std::vector<core::PhaseTimings> shares(b);
  int group_count = 0;

  // One dispatch attempt over requests [lo, hi): acquire one plan per
  // placement rank (plan creation may itself fault — an injected
  // DeviceOutOfMemory caches nothing, so the retry rebuilds cleanly),
  // run ONE grouped DistributedMatvecPlan::apply_batch and attribute
  // the per-request timing shares.  Throws on failure.  A failed
  // attempt may leave partial outputs in results[lo..hi) (a verified
  // apply may write its outputs before its checks throw; a
  // StreamFault fires before any writes), but none is visible: a
  // successful re-attempt rewrites the range completely, so retried
  // dispatches stay bit-identical to a fault-free run, and a request
  // that finally fails is fulfilled with a fresh MatvecResult that
  // has no output.
  const auto run_attempt = [&](std::size_t lo, std::size_t hi) {
    const std::size_t n = hi - lo;
    std::vector<core::ConstVectorView> inputs(n);
    std::vector<core::VectorView> outputs(n);
    // Contiguous same-tenant runs form operator groups (the batch was
    // stable-sorted by tenant above).
    std::vector<core::DistributedMatvecPlan::OperatorGroup> groups;
    for (std::size_t i = lo; i < hi; ++i) {
      results[i].output.resize(static_cast<std::size_t>(out_len));
      inputs[i - lo] = batch.requests[i].input;
      outputs[i - lo] = results[i].output;
      if (i > lo && batch.requests[i].tenant == batch.requests[i - 1].tenant) {
        ++groups.back().rhs_count;
      } else {
        groups.push_back({req_ops[i].get(), 1});
      }
    }
    group_count = static_cast<int>(groups.size());
    const util::trace::Span apply_span("apply", "serve");
    // Rank plans ride the shared PlanCache under per-(lane, rank)
    // keys: rank 0 uses the lane's own index and drives the lane's
    // first stream, and rank r >= 1 encodes lane + num_lanes * r,
    // injective and disjoint from the lanes' [0, num_lanes) so a
    // cached rank plan is never driven from a foreign stream.  Streams
    // grow lazily to the widest group this lane has seen.
    std::vector<std::shared_ptr<core::FftMatvecPlan>> owned;
    std::vector<core::FftMatvecPlan*> plans;
    const auto acquire = [&](index_t rk, device::Stream& rank_stream,
                             int key_lane) {
      owned.push_back(cache_.acquire(
          PlanKey{placement.rank_dims(direction, rk), key_lane}, rank_stream));
      plans.push_back(owned.back().get());
    };
    {
      const util::trace::Span acquire_span("acquire_plan", "serve");
      while (lane_state.streams.size() < static_cast<std::size_t>(ranks)) {
        lane_state.streams.push_back(std::make_unique<device::Stream>(dev_));
      }
      const auto num_lanes = static_cast<int>(lanes_.size());
      for (index_t rk = 0; rk < ranks; ++rk) {
        acquire(rk, *lane_state.streams[static_cast<std::size_t>(rk)],
                lane + num_lanes * static_cast<int>(rk));
      }
    }
    try {
      // One apply for the whole range: at one rank the single-rank
      // grouped batch; sharded, broadcast and gather fused across all
      // n right-hand sides (CommMode::kBatched).
      lane_state.dist.apply_batch(groups, direction, config, inputs, outputs,
                                  plans, core::CommMode::kBatched,
                                  options_.verify_mode);
      if (ranks > 1) {
        metrics_.record_comm(lane, lane_state.dist.last_timings().comm);
      }
      if (was_degraded) {
        // The group answered a full sharded dispatch again: healed.
        mark_degraded(false);
        if (trace_on) {
          util::trace::instant(
              "rank_healed", "serve",
              {{"tenant", static_cast<std::int64_t>(batch_tenant)}});
        }
      }
    } catch (const comm::RankFailure& rf) {
      // A rank is down for this dispatch (only a sharded placement can
      // lose one): mark the tenant degraded and fall back to the
      // single-rank path — every slice runs serially on this lane's
      // first stream, zero collectives, outputs bit-identical to
      // the sharded apply (slice supports are disjoint).  Slower, but
      // the batch completes.
      metrics_.record_rank_failure();
      mark_degraded(true);
      if (trace_on) {
        util::trace::instant(
            "rank_failure", "serve",
            {{"tenant", static_cast<std::int64_t>(batch_tenant)},
             {"rank", static_cast<std::int64_t>(rf.rank())},
             {"batch_seq", batch_seq}});
      }
      // Fallback plans bind every slice to the lane's first stream,
      // keyed at this lane's own index (rank 0's regular entry is
      // interchangeable; PlanKey carries the slice offsets, so each
      // slice gets its own cached plan).
      owned.clear();
      plans.clear();
      for (index_t rk = 0; rk < ranks; ++rk) {
        acquire(rk, stream, lane);
      }
      lane_state.dist.apply_batch_serial(groups, direction, config, inputs,
                                         outputs, plans, options_.verify_mode);
      metrics_.record_degraded_batch();
      if (trace_on) {
        util::trace::instant(
            "degraded_dispatch", "serve",
            {{"tenant", static_cast<std::int64_t>(batch_tenant)},
             {"batch_seq", batch_seq}});
      }
    }
    const auto& rhs_shares = lane_state.dist.last_batch_timings();
    for (std::size_t i = 0; i < n; ++i) shares[lo + i] = rhs_shares[i];
  };

  // Doubling backoff before re-dispatch k of [lo, hi), clamped to the
  // tightest remaining deadline slack in the range — a retry never
  // sleeps past a deadline it could still make (and never sleeps at
  // all once every deadline in the range has passed).
  const auto backoff = [&](int attempt, std::size_t lo, std::size_t hi) {
    double delay = options_.retry_backoff_seconds;
    for (int i = 1; i < attempt; ++i) delay *= 2.0;
    const auto now = clock::now();
    for (std::size_t r = lo; r < hi; ++r) {
      if (batch.requests[r].has_deadline()) {
        const double slack =
            std::max(0.0, seconds_between(now, batch.requests[r].deadline));
        delay = std::min(delay, slack);
      }
    }
    if (delay > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(delay));
    }
  };

  // Dispatch requests [lo, hi) under the retry budget: retryable
  // failures (transient stream faults, plan-creation OOM) re-dispatch
  // up to max_retries times with backoff.  Returns kOk or the final
  // failure's class; `retries` accumulates re-dispatches consumed.
  const auto run_range = [&](std::size_t lo, std::size_t hi, int& retries) {
    bool sdc_seen = false;
    for (int attempt = 0;; ++attempt) {
      try {
        run_attempt(lo, hi);
        if (sdc_seen) {
          // The re-dispatch produced a verified-clean result: the
          // corruption was transient and the recompute is
          // bit-identical to a never-corrupted run.
          metrics_.record_sdc_recompute();
          if (trace_on) {
            util::trace::instant("sdc_recompute", "serve",
                                 {{"lane", lane},
                                  {"batch_seq", batch_seq},
                                  {"attempt", attempt}});
          }
        }
        return ErrorCode::kOk;
      } catch (...) {
        const ErrorCode code = classify_failure(std::current_exception());
        if (code == ErrorCode::kSilentCorruption) {
          sdc_seen = true;
          metrics_.record_sdc_detection();
          if (trace_on) {
            util::trace::instant("sdc_detected", "serve",
                                 {{"lane", lane},
                                  {"batch_seq", batch_seq},
                                  {"attempt", attempt}});
          }
        }
        if (trace_on) {
          util::trace::instant("fault", "serve",
                               {{"code", error_code_name(code)},
                                {"lane", lane},
                                {"batch_seq", batch_seq},
                                {"attempt", attempt}});
        }
        if (!retryable(code) || attempt >= options_.max_retries) return code;
        ++retries;
        metrics_.record_retry();
        if (trace_on) {
          util::trace::instant("retry", "serve",
                               {{"attempt", attempt + 1},
                                {"lane", lane},
                                {"batch_seq", batch_seq}});
        }
        backoff(attempt + 1, lo, hi);
      }
    }
  };

  // The whole coalesced batch executes as ONE fused apply_batch: each
  // rank plan's phase-2/4 FFTs run b * n_s sequences in one launch
  // and phase 3 is a single grouped multi-RHS SBGEMV carrying one
  // operator-spectrum pointer per tenant group, so matrix traffic is
  // paid once per (frequency, tenant) instead of once per request.
  // The batch's simulated time and PhaseTimings are attributed by
  // each request's share of the modelled phase work
  // (DistributedMatvecPlan::last_batch_timings()).
  int batch_retries = 0;
  const ErrorCode batch_code = run_range(0, b, batch_retries);
  std::vector<ErrorCode> codes(b, batch_code);
  std::vector<int> req_retries(b, batch_retries);
  if (batch_code != ErrorCode::kOk && b > 1) {
    // Batch-failure isolation: the fused dispatch kept failing, so
    // quarantine — each request re-dispatches SOLO with its own fresh
    // retry budget.  A poisoned request then fails alone instead of
    // failing all b futures; its companions complete bit-identically
    // (outputs never depend on batch composition).
    if (trace_on) {
      util::trace::instant("quarantine", "serve",
                           {{"batch_seq", batch_seq}, {"size", batch_size}});
    }
    for (std::size_t r = 0; r < b; ++r) {
      metrics_.record_retry();
      ++req_retries[r];
      int solo_retries = 0;
      codes[r] = run_range(r, r + 1, solo_retries);
      req_retries[r] += solo_retries;
    }
  }

  std::int64_t done = 0;
  for (std::size_t r = 0; r < b; ++r) {
    auto& req = batch.requests[r];
    const double queue_s = seconds_between(req.enqueued, exec_start);
    const bool failed = codes[r] != ErrorCode::kOk;
    if (codes[r] == ErrorCode::kSilentCorruption) {
      // Every retry and the solo quarantine re-dispatch still tripped
      // verification: under the transient-corruption model this marks
      // a miscalibrated tolerance, counted as a false positive.
      metrics_.record_sdc_false_positive();
    }
    // Fulfilled-late test against the wall clock at fulfillment; a
    // failed request with a deadline also counts as a miss (it was
    // certainly not served on time).
    const auto fulfilled = clock::now();
    const double exec_s = seconds_between(exec_start, fulfilled);
    const bool missed =
        req.has_deadline() && (failed || fulfilled > req.deadline);
    MatvecResult result;
    if (failed) {
      // Failures are VALUES, never future exceptions: the code says
      // why, and the batch/latency fields below still describe the
      // attempt (see the AsyncScheduler error contract).
      result.error = codes[r];
    } else {
      result = std::move(results[r]);
      result.timings = shares[r];
      // span(): the request's share of the batch's end-to-end
      // makespan, so per-request sim times still sum to the lane
      // clock advance when a sharded batch's ranks overlapped
      // (busy-time per phase stays available in `timings`).
      result.sim_seconds = shares[r].span();
    }
    result.queue_seconds = queue_s;
    result.exec_seconds = exec_s;
    result.batch_size = batch_size;
    result.lane = lane;
    result.batch_seq = batch_seq;
    result.session = req.session;
    result.deadline_missed = missed;
    result.retries = req_retries[r];
    req.promise.set_value(std::move(result));
    metrics_.record_request(queue_s, exec_s, codes[r], req.session,
                            req.has_deadline(), missed, req_retries[r]);
    ++done;
  }
  metrics_.record_batch(batch_size, stream.now() - sim_start);
  // Lane utilisation, sampled here because only the owning lane thread
  // may read its streams' (plain double) clocks: busy is the summed
  // charged work of the lane's rank streams, wall their makespan.
  double lane_busy = 0.0;
  double lane_wall = 0.0;
  for (const auto& rank_stream : lane_state.streams) {
    lane_busy += rank_stream->busy();
    lane_wall = std::max(lane_wall, rank_stream->now());
  }
  metrics_.record_lane(lane, done, lane_busy, lane_wall);

  if (trace_on) {
    const auto& d = dims.global;
    util::trace::complete(
        "batch", "serve", span_t0, util::trace::now_us() - span_t0,
        {{"batch_seq", batch_seq},
         {"size", batch_size},
         {"groups", static_cast<std::int64_t>(group_count)},
         {"lane", lane},
         {"shape", std::to_string(d.n_m) + "x" + std::to_string(d.n_d) + "x" +
                       std::to_string(d.n_t)},
         {"dir", direction_name(batch.key.direction)},
         {"precision", batch.key.precision},
         {"failed", static_cast<std::int64_t>(std::count_if(
                        codes.begin(), codes.end(),
                        [](ErrorCode c) { return c != ErrorCode::kOk; }))},
         {"retries", batch_retries}});
  }

  const auto cache_stats = cache_.stats();
  metrics_.record_cache(cache_stats.hits, cache_stats.misses, cache_stats.evictions);

  {
    std::lock_guard lock(state_mutex_);
    in_flight_ -= done;
    for (const auto& req : batch.requests) {
      if (req.session != 0) {
        if (const auto it = sessions_.find(req.session); it != sessions_.end()) {
          --it->second.outstanding;
        }
      }
    }
  }
  // Unconditional: close_session waits on per-session outstanding
  // counts, not just the global in-flight count.
  cv_drained_.notify_all();
}

void AsyncScheduler::drain() {
  std::unique_lock lock(state_mutex_);
  cv_drained_.wait(lock, [&] { return in_flight_ == 0; });
}

void AsyncScheduler::shutdown() {
  {
    std::lock_guard lock(state_mutex_);
    accepting_ = false;
  }
  // Workers drain everything already queued before pop_batch returns
  // nullopt, so accepted futures are all fulfilled.
  queue_.close();
  bool join = false;
  {
    std::lock_guard lock(state_mutex_);
    if (!workers_stopped_) {
      workers_stopped_ = true;
      join = true;
    }
  }
  if (join) {
    for (auto& lane : lanes_) {
      if (lane.worker.joinable()) lane.worker.join();
    }
  }
  drain();
}

MetricsSnapshot AsyncScheduler::metrics() const {
  // Refresh cache counters even before the first batch executes.
  const auto cache_stats = cache_.stats();
  metrics_.record_cache(cache_stats.hits, cache_stats.misses, cache_stats.evictions);
  MetricsSnapshot snap = metrics_.snapshot();
  // Injected-vs-observed audit: surface the device FaultPlan's own
  // counters next to the serve-level outcomes (resilience_table pairs
  // them up).
  if (const device::FaultPlan* plan = dev_.fault_plan()) {
    snap.have_fault_stats = true;
    snap.fault_stats = plan->stats();
  }
  return snap;
}

double AsyncScheduler::max_lane_sim_seconds() const {
  double m = 0.0;
  for (const auto& lane : lanes_) {
    for (const auto& rank_stream : lane.streams) {
      m = std::max(m, rank_stream->now());
    }
  }
  return m;
}

}  // namespace fftmv::serve
