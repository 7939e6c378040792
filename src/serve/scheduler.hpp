// Async multi-stream scheduler: the long-lived matvec service.
//
// Tenants register a block-triangular Toeplitz operator once
// (setup — the batched FFT of the first block column — is paid at
// registration, never on the request path).  Clients then submit
// forward/adjoint applies — one-shot through submit(Request), or as
// an ordered stream through open_stream()'s StreamSession handle —
// and receive std::futures.  A RequestQueue coalesces same-(shape,
// direction, precision) requests — across tenants — into batches, and
// a pool of worker lanes — each owning one device::Stream per
// placement rank — executes each batch as ONE
// core::DistributedMatvecPlan::apply_batch over plans from the shared
// LRU PlanCache: the popped batch is sorted by tenant into operator
// groups and the batch's b right-hand sides ride a single widened FFT
// + grouped multi-RHS SBGEMV pipeline, so batching buys real
// per-request speedup even under multi-tenant skew where no single
// tenant has companions in flight.
//
// Every tenant is a placement (core::ShardedOperator).  add_tenant's
// rank_group = 1, the default, places it on one rank, where the
// DistributedMatvecPlan apply is exactly the single-rank grouped
// apply_batch with no communication.  A wider group SHARDS the
// operator's output dimension across that many simulated ranks: each
// of the tenant's batches then runs on the owning lane's rank streams
// concurrently, with the input broadcast and output gather fused across
// the whole RHS batch — collective alpha costs are paid once per batch,
// not once per request (bench/serve_scaling gates the win) — and
// outputs bit-identical to the single-rank path.  Rank plans ride
// the same PlanCache under per-(lane, rank) keys; sharded batches
// stay tenant-homogeneous regardless of cross_tenant_batching, so
// placement is a property of the batch.
//
// Scheduling is deadline-aware (ServeOptions::deadline_aware, on by
// default): within a coalescing key requests dispatch earliest-
// deadline-first, across keys dispatch follows weighted fair queueing
// driven by StreamQoS::weight, and an imminent deadline cancels the
// remaining linger window.  Deadline outcomes (ServeMetrics::
// deadline_missed, per-session percentiles) make the SLO observable;
// bench/serve_slo gates the attainment win over the deadline-blind
// round-robin baseline.  Shutdown is graceful: accepted requests
// drain before the workers exit, and every future is always fulfilled
// with a MatvecResult value.
//
// ERROR CONTRACT — what throws, what returns a failed future, what
// retries silently:
//
//   THROWS std::invalid_argument, synchronously, for caller bugs
//   only: unknown tenant, wrong input extent, invalid QoS (negative
//   or non-finite deadline, non-positive weight), invalid
//   ServeOptions at construction, and open_stream pin-capacity
//   overflow.
//   StreamSession::submit/close on a CLOSED handle — or a handle that
//   outlived its scheduler — still throws std::runtime_error: handle
//   misuse is a caller bug, not a service outcome.
//
//   RETURNS A FAILED FUTURE (a MatvecResult value with `error` set;
//   NEVER a future exception) for every service-side outcome:
//   kShutdown for a submit after shutdown() — both submit overloads
//   and StreamSession::submit on a live handle — kQueueFull/kShed
//   from bounded admission (max_queue_depth + overload_policy), and
//   kTransientDevice / kOutOfMemory / kRankFailure / kSilentCorruption
//   / kInternal when a dispatch failure survives the retry budget.
//
//   RETRIES SILENTLY (observable only through MatvecResult::retries,
//   ServeMetrics retry counters and trace instants): transient
//   stream/kernel faults, plan-creation DeviceOutOfMemory and
//   ABFT-detected silent corruption (ServeOptions::verify_mode —
//   detections re-dispatch exactly like transient faults, and a clean
//   recompute is bit-identical to a never-corrupted run) re-dispatch
//   up to ServeOptions::max_retries times with doubling backoff
//   clamped to the batch's tightest deadline slack; a batch that
//   keeps failing is broken up and each request re-dispatched solo,
//   so one poisoned request cannot fail its batch companions; and a
//   sharded tenant whose rank group loses a rank falls back to a
//   bit-identical single-rank dispatch (slower: no rank parallelism),
//   the tenant marked degraded until a later sharded dispatch
//   succeeds.
#pragma once

#include <future>
#include <map>
#include <memory>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/block_toeplitz.hpp"
#include "core/distributed_plan.hpp"
#include "core/matvec_plan.hpp"
#include "core/problem.hpp"
#include "device/device.hpp"
#include "device/device_spec.hpp"
#include "device/stream.hpp"
#include "precision/precision.hpp"
#include "serve/metrics.hpp"
#include "serve/plan_cache.hpp"
#include "serve/request_queue.hpp"
#include "serve/session.hpp"

namespace fftmv::serve {

/// Service configuration.  AsyncScheduler validates every field at
/// construction and throws std::invalid_argument with the offending
/// field's name, so a misconfigured service fails at startup rather
/// than misbehaving under load.
struct ServeOptions {
  /// Worker lanes; each owns one device::Stream.
  int num_streams = 2;
  /// Maximum requests coalesced into one batch.  0 (the default)
  /// resolves to kDefaultMaxBatch.  A batch issues the same launches
  /// whatever its size, so the modelled per-RHS curve keeps falling
  /// well past 16 and has no knee to stop at: the cap is what bounds
  /// each lane's batch workspaces and warm-up rounds.  The resolved
  /// value is visible through options().max_batch.
  int max_batch = 0;
  /// Maximum time a request may wait for batch companions.
  double linger_seconds = 500e-6;
  /// Resident FftMatvecPlan budget across all lanes.  Size it to
  /// hold the working set: distinct plan dims x num_streams (plans
  /// are precision-agnostic, so a tenant's whole config mix shares
  /// one entry per lane); an undersized cache thrashes and re-pays
  /// plan setup on the request path.
  std::size_t plan_cache_capacity = 32;
  /// Coalesce same-shape requests across tenants into grouped
  /// batches dispatched as one grouped apply_batch (the production
  /// default).  false restores the PR 3 same-tenant-only coalescing;
  /// kept for the serve_throughput ablation and A/B debugging.
  bool cross_tenant_batching = true;
  /// EDF-within-key + weighted-fair-queueing-across-keys dispatch
  /// with deadline-cancels-linger (the production default).  false
  /// restores the deadline-blind FIFO + round-robin of PR 2-5 —
  /// deadlines and weights are then carried but ignored by the
  /// batcher (misses are still counted) — kept as the bench/serve_slo
  /// baseline ablation.
  bool deadline_aware = true;
  /// Bound on total pending requests (0 = unbounded, the default).
  /// At the bound, `overload_policy` decides what gives way; refused
  /// and displaced requests resolve their futures with kQueueFull /
  /// kShed instead of queueing without limit.
  int max_queue_depth = 0;
  /// What happens to new work at max_queue_depth (ignored while the
  /// depth is unbounded).  The default sheds the newest pending
  /// best-effort request to admit deadline-bearing arrivals.
  OverloadPolicy overload_policy = OverloadPolicy::kShedBestEffort;
  /// Re-dispatch budget for retryable dispatch failures (transient
  /// stream/kernel faults, plan-creation OOM): a failed fused batch
  /// retries up to this many times before the per-request quarantine
  /// pass, and each quarantined request gets the same budget solo.
  /// 0 disables retry (first failure is final).
  int max_retries = 2;
  /// Base backoff before a re-dispatch; attempt k sleeps
  /// retry_backoff_seconds * 2^(k-1), clamped so the wait never
  /// exceeds the tightest remaining deadline slack in the batch.
  double retry_backoff_seconds = 50e-6;
  /// ABFT verification level for every dispatched batch
  /// (core::VerifyMode): kChecksum arms the grouped-GEMV column
  /// checksums, kParanoid adds the FFT Parseval checks.  A
  /// detection re-dispatches through the retry machinery above and
  /// surfaces kSilentCorruption only when the recompute budget is
  /// exhausted.  A per-apply argument, so cached plans are shared
  /// across verify modes.
  core::VerifyMode verify_mode = core::VerifyMode::kOff;
};

/// What ServeOptions::max_batch == 0 resolves to.
inline constexpr int kDefaultMaxBatch = 16;

/// The serve-shape operator bench/batch_sweep measures its batching
/// curve on (and serve_scaling its backed sweep).
inline constexpr core::ProblemDims kBatchCurveShape{192, 12, 96};

/// The rank-group size the comm cost model's crossover picks for a
/// tenant of this shape: phantom dry runs of the rank-0 forward slice
/// over doubling group sizes (the per-rank compute) plus the cost
/// model's rank_group_collectives bill (the comm), accepting a wider
/// group only when it beats the incumbent's modelled batch time by
/// > 3% — so small shapes, whose collective alpha terms dwarf the
/// compute they shed, resolve to 1 (no sharding) while paper-scale
/// shapes resolve to multi-rank groups.  Deterministic per
/// (spec, dims, network); capped at max_rank_group and at the output
/// dimensions (a rank with an empty slice serves no purpose).
int adaptive_rank_group(const device::DeviceSpec& spec,
                        const core::ProblemDims& dims, int max_rank_group,
                        const comm::NetworkSpec& network = comm::NetworkSpec::frontier());

class AsyncScheduler {
 public:
  explicit AsyncScheduler(const device::DeviceSpec& spec, ServeOptions options = {});
  ~AsyncScheduler();

  AsyncScheduler(const AsyncScheduler&) = delete;
  AsyncScheduler& operator=(const AsyncScheduler&) = delete;

  /// Register a tenant model.  Builds its core::ShardedOperator (and
  /// warms the single-precision spectrum — plus the ABFT checksums
  /// when verify is on — so the lazily-built copies are never raced
  /// on the request path) on the setup stream.
  ///
  /// `rank_group` places the tenant's operator across that many
  /// simulated ranks: its batches then dispatch as ONE sharded apply
  /// per lane — broadcast and gather fused across the whole RHS
  /// batch — with outputs bit-identical to the single-rank apply in
  /// every precision config.  1 (the default) is the unsharded
  /// single-rank placement.  A group never spans more than one node
  /// (NetworkSpec::frontier().node_size, 8 ranks), so placements stay
  /// on the intra-node fabric.  Throws std::invalid_argument when the
  /// value is below 1, exceeds the node size or exceeds an output
  /// dimension of `dims`.
  TenantId add_tenant(const core::ProblemDims& dims,
                      std::span<const double> first_block_col,
                      int rank_group = 1);

  /// The rank-group size add_tenant placed `tenant` on (1 = unsharded).
  /// Throws std::invalid_argument for an unknown tenant.
  int tenant_rank_group(TenantId tenant) const;

  /// True while a sharded tenant is serving on the degraded
  /// single-rank fallback after a rank failure (outputs stay
  /// bit-identical; rank parallelism is lost).  Cleared by the next
  /// successful sharded dispatch.  Always false for unsharded
  /// tenants; throws std::invalid_argument for an unknown tenant.
  bool tenant_degraded(TenantId tenant) const;

  /// Enqueue one matvec described by a Request (the canonical submit
  /// form: new request-path fields — e.g. StreamQoS — land on the
  /// struct, not on a growing argument list).  `request.input` is
  /// TOSI (n_t x n_m for forward, n_t x n_d for adjoint).  Throws
  /// std::invalid_argument for an unknown tenant, wrong extent or
  /// invalid QoS; every other outcome — including a submit after
  /// shutdown (kShutdown) and bounded-admission refusal (kQueueFull)
  /// — arrives as a fulfilled future whose MatvecResult carries the
  /// ErrorCode (see the class error contract).
  std::future<MatvecResult> submit(Request request);

  /// Positional convenience form: equivalent to submit(Request{...})
  /// with default (best-effort) QoS.
  std::future<MatvecResult> submit(TenantId tenant,
                                   core::ApplyDirection direction,
                                   const precision::PrecisionConfig& config,
                                   std::vector<double> input);

  /// Open a streaming session: an ordered sequence of applies for one
  /// (tenant, direction, config) with per-request QoS applied to each
  /// submit (deadline_seconds is relative to each apply's submission).
  /// Pins the plan shapes its dispatch acquires — each rank slice of
  /// the tenant's placement, at one rank the tenant's own dims — in
  /// the PlanCache for the session lifetime so cache pressure never
  /// cold-starts an active stream.
  /// Throws std::invalid_argument for an unknown tenant, a negative
  /// or non-finite deadline, a non-positive weight, or when the pinned
  /// working set (distinct pinned shapes x num_streams lanes) would
  /// exceed plan_cache_capacity; std::runtime_error after shutdown
  /// (this call returns a handle, not a future, so there is no failed
  /// future to return — unlike submit).
  StreamSession open_stream(TenantId tenant, core::ApplyDirection direction,
                            const precision::PrecisionConfig& config,
                            StreamQoS qos = {});

  /// Block until every accepted request has completed.
  void drain();

  /// Drain, then stop the workers.  Idempotent; afterwards every
  /// submit overload (and StreamSession::submit on a live handle)
  /// returns a ready future carrying ErrorCode::kShutdown.  Called by
  /// the destructor.
  void shutdown();

  MetricsSnapshot metrics() const;
  const PlanCache& plan_cache() const { return cache_; }
  device::Device& device() { return dev_; }
  const ServeOptions& options() const { return options_; }

  /// Simulated seconds of the busiest lane stream (the service's
  /// simulated makespan, excluding tenant setup).  Stream clocks are
  /// unsynchronised plain doubles: call only when the service is
  /// quiescent (after drain() or shutdown()).
  double max_lane_sim_seconds() const;
  /// Simulated seconds spent on the setup stream by add_tenant.
  double setup_sim_seconds() const { return setup_stream_.now(); }

 private:
  friend class StreamSession;

  struct Tenant {
    /// The tenant's single-rank dims: its batch key shape and input
    /// extents.
    core::LocalDims dims;
    /// The tenant's placement; op->ranks() == 1 means unsharded.
    std::shared_ptr<core::ShardedOperator> op;
    /// Serving on the single-rank fallback after a rank failure
    /// (guarded by tenants_mutex_); cleared when a sharded dispatch
    /// next succeeds.
    bool degraded = false;
  };
  /// Book-keeping for one open StreamSession (guarded by
  /// state_mutex_).  `pin_keys` are the plan shapes open_stream pinned
  /// (one per rank slice of the tenant's placement); `outstanding`
  /// counts accepted-but-unfulfilled applies, and close_session waits
  /// for it to reach zero before unpinning those shapes.
  struct SessionState {
    TenantId tenant = 0;
    core::ApplyDirection direction = core::ApplyDirection::kForward;
    precision::PrecisionConfig config;
    StreamQoS qos;
    std::vector<PlanKey> pin_keys;
    std::int64_t outstanding = 0;
  };
  /// A worker lane.  streams[r] serves placement rank r and is the
  /// stream the rank's cached plans are bound to: stream 0 exists from
  /// construction (device-trace tid i), streams r >= 1 grow lazily to
  /// the widest rank group the lane has executed and stay untracked in
  /// the device trace (tid -1).  Heap-held, so a plan's stream keeps
  /// its address while the lane grows.  Stream ownership is per lane,
  /// so a cached plan is never driven from two threads.
  struct Lane {
    std::vector<std::unique_ptr<device::Stream>> streams;
    /// The lane's placement orchestrator (its grow-only output
    /// staging is reused across tenants and batches).
    core::DistributedMatvecPlan dist{comm::NetworkSpec::frontier()};
    std::thread worker;
  };

  void worker_loop(int lane);
  void execute_batch(int lane, Batch& batch);

  /// Common enqueue path behind both submit forms and session
  /// submits: validates (throwing std::invalid_argument for caller
  /// bugs), stamps the absolute deadline from request.qos, counts
  /// in-flight and pushes to the queue.  Shutdown and
  /// bounded-admission refusals fulfil the future with the ErrorCode
  /// instead of throwing (see the class error contract).
  std::future<MatvecResult> enqueue(Request request, SessionId session);
  /// Fulfil a request that never dispatched (shutdown race, admission
  /// refusal, shed victim) with a failed MatvecResult, closing its
  /// trace span and metrics accounting.  `counted` says whether the
  /// request already holds an in_flight_ / session-outstanding count
  /// to release.
  void retire_undispatched(PendingRequest req, ErrorCode code, bool counted);
  /// StreamSession::submit body: resolves the session's (tenant,
  /// direction, config, qos), counts the apply outstanding and
  /// delegates to enqueue().
  std::future<MatvecResult> submit_stream(SessionId session,
                                          std::vector<double> input);
  /// StreamSession::close body: drains the session's outstanding
  /// applies, unpins its plan shapes and retires the id.
  void close_session(SessionId session);

  ServeOptions options_;
  /// Shared with every StreamSession handle; the destructor clears it
  /// so a handle outliving the scheduler throws instead of touching
  /// freed memory (see session.hpp's lifetime contract).
  std::shared_ptr<detail::SchedulerLiveness> liveness_ =
      std::make_shared<detail::SchedulerLiveness>();
  device::Device dev_;
  std::mutex setup_mutex_;  ///< serialises registrations on the setup stream
  device::Stream setup_stream_;
  PlanCache cache_;
  RequestQueue queue_;
  mutable ServeMetrics metrics_;  ///< internally synchronised sink

  mutable std::mutex tenants_mutex_;
  std::unordered_map<TenantId, Tenant> tenants_;
  TenantId next_tenant_ = 1;

  mutable std::mutex state_mutex_;
  std::condition_variable cv_drained_;
  std::int64_t in_flight_ = 0;  ///< accepted but not yet fulfilled
  bool accepting_ = true;
  bool workers_stopped_ = false;
  /// Open streaming sessions (guarded by state_mutex_; cv_drained_
  /// doubles as the per-session drain signal — execute_batch notifies
  /// after every batch).
  std::map<SessionId, SessionState> sessions_;
  SessionId next_session_ = 1;

  std::vector<Lane> lanes_;
};

}  // namespace fftmv::serve
