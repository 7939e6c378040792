// Request coalescing for the matvec service: a multi-producer,
// multi-consumer queue that groups same-key requests into batches.
//
// Shape-keyed coalescing rules: requests batch together iff their
// plan-relevant shape (LocalDims), direction and precision config all
// match — tenant identity deliberately does NOT split keys.  Nothing
// in pipeline phases 1/2/4/5 is tenant-specific, and the phase-3
// grouped SBGEMV (blas::sbgemv_grouped) takes a per-group operator
// pointer, so one fused apply_batch can serve several tenants'
// same-shape requests; the scheduler sorts a popped batch by tenant
// into operator groups before dispatch.  Under realistic multi-tenant
// skew (many tenants, few in-flight requests each) this is the
// difference between effective batch sizes of ~1 and ~max_batch.  The
// `tenant` field exists only for the same-tenant-only ablation
// (ServeOptions::cross_tenant_batching == false, the PR 3 behaviour);
// the production path always leaves it 0.
//
// A batch is released when it reaches `max_batch` requests or when
// its oldest request has lingered `linger_seconds` (so a lone request
// is never parked indefinitely waiting for company); a request whose
// deadline lands inside the linger window cancels the remaining
// linger — batching never spends latency a deadline cannot afford.
//
// Scheduling (deadline_aware == true, the production mode):
//   - WITHIN a key, requests are kept in earliest-deadline-first
//     (EDF) order, ties broken by arrival sequence so best-effort
//     requests (no deadline) and equal-deadline streams stay FIFO.  A
//     late-deadline request can therefore never starve an earlier
//     deadline in its key: the earlier deadline is always taken
//     first.
//   - ACROSS keys, dispatch follows weighted fair queueing
//     (start-time fair queueing): each key carries a virtual start
//     tag, a dispatched batch of n requests advances the key's tag by
//     n / weight (the max StreamQoS::weight among the taken
//     requests), and pop_batch serves the ready key with the
//     smallest tag.  With equal weights this degenerates to the PR 2
//     round-robin; with skewed weights the served-request ratio
//     between backlogged keys tracks the weight ratio.
// deadline_aware == false restores the blind PR 2-5 behaviour (FIFO
// within a key, round-robin across keys) and exists for the
// bench/serve_slo baseline ablation.
//
// A popped batch takes up to max_batch requests in service order,
// from however many tenants: each distinct tenant becomes one operator
// group of the grouped SBGEMV, and the batch_formed trace instant
// reports their count as `groups`.
#pragma once

#include <chrono>
#include <compare>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/matvec_plan.hpp"
#include "precision/precision.hpp"
#include "serve/error_code.hpp"
#include "util/types.hpp"

namespace fftmv::serve {

using TenantId = std::uint64_t;
/// Streaming-session handle id; 0 marks a one-shot (sessionless)
/// request throughout the serving layer.
using SessionId = std::uint64_t;

/// Short display name for an apply direction ("F" / "F*").  Free
/// function over the core enum — the serving layer has no direction
/// enum of its own.
inline const char* direction_name(core::ApplyDirection d) {
  return d == core::ApplyDirection::kForward ? "F" : "F*";
}

/// Per-request / per-session quality of service.
struct StreamQoS {
  /// Relative completion deadline: a request must be fulfilled within
  /// this many wall seconds of its submission or it counts as a
  /// deadline miss (ServeMetrics::deadline_missed).  The batcher
  /// serves earlier deadlines first within a coalescing key and cuts
  /// linger short for urgent requests.  0 = best effort (no deadline;
  /// best-effort requests sort behind every deadlined one in a key).
  /// Must be finite; one past the steady clock's range (~292 years)
  /// saturates just short of the clock's end.
  double deadline_seconds = 0.0;
  /// Weighted-fair-queueing weight (> 0): while two keys are both
  /// backlogged, their served-request ratio tracks their weight
  /// ratio.  1 is the neutral default.
  double weight = 1.0;
};

/// One matvec request, the struct form of AsyncScheduler::submit.
/// New request-path fields land here instead of growing a positional
/// argument list; the positional submit overload is a thin wrapper
/// that fills in default QoS.
struct Request {
  TenantId tenant = 0;
  core::ApplyDirection direction = core::ApplyDirection::kForward;
  precision::PrecisionConfig config;
  /// TOSI input (n_t x n_m for forward, n_t x n_d for adjoint).
  std::vector<double> input;
  StreamQoS qos;
};

/// Completed request payload delivered through the future.
struct MatvecResult {
  std::vector<double> output;
  double queue_seconds = 0.0;  ///< submit -> batch execution start (wall)
  double exec_seconds = 0.0;   ///< execution start -> completion (wall)
  /// This request's share of the batch's end-to-end simulated
  /// duration (makespan): shares sum to the lane's clock advance even
  /// when a sharded batch's ranks ran concurrently.  Per-phase busy
  /// time lives in `timings`.
  double sim_seconds = 0.0;
  /// This request's share of the batch's per-phase simulated times: a
  /// coalesced batch runs as ONE fused apply_batch, and the batch
  /// totals are attributed by each request's share of the modelled
  /// phase work (FftMatvecPlan::last_batch_timings) — even for the
  /// tenant-agnostic phases, weighted by operator-group size for the
  /// grouped SBGEMV.
  core::PhaseTimings timings;
  int batch_size = 0;          ///< size of the batch this request rode in
  int lane = -1;               ///< stream lane that executed it
  /// Global dispatch sequence number of the batch this request rode
  /// in (0-based; stamped by RequestQueue::pop_batch under the queue
  /// mutex, so it is increasing in queue-pop order regardless of how
  /// the lanes interleave afterwards): lets a client observe dispatch
  /// ordering — e.g. that a session's applies left the queue in
  /// submit order.
  std::int64_t batch_seq = -1;
  /// Owning streaming session, 0 for one-shot requests.
  SessionId session = 0;
  /// True iff the request carried a deadline and was fulfilled after
  /// it (also counted in ServeMetrics::deadline_missed).
  bool deadline_missed = false;
  /// Outcome code: kOk on success, otherwise why the request failed.
  /// Failures always arrive as a value with this field set — never as
  /// a future exception (see AsyncScheduler's error contract).
  ErrorCode error = ErrorCode::kOk;
  /// Re-dispatches this request's work consumed beyond the first
  /// attempt (batch-level retries plus any per-request quarantine
  /// re-dispatch).  0 on the clean path.
  int retries = 0;

  bool ok() const { return error == ErrorCode::kOk; }
};

/// Coalescing key: requests batch together iff shape (LocalDims),
/// direction and precision config match (see the header comment).
/// `tenant` stays 0 except in the same-tenant-only ablation mode.
/// The defaulted ordering (for the std::map of per-key queues) stays
/// in sync with equality by construction, however LocalDims evolves.
struct BatchKey {
  core::LocalDims dims;
  core::ApplyDirection direction = core::ApplyDirection::kForward;
  std::string precision;  ///< PrecisionConfig::to_string()
  TenantId tenant = 0;    ///< 0 unless cross-tenant batching is disabled

  auto operator<=>(const BatchKey&) const = default;
};

struct PendingRequest {
  TenantId tenant = 0;  ///< submitting tenant (selects the operator)
  SessionId session = 0;
  std::vector<double> input;
  std::promise<MatvecResult> promise;
  std::chrono::steady_clock::time_point enqueued;
  /// Absolute completion deadline; time_point::max() = best effort.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// WFQ weight carried from StreamQoS (1 for plain submits).
  double weight = 1.0;
  /// Queue-assigned arrival sequence: the EDF tie-break, so equal
  /// deadlines (in particular one session's stream of applies, whose
  /// absolute deadlines are non-decreasing) keep FIFO order.
  std::uint64_t seq = 0;
  /// util::trace async-span id pairing the submit-side queue_wait
  /// begin with its end at dispatch; 0 = tracing was off at submit.
  std::uint64_t trace_id = 0;

  bool has_deadline() const {
    return deadline != std::chrono::steady_clock::time_point::max();
  }
};

struct Batch {
  BatchKey key;
  std::vector<PendingRequest> requests;
  /// Pop-order sequence number -> MatvecResult::batch_seq.  Assigned
  /// while the queue mutex is held, so two lanes can never stamp
  /// consecutive pops out of order.
  std::int64_t seq = -1;
};

/// What happens to new work when the queue sits at max_queue_depth.
enum class OverloadPolicy : unsigned char {
  /// Refuse the incoming request (ErrorCode::kQueueFull) regardless
  /// of its class.
  kRejectNew,
  /// Admit deadline-bearing requests by displacing the NEWEST pending
  /// best-effort request (ErrorCode::kShed); best-effort arrivals are
  /// refused as in kRejectNew.  Under overload this keeps the
  /// tight-deadline classes admitted while best-effort load absorbs
  /// the loss.
  kShedBestEffort,
};

class RequestQueue {
 public:
  /// `deadline_aware` selects EDF-within-key + WFQ-across-keys (true,
  /// production) vs FIFO + round-robin (false, the deadline-blind
  /// baseline).  `max_queue_depth` bounds total pending requests (0 =
  /// unbounded); `policy` picks what gives way at the bound.
  RequestQueue(int max_batch, double linger_seconds, bool deadline_aware = true,
               int max_queue_depth = 0,
               OverloadPolicy policy = OverloadPolicy::kShedBestEffort);

  /// Outcome of a push attempt.  When the request was not accepted it
  /// comes back in `returned` (the queue never owns a promise it will
  /// not fulfil); a displaced victim under kShedBestEffort comes back
  /// in `shed`.  The caller fails the returned promises — outside the
  /// queue lock.
  struct PushOutcome {
    enum class Status : unsigned char { kAccepted, kClosed, kFull };
    Status status = Status::kAccepted;
    std::optional<PendingRequest> returned;
    std::optional<PendingRequest> shed;

    bool accepted() const { return status == Status::kAccepted; }
  };

  /// Enqueue one request (any thread).  Status kClosed after close(),
  /// kFull when bounded admission refused it; see PushOutcome.
  PushOutcome push(const BatchKey& key, PendingRequest request);

  /// Block until a batch is ready (or the queue is closed and empty,
  /// returning nullopt).  Multiple consumers may pop concurrently;
  /// each call serves the scheduling-order next key (WFQ or
  /// round-robin, see the header comment).
  std::optional<Batch> pop_batch();

  /// Stop accepting pushes and wake consumers.  Already-queued
  /// requests still drain through pop_batch (graceful shutdown).
  void close();

  std::size_t pending() const;
  int max_batch() const { return max_batch_; }
  double linger_seconds() const { return linger_seconds_; }
  bool deadline_aware() const { return deadline_aware_; }
  int max_queue_depth() const { return max_queue_depth_; }
  OverloadPolicy overload_policy() const { return policy_; }

 private:
  /// Per-key queue + weighted-fair-queueing state.
  struct KeyQueue {
    /// EDF order (deadline, seq) in deadline-aware mode, FIFO in the
    /// blind mode; the take loop always pops the front.
    std::deque<PendingRequest> q;
    /// SFQ virtual start tag: dispatch candidates are served in
    /// increasing tag order, and a dispatch advances the tag by
    /// requests_taken / weight.
    double vstart = 0.0;
    /// Activation sequence, the tag tie-break (FIFO among equals —
    /// exactly round-robin when all weights are 1).
    std::uint64_t activation = 0;
  };

  /// The wall time at which `kq` becomes dispatchable: the oldest
  /// request's linger expiry, cut short by the key's earliest
  /// deadline.  Assumes the queue mutex is held.
  std::chrono::steady_clock::time_point release_time(const KeyQueue& kq) const;

  /// Remove the newest pending best-effort request (largest arrival
  /// seq with no deadline) to make room, maintaining the key
  /// activation bookkeeping.  Assumes the queue mutex is held; nullopt
  /// when every pending request carries a deadline.
  std::optional<PendingRequest> shed_newest_best_effort();

  int max_batch_;
  double linger_seconds_;
  bool deadline_aware_;
  int max_queue_depth_;
  OverloadPolicy policy_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::map<BatchKey, KeyQueue> queues_;
  /// Keys with pending requests in arrival order; the blind mode's
  /// round-robin rotation (front is next).
  std::list<BatchKey> rotation_;
  /// SFQ finish tags of deactivated keys: a key that empties and
  /// refills resumes at max(global virtual time, its old finish), so
  /// draining and immediately re-pushing cannot out-run fairness.
  /// Entries at or behind the global virtual time are pruned on
  /// reactivation, and pop_batch sweeps the rest opportunistically
  /// whenever the map outgrows the live key space — so keys that
  /// empty and never return (per-tenant keys, shape/precision churn)
  /// cannot grow it without bound.
  std::map<BatchKey, double> vfinish_;
  double vtime_ = 0.0;  ///< global virtual time (tag of the last dispatch)
  std::int64_t next_batch_seq_ = 0;  ///< pop-order stamp -> Batch::seq
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_activation_ = 0;
  std::size_t total_pending_ = 0;
  bool closed_ = false;
};

}  // namespace fftmv::serve
