// StreamSession: the streaming client handle of the matvec service.
//
// AsyncScheduler::open_stream pins the tenant's plan shapes (one per
// rank slice of a sharded tenant) in the PlanCache (so cache pressure
// from other tenants can never cold-start the stream) and returns a move-only RAII handle.  Each
// submit() enqueues one apply carrying the session's direction,
// precision config and StreamQoS: requests of one session share a
// coalescing key and their absolute deadlines are non-decreasing, so
// the EDF batcher dispatches them in submit order (observable through
// MatvecResult::batch_seq).  close() — or destruction — drains the
// session's outstanding applies, unpins the plans and retires the id;
// it is idempotent, and a moved-from or default-constructed handle is
// an inert empty shell.
//
// A handle is a single-client object: calls on one StreamSession must
// be externally ordered (submit from one thread at a time).  Distinct
// sessions are fully concurrent.
//
// Lifetime: a handle SHOULD be closed (or destroyed) before its
// AsyncScheduler — destroying the scheduler first skips the handle's
// orderly drain/unpin.  It is still memory-safe: handle and scheduler
// share a liveness block (detail::SchedulerLiveness), ~AsyncScheduler
// clears it after waiting out in-flight handle calls, and a call on a
// handle that outlived its scheduler throws instead of dereferencing
// a dangling pointer.
#pragma once

#include <future>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "core/matvec_plan.hpp"
#include "precision/precision.hpp"
#include "serve/request_queue.hpp"

namespace fftmv::serve {

class AsyncScheduler;

namespace detail {

/// Liveness flag shared between an AsyncScheduler and its
/// StreamSession handles.  Handle calls hold the lock shared and
/// check `alive` before touching the scheduler; ~AsyncScheduler takes
/// it exclusively to clear the flag, which also waits out any handle
/// call already in flight.
struct SchedulerLiveness {
  std::shared_mutex mutex;
  bool alive = true;
};

}  // namespace detail

class StreamSession {
 public:
  /// Empty handle; open() is false and submit() throws.
  StreamSession() = default;
  StreamSession(StreamSession&& other) noexcept;
  StreamSession& operator=(StreamSession&& other) noexcept;
  StreamSession(const StreamSession&) = delete;
  StreamSession& operator=(const StreamSession&) = delete;
  ~StreamSession();

  /// Enqueue the session's next apply (TOSI input, same extent rules
  /// as AsyncScheduler::submit).  The session's applies are dispatched
  /// in submit order.  Throws std::runtime_error on a closed handle
  /// (or one that outlived its scheduler) — handle misuse is a caller
  /// bug; a live handle racing the scheduler's shutdown() instead
  /// returns a ready future carrying ErrorCode::kShutdown, like both
  /// AsyncScheduler::submit overloads.
  std::future<MatvecResult> submit(std::vector<double> input);

  /// Drain this session's outstanding applies, unpin its plan shapes
  /// and retire the id.  Idempotent; also run by the destructor.
  void close();

  bool open() const { return sched_ != nullptr; }
  SessionId id() const { return id_; }
  TenantId tenant() const { return tenant_; }
  core::ApplyDirection direction() const { return direction_; }
  const precision::PrecisionConfig& config() const { return config_; }
  const StreamQoS& qos() const { return qos_; }

 private:
  friend class AsyncScheduler;
  StreamSession(AsyncScheduler* sched,
                std::shared_ptr<detail::SchedulerLiveness> live, SessionId id,
                TenantId tenant, core::ApplyDirection direction,
                precision::PrecisionConfig config, StreamQoS qos)
      : sched_(sched),
        live_(std::move(live)),
        id_(id),
        tenant_(tenant),
        direction_(direction),
        config_(std::move(config)),
        qos_(qos) {}

  AsyncScheduler* sched_ = nullptr;
  /// Guards every dereference of sched_ (see the header comment).
  std::shared_ptr<detail::SchedulerLiveness> live_;
  SessionId id_ = 0;
  TenantId tenant_ = 0;
  core::ApplyDirection direction_ = core::ApplyDirection::kForward;
  precision::PrecisionConfig config_;
  StreamQoS qos_;
};

}  // namespace fftmv::serve
