// LRU cache of FftMatvecPlan instances for the serving layer.
//
// Plan setup (FFT sub-plan twiddle tables, workspace allocation) is a
// per-shape cost the one-shot executables re-pay on every run; a
// long-lived service amortises it by keying plans on (LocalDims,
// stream lane) and reusing them across requests (cf. the
// Hessian-action workloads of Venkat et al., which apply the same
// operator thousands of times).  A cache serves one device and builds
// every plan with default MatvecOptions, so neither is part of the
// key.  FftMatvecPlan is precision-agnostic — the config is passed
// per apply and the plan lazily keeps dual-precision buffers — so the
// precision config is deliberately NOT part of the key either: every
// config a tenant mixes shares one warmed plan, shrinking the
// resident working set ~3x for the typical 3-config mix.  A plan is
// bound to the stream it was created on (as with cuFFT/hipFFT plans),
// so the lane index is part of the key and each scheduler lane only
// ever touches its own entries — a cached plan is never driven from
// two threads at once.
//
// Pinning: a streaming session keeps its tenant's plan hot for the
// session lifetime — pin() marks a key's SHAPE (its dims; the lane
// component is ignored, since a session's requests may run on any
// lane) and eviction skips every pinned entry, so cache pressure from
// other tenants can never cold-start an active session.  Pins are
// counted (two sessions on one shape need two unpins) and only shield
// entries from eviction; they do not build plans — each lane still
// warms its own entry on first dispatch and keeps it from then on.
// AsyncScheduler::open_stream validates that capacity covers the
// pinned working set, so a fully-pinned cache cannot sneak past its
// budget.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/matvec_plan.hpp"
#include "core/problem.hpp"
#include "device/device.hpp"
#include "device/stream.hpp"

namespace fftmv::serve {

struct PlanKey {
  core::LocalDims dims;
  /// Scheduler stream lane the plan is bound to.
  int lane = 0;

  bool operator==(const PlanKey&) const = default;
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& k) const noexcept;
};

struct PlanCacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t evictions = 0;
};

class PlanCache {
 public:
  /// `capacity` is the maximum number of resident plans (>= 1).
  PlanCache(device::Device& dev, std::size_t capacity);

  /// Return the cached plan for `key`, creating it on `stream` (with
  /// default MatvecOptions) on a miss and evicting the least-recently-used entry beyond capacity.
  /// The returned shared_ptr keeps an evicted plan alive until its
  /// current user releases it.  Thread-safe.
  std::shared_ptr<core::FftMatvecPlan> acquire(const PlanKey& key,
                                               device::Stream& stream);

  /// Look up `key` without creating, counting a hit/miss, or touching
  /// LRU order; nullptr when absent.  For tests and introspection
  /// (e.g. asserting a coalesced batch cost one plan execution).
  std::shared_ptr<core::FftMatvecPlan> peek(const PlanKey& key) const;

  /// Pin `key`'s shape: every lane's entry for key.dims — key.lane
  /// is ignored — is shielded from LRU eviction until a matching
  /// unpin().  Counted: pin twice, unpin twice.
  void pin(const PlanKey& key);
  void unpin(const PlanKey& key);
  /// True iff `key`'s shape currently holds at least one pin.
  bool pinned(const PlanKey& key) const;
  /// Number of DISTINCT pinned shapes (each occupies one entry per
  /// lane that has warmed it — the quantity open_stream sizes the
  /// capacity check with).
  std::size_t pinned_shapes() const;

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  PlanCacheStats stats() const;

 private:
  using Entry = std::pair<PlanKey, std::shared_ptr<core::FftMatvecPlan>>;

  /// Lane-agnostic pin scope of `key` (lane forced to the sentinel).
  static PlanKey pin_scope(PlanKey key) {
    key.lane = -1;
    return key;
  }
  bool pinned_locked(const PlanKey& key) const {
    return pins_.count(pin_scope(key)) > 0;
  }

  device::Device* dev_;
  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<PlanKey, std::list<Entry>::iterator, PlanKeyHash> index_;
  /// Pin counts keyed by lane-agnostic scope (lane == -1 sentinel).
  std::unordered_map<PlanKey, int, PlanKeyHash> pins_;
  PlanCacheStats stats_;
};

}  // namespace fftmv::serve
