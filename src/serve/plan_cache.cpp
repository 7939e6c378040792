#include "serve/plan_cache.hpp"

#include <functional>
#include <stdexcept>
#include <string>

#include "util/trace.hpp"

namespace fftmv::serve {

namespace {

void hash_combine(std::size_t& seed, std::size_t v) {
  seed ^= v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
}

/// Instant trace event for a cache transition, emitted OUTSIDE the
/// cache lock (argument strings allocate).  One enabled() branch when
/// tracing is off.
void trace_cache_event(const char* name, const PlanKey& key) {
  if (!util::trace::enabled()) return;
  const auto& d = key.dims.global;
  util::trace::instant(
      name, "cache",
      {{"shape", std::to_string(d.n_m) + "x" + std::to_string(d.n_d) + "x" +
                     std::to_string(d.n_t)},
       {"lane", key.lane}});
}

}  // namespace

std::size_t PlanKeyHash::operator()(const PlanKey& k) const noexcept {
  std::size_t h = std::hash<int>{}(k.lane);
  const auto& d = k.dims;
  for (const index_t v : {d.global.n_m, d.global.n_d, d.global.n_t, d.n_m_local,
                          d.n_d_local, d.m_offset, d.d_offset}) {
    hash_combine(h, std::hash<index_t>{}(v));
  }
  return h;
}

PlanCache::PlanCache(device::Device& dev, std::size_t capacity)
    : dev_(&dev), capacity_(capacity) {
  if (capacity_ == 0) {
    throw std::invalid_argument("PlanCache: capacity must be >= 1");
  }
}

std::shared_ptr<core::FftMatvecPlan> PlanCache::acquire(const PlanKey& key,
                                                        device::Stream& stream) {
  std::shared_ptr<core::FftMatvecPlan> hit;
  {
    std::lock_guard lock(mutex_);
    if (const auto it = index_.find(key); it != index_.end()) {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, it->second);
      hit = it->second->second;
    } else {
      ++stats_.misses;
    }
  }
  if (hit != nullptr) {
    trace_cache_event("plan_cache_hit", key);
    return hit;
  }
  trace_cache_event("plan_cache_miss", key);
  // Built outside the lock so one lane's cold miss never stalls the
  // other lanes' lookups (keys are lane-scoped in the scheduler, so
  // concurrent same-key builds do not arise there; if an external
  // caller races one, the loser's plan is simply dropped below).
  auto plan = std::make_shared<core::FftMatvecPlan>(*dev_, stream, key.dims);
  std::shared_ptr<core::FftMatvecPlan> result;
  std::int64_t evicted = 0;
  {
    std::lock_guard lock(mutex_);
    if (const auto it = index_.find(key); it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      result = it->second->second;
    } else {
      lru_.emplace_front(key, std::move(plan));
      const auto inserted = lru_.begin();
      index_[key] = inserted;
      // Trim beyond capacity, least-recently-used first, skipping
      // pinned entries (an active session's plan is never evicted)
      // and never the just-inserted entry: acquire must hand back the
      // plan for `key`, so the new entry is not a victim candidate
      // even when every other resident entry is pinned.  If nothing
      // is evictable the cache temporarily overflows instead of
      // evicting hot session state; open_stream's capacity validation
      // keeps production out of that regime.
      std::size_t resident = lru_.size();
      for (auto it = std::prev(lru_.end());
           resident > capacity_ && it != inserted;) {
        const auto victim = it;
        --it;
        if (!pinned_locked(victim->first)) {
          index_.erase(victim->first);
          lru_.erase(victim);
          --resident;
          ++stats_.evictions;
          ++evicted;
        }
      }
      result = inserted->second;
    }
  }
  if (evicted > 0 && util::trace::enabled()) {
    util::trace::instant("plan_cache_evict", "cache",
                         {{"evicted", evicted}, {"lane", key.lane}});
  }
  return result;
}

void PlanCache::pin(const PlanKey& key) {
  {
    std::lock_guard lock(mutex_);
    ++pins_[pin_scope(key)];
  }
  trace_cache_event("plan_cache_pin", key);
}

void PlanCache::unpin(const PlanKey& key) {
  {
    std::lock_guard lock(mutex_);
    const auto it = pins_.find(pin_scope(key));
    if (it == pins_.end()) return;  // unmatched unpin: harmless no-op
    if (--it->second <= 0) pins_.erase(it);
  }
  trace_cache_event("plan_cache_unpin", key);
}

bool PlanCache::pinned(const PlanKey& key) const {
  std::lock_guard lock(mutex_);
  return pinned_locked(key);
}

std::size_t PlanCache::pinned_shapes() const {
  std::lock_guard lock(mutex_);
  return pins_.size();
}

std::shared_ptr<core::FftMatvecPlan> PlanCache::peek(const PlanKey& key) const {
  std::lock_guard lock(mutex_);
  const auto it = index_.find(key);
  return it == index_.end() ? nullptr : it->second->second;
}

std::size_t PlanCache::size() const {
  std::lock_guard lock(mutex_);
  return lru_.size();
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

}  // namespace fftmv::serve
