#include "serve/request_queue.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/trace.hpp"

namespace fftmv::serve {

namespace {

using time_point = std::chrono::steady_clock::time_point;

/// EDF order within a key: earliest absolute deadline first, arrival
/// sequence as the tie-break (best-effort requests carry
/// time_point::max() and so stay FIFO behind every deadline).
bool edf_before(const PendingRequest& a, const PendingRequest& b) {
  if (a.deadline != b.deadline) return a.deadline < b.deadline;
  return a.seq < b.seq;
}

}  // namespace

RequestQueue::RequestQueue(int max_batch, double linger_seconds,
                           bool deadline_aware, int max_queue_depth,
                           OverloadPolicy policy)
    : max_batch_(max_batch),
      linger_seconds_(linger_seconds),
      deadline_aware_(deadline_aware),
      max_queue_depth_(max_queue_depth),
      policy_(policy) {
  if (max_batch_ < 1) {
    throw std::invalid_argument("RequestQueue: max_batch must be >= 1");
  }
  if (linger_seconds_ < 0.0) {
    throw std::invalid_argument("RequestQueue: linger must be >= 0");
  }
  if (max_queue_depth_ < 0) {
    throw std::invalid_argument("RequestQueue: max_queue_depth must be >= 0");
  }
}

std::optional<PendingRequest> RequestQueue::shed_newest_best_effort() {
  // The EDF order sorts best-effort requests (deadline == max) behind
  // every deadlined one with seq as the tie-break, so within a key
  // the newest best-effort request is the back of the deque — but the
  // blind mode keeps FIFO order, so scan every entry.  The queue is
  // at its (bounded) depth, so the scan is O(max_queue_depth).
  std::map<BatchKey, KeyQueue>::iterator victim_key = queues_.end();
  std::deque<PendingRequest>::iterator victim;
  for (auto it = queues_.begin(); it != queues_.end(); ++it) {
    for (auto rit = it->second.q.begin(); rit != it->second.q.end(); ++rit) {
      if (rit->has_deadline()) continue;
      if (victim_key == queues_.end() || rit->seq > victim->seq) {
        victim_key = it;
        victim = rit;
      }
    }
  }
  if (victim_key == queues_.end()) return std::nullopt;
  PendingRequest shed = std::move(*victim);
  KeyQueue& kq = victim_key->second;
  kq.q.erase(victim);
  --total_pending_;
  if (kq.q.empty()) {
    // Deactivate exactly as pop_batch does for a drained key: leave
    // the rotation and park the start tag as the finish tag (no
    // dispatch happened, so nothing is charged).
    rotation_.remove(victim_key->first);
    vfinish_[victim_key->first] = kq.vstart;
    queues_.erase(victim_key);
  }
  return shed;
}

RequestQueue::PushOutcome RequestQueue::push(const BatchKey& key,
                                             PendingRequest request) {
  PushOutcome out;
  {
    std::lock_guard lock(mutex_);
    if (closed_) {
      out.status = PushOutcome::Status::kClosed;
      out.returned = std::move(request);
      return out;
    }
    if (max_queue_depth_ > 0 &&
        total_pending_ >= static_cast<std::size_t>(max_queue_depth_)) {
      // Bounded admission.  Under the shed policy only deadline-
      // bearing arrivals may displace pending best-effort work;
      // admitting a best-effort arrival by shedding an older one
      // would be pure churn.
      if (policy_ == OverloadPolicy::kShedBestEffort && request.has_deadline()) {
        out.shed = shed_newest_best_effort();
      }
      if (!out.shed.has_value()) {
        out.status = PushOutcome::Status::kFull;
        out.returned = std::move(request);
        return out;
      }
    }
    request.seq = next_seq_++;
    auto [it, inserted] = queues_.try_emplace(key);
    KeyQueue& kq = it->second;
    if (kq.q.empty()) {
      // (Re)activation: join the blind rotation at the back and pick
      // up the SFQ start tag — the global virtual time, or the key's
      // old finish tag if it deactivated ahead of it (so an
      // empty-and-refill cannot out-run fairness).  A stale finish
      // tag is pruned here on reactivation; tags of keys that never
      // return are swept opportunistically in pop_batch.
      rotation_.push_back(key);
      kq.vstart = vtime_;
      kq.activation = next_activation_++;
      if (const auto fin = vfinish_.find(key); fin != vfinish_.end()) {
        kq.vstart = std::max(kq.vstart, fin->second);
        vfinish_.erase(fin);
      }
    }
    if (deadline_aware_) {
      // EDF insert: before the first pending request this one beats.
      const auto pos = std::upper_bound(
          kq.q.begin(), kq.q.end(), request,
          [](const PendingRequest& a, const PendingRequest& b) {
            return edf_before(a, b);
          });
      kq.q.insert(pos, std::move(request));
    } else {
      kq.q.push_back(std::move(request));
    }
    ++total_pending_;
  }
  // Wake every consumer: one takes the batch when it fills, the rest
  // re-evaluate their linger deadlines.
  cv_.notify_all();
  return out;
}

std::chrono::steady_clock::time_point RequestQueue::release_time(
    const KeyQueue& kq) const {
  const auto linger = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(linger_seconds_));
  // Linger runs from the OLDEST pending arrival (EDF reorders the
  // deque, so scan; key backlogs are bounded by a few batches).
  time_point oldest = time_point::max();
  for (const auto& req : kq.q) oldest = std::min(oldest, req.enqueued);
  time_point release = oldest + linger;
  if (deadline_aware_) {
    // An imminent deadline cancels the remaining linger: waiting for
    // batch companions must never spend latency the deadline cannot
    // afford.  The EDF front carries the key's earliest deadline.
    if (!kq.q.empty() && kq.q.front().has_deadline()) {
      release = std::min(release, kq.q.front().deadline);
    }
  }
  return release;
}

std::optional<Batch> RequestQueue::pop_batch() {
  std::unique_lock lock(mutex_);
  for (;;) {
    if (rotation_.empty()) {
      if (closed_) return std::nullopt;
      cv_.wait(lock);
      continue;
    }
    // Collect the dispatchable keys (full, past release time, or
    // draining after close); among them the scheduling discipline
    // picks the winner.  A key still gathering company inside its
    // linger window is skipped, so a ready key is never head-of-line
    // blocked behind a lingering one.
    const auto now = std::chrono::steady_clock::now();
    auto ready = rotation_.end();
    auto earliest_release = time_point::max();
    for (auto it = rotation_.begin(); it != rotation_.end(); ++it) {
      const KeyQueue& kq = queues_.at(*it);
      const bool dispatchable = closed_ ||
                                static_cast<int>(kq.q.size()) >= max_batch_ ||
                                now >= release_time(kq);
      if (!dispatchable) {
        earliest_release = std::min(earliest_release, release_time(kq));
        continue;
      }
      if (ready == rotation_.end()) {
        ready = it;
        if (!deadline_aware_) break;  // blind: first ready in rotation order
        continue;
      }
      // WFQ: smallest virtual start tag wins; activation order breaks
      // ties (equal weights therefore reproduce round-robin).
      const KeyQueue& best = queues_.at(*ready);
      if (kq.vstart < best.vstart ||
          (kq.vstart == best.vstart && kq.activation < best.activation)) {
        ready = it;
      }
    }
    if (ready == rotation_.end()) {
      // Every key is still gathering company: sleep until the first
      // release time or a new arrival re-evaluates the predicate.
      if (earliest_release == time_point::max()) {
        cv_.wait(lock);
      } else {
        cv_.wait_until(lock, earliest_release);
      }
      continue;
    }

    const BatchKey key = *ready;
    KeyQueue& kq = queues_.at(key);
    Batch batch;
    batch.key = key;
    batch.seq = next_batch_seq_++;
    const auto cap =
        std::min<std::size_t>(kq.q.size(), static_cast<std::size_t>(max_batch_));
    batch.requests.reserve(cap);
    // Why this batch released now, captured before the take loop
    // mutates the key queue: full beats deadline-cut beats drain beats
    // plain linger expiry.  Only computed when tracing is on.
    const bool trace_on = util::trace::enabled();
    const bool was_full = static_cast<int>(kq.q.size()) >= max_batch_;
    const bool draining = closed_;
    bool deadline_cut = false;
    if (trace_on && !was_full && deadline_aware_ && !kq.q.empty() &&
        kq.q.front().has_deadline()) {
      const auto linger =
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(linger_seconds_));
      time_point oldest = time_point::max();
      for (const auto& req : kq.q) oldest = std::min(oldest, req.enqueued);
      deadline_cut = kq.q.front().deadline < oldest + linger;
    }
    // Take in service order, counting distinct tenants for the trace.
    std::vector<TenantId> taken_tenants;
    double batch_weight = 1.0;
    while (batch.requests.size() < cap) {
      const TenantId tenant = kq.q.front().tenant;
      if (std::find(taken_tenants.begin(), taken_tenants.end(), tenant) ==
          taken_tenants.end()) {
        taken_tenants.push_back(tenant);
      }
      batch_weight = std::max(batch_weight, kq.q.front().weight);
      batch.requests.push_back(std::move(kq.q.front()));
      kq.q.pop_front();
    }
    total_pending_ -= batch.requests.size();
    // Charge the dispatch to the key's virtual clock: n requests cost
    // n / weight of virtual time, so while two keys stay backlogged
    // their served-request ratio tracks their weight ratio.
    vtime_ = std::max(vtime_, kq.vstart);
    // Opportunistic sweep of stale finish tags: an entry at or behind
    // the (just advanced) virtual time is a no-op on reactivation —
    // the reactivation max() picks vtime_ anyway — so dropping it is
    // invisible to fairness.  Swept only once the map outgrows the
    // live key space, keeping the cost amortised; without this,
    // per-tenant keys (cross_tenant_batching == false) or shape/
    // precision churn would retire keys faster than they reactivate
    // and grow the map without bound.
    if (vfinish_.size() > 2 * queues_.size() + 8) {
      for (auto fin = vfinish_.begin(); fin != vfinish_.end();) {
        fin = fin->second <= vtime_ ? vfinish_.erase(fin) : std::next(fin);
      }
    }
    const double finish =
        kq.vstart + static_cast<double>(batch.requests.size()) / batch_weight;
    rotation_.erase(ready);
    if (kq.q.empty()) {
      vfinish_[key] = finish;
      queues_.erase(key);
    } else {
      // Leftover work re-queues behind its own charge: to the back of
      // the blind rotation, and at its finish tag in WFQ order.
      kq.vstart = finish;
      kq.activation = next_activation_++;
      rotation_.push_back(key);
    }
    if (trace_on) {
      // Emitted after releasing the queue mutex: the instant's
      // argument strings allocate, and the queue lock is hot.
      lock.unlock();
      const auto& d = batch.key.dims.global;
      util::trace::instant(
          "batch_formed", "queue",
          {{"shape", std::to_string(d.n_m) + "x" + std::to_string(d.n_d) +
                         "x" + std::to_string(d.n_t)},
           {"dir", direction_name(batch.key.direction)},
           {"precision", batch.key.precision},
           {"size", static_cast<std::int64_t>(batch.requests.size())},
           {"groups", static_cast<std::int64_t>(taken_tenants.size())},
           {"seq", batch.seq},
           {"deadline_cut", deadline_cut ? 1 : 0},
           {"reason", was_full         ? "full"
                      : deadline_cut   ? "deadline-cut"
                      : draining       ? "drain"
                                       : "linger"}});
    }
    return batch;
  }
}

void RequestQueue::close() {
  {
    std::lock_guard lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
}

std::size_t RequestQueue::pending() const {
  std::lock_guard lock(mutex_);
  return total_pending_;
}

}  // namespace fftmv::serve
