// Unit tests for the serving layer (src/serve): plan cache reuse and
// LRU eviction, request batching and round-robin fairness, batched
// correctness against the unbatched plan path and the dense
// reference, concurrent submission, and drain/shutdown semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "blas/vector_ops.hpp"
#include "core/dense_reference.hpp"
#include "core/synthetic.hpp"
#include "device/device_spec.hpp"
#include "json_test_util.hpp"
#include "serve/plan_cache.hpp"
#include "serve/request_queue.hpp"
#include "serve/scheduler.hpp"
#include "util/trace.hpp"

namespace fftmv::serve {
namespace {

core::ProblemDims small_dims() { return {32, 4, 16}; }
core::ProblemDims other_dims() { return {24, 3, 12}; }

PlanKey key_for(const core::ProblemDims& dims, int lane = 0) {
  return PlanKey{core::LocalDims::single_rank(dims), lane};
}

BatchKey batch_key(const core::ProblemDims& dims,
                   core::ApplyDirection direction = core::ApplyDirection::kForward,
                   std::string prec = "ddddd", TenantId tenant = 0) {
  return BatchKey{core::LocalDims::single_rank(dims), direction,
                  std::move(prec), tenant};
}

PendingRequest make_request(std::vector<double> input = {}, TenantId tenant = 0) {
  PendingRequest req;
  req.tenant = tenant;
  req.input = std::move(input);
  req.enqueued = std::chrono::steady_clock::now();
  return req;
}

PendingRequest deadline_request(double deadline_offset_s, TenantId tenant = 0,
                                double weight = 1.0) {
  PendingRequest req = make_request({}, tenant);
  req.deadline =
      req.enqueued + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                         std::chrono::duration<double>(deadline_offset_s));
  req.weight = weight;
  return req;
}

// ------------------------------------------------------------ PlanCache
TEST(PlanCache, ReusesPlansAcrossAcquires) {
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  PlanCache cache(dev, 4);
  const auto key = key_for(small_dims());
  const auto p1 = cache.acquire(key, stream);
  const auto p2 = cache.acquire(key, stream);
  EXPECT_EQ(p1.get(), p2.get());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCache, EvictsLeastRecentlyUsed) {
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  PlanCache cache(dev, 2);
  const auto ka = key_for(small_dims());
  const auto kb = key_for(other_dims());
  const auto kc = key_for(core::ProblemDims{16, 2, 8});
  cache.acquire(ka, stream);
  cache.acquire(kb, stream);
  cache.acquire(ka, stream);  // A most recent; LRU order: A, B
  cache.acquire(kc, stream);  // evicts B
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1);
  cache.acquire(ka, stream);  // still resident
  EXPECT_EQ(cache.stats().hits, 2);
  cache.acquire(kb, stream);  // was evicted: a fresh miss
  EXPECT_EQ(cache.stats().misses, 4);
}

TEST(PlanCache, EvictedPlanStaysAliveWhileHeld) {
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  PlanCache cache(dev, 1);
  const auto held = cache.acquire(key_for(small_dims()), stream);
  cache.acquire(key_for(other_dims()), stream);  // evicts the held plan
  EXPECT_EQ(cache.size(), 1u);
  ASSERT_NE(held, nullptr);  // shared_ptr keeps the evicted plan usable
  EXPECT_EQ(held->dims().global, small_dims());
}

TEST(PlanCache, DistinctKeysGetDistinctPlans) {
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  PlanCache cache(dev, 8);
  const auto base = cache.acquire(key_for(small_dims(), 0), stream);
  EXPECT_NE(base.get(), cache.acquire(key_for(other_dims(), 0), stream).get());
  EXPECT_NE(base.get(), cache.acquire(key_for(small_dims(), 1), stream).get());
  EXPECT_EQ(cache.stats().misses, 3);
}


TEST(PlanCache, RejectsZeroCapacity) {
  device::Device dev(device::make_mi300x());
  EXPECT_THROW(PlanCache(dev, 0), std::invalid_argument);
}

TEST(PlanCache, PinShieldsShapeFromEvictionAcrossLanes) {
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  PlanCache cache(dev, 2);
  const auto ka = key_for(small_dims(), 0);
  cache.pin(ka);
  // Pins are lane-agnostic (a session's applies may run on any lane)
  // and count distinct SHAPES, not entries.
  EXPECT_TRUE(cache.pinned(key_for(small_dims(), 1)));
  EXPECT_EQ(cache.pinned_shapes(), 1u);
  EXPECT_FALSE(cache.pinned(key_for(other_dims(), 0)));

  cache.acquire(ka, stream);
  cache.acquire(key_for(other_dims()), stream);
  cache.acquire(key_for(core::ProblemDims{16, 2, 8}), stream);
  // Over capacity the unpinned LRU entry went, never the pinned one.
  EXPECT_NE(cache.peek(ka), nullptr);
  EXPECT_EQ(cache.peek(key_for(other_dims())), nullptr);

  // Pins are counted: two pins need two unpins.
  cache.pin(ka);
  cache.unpin(ka);
  EXPECT_TRUE(cache.pinned(ka));
  cache.unpin(ka);
  EXPECT_FALSE(cache.pinned(ka));
  EXPECT_EQ(cache.pinned_shapes(), 0u);
  // Fully unpinned, the shape becomes ordinary LRU prey again.
  cache.acquire(key_for(other_dims()), stream);
  EXPECT_EQ(cache.peek(ka), nullptr);
}

TEST(PlanCache, FullyPinnedCacheStillReturnsTheRequestedPlan) {
  device::Device dev(device::make_mi300x());
  device::Stream stream(dev);
  PlanCache cache(dev, 2);
  const auto ka = key_for(small_dims());
  const auto kb = key_for(other_dims());
  cache.pin(ka);
  cache.pin(kb);
  cache.acquire(ka, stream);
  cache.acquire(kb, stream);  // capacity exactly filled by pinned entries
  // With every other resident entry pinned, an unpinned one-shot
  // acquire must overflow the cache — NEVER evict its own just-built
  // entry and hand back a plan for a different shape.
  const auto kc = key_for(core::ProblemDims{16, 2, 8});
  const auto plan = cache.acquire(kc, stream);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->dims().global, (core::ProblemDims{16, 2, 8}));
  EXPECT_EQ(cache.peek(kc), plan);
  EXPECT_EQ(cache.size(), 3u);  // temporary overflow, no eviction
  EXPECT_EQ(cache.stats().evictions, 0);
}

// --------------------------------------------------------- RequestQueue
TEST(RequestQueue, SplitsKeyIntoMaxBatchChunks) {
  RequestQueue q(3, 0.0);
  const BatchKey key = batch_key(small_dims());
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.push(key, make_request()).accepted());
  auto b1 = q.pop_batch();
  ASSERT_TRUE(b1.has_value());
  EXPECT_EQ(b1->requests.size(), 3u);
  auto b2 = q.pop_batch();
  ASSERT_TRUE(b2.has_value());
  EXPECT_EQ(b2->requests.size(), 2u);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(RequestQueue, RoundRobinAcrossKeysUnderSkew) {
  RequestQueue q(2, 0.0);
  const BatchKey ka = batch_key(small_dims());
  const BatchKey kb = batch_key(other_dims());
  // Shape A floods the queue before shape B's lone request arrives,
  // but must not starve it: after A's first batch the rotation moves
  // A behind B.
  for (int i = 0; i < 3; ++i) q.push(ka, make_request());
  for (int i = 0; i < 2; ++i) q.push(kb, make_request());
  const auto b1 = q.pop_batch();
  const auto b2 = q.pop_batch();
  const auto b3 = q.pop_batch();
  ASSERT_TRUE(b1 && b2 && b3);
  EXPECT_EQ(b1->key, ka);
  EXPECT_EQ(b2->key, kb);
  EXPECT_EQ(b3->key, ka);
  EXPECT_EQ(b3->requests.size(), 1u);
}

TEST(RequestQueue, CrossTenantRequestsShareShapeKeys) {
  // The coalescing key is (shape, direction, precision): requests
  // from different tenants with the same shape key coalesce into one
  // batch (the grouped-dispatch premise), while shape, direction and
  // precision all split keys.
  RequestQueue q(8, 0.0);
  q.push(batch_key(small_dims()), make_request({}, /*tenant=*/1));
  q.push(batch_key(small_dims()), make_request({}, /*tenant=*/2));
  q.push(batch_key(small_dims()), make_request({}, /*tenant=*/3));
  const auto coalesced = q.pop_batch();
  ASSERT_TRUE(coalesced.has_value());
  EXPECT_EQ(coalesced->requests.size(), 3u);
  EXPECT_EQ(coalesced->requests[0].tenant, 1u);
  EXPECT_EQ(coalesced->requests[2].tenant, 3u);

  q.push(batch_key(small_dims()), make_request());
  q.push(batch_key(other_dims()), make_request());
  q.push(batch_key(small_dims(), core::ApplyDirection::kAdjoint), make_request());
  q.push(batch_key(small_dims(), core::ApplyDirection::kForward, "dssdd"), make_request());
  // Four distinct coalescing keys -> four singleton batches.
  for (int i = 0; i < 4; ++i) {
    const auto b = q.pop_batch();
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(b->requests.size(), 1u);
  }
}

TEST(RequestQueue, TenantFieldSplitsKeysInSameTenantOnlyMode) {
  // The ablation mode (cross_tenant_batching == false) sets the
  // tenant field, restoring PR 3's same-tenant-only coalescing.
  RequestQueue q(8, 0.0);
  q.push(batch_key(small_dims(), core::ApplyDirection::kForward, "ddddd", 1),
         make_request({}, 1));
  q.push(batch_key(small_dims(), core::ApplyDirection::kForward, "ddddd", 2),
         make_request({}, 2));
  for (int i = 0; i < 2; ++i) {
    const auto b = q.pop_batch();
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(b->requests.size(), 1u);
  }
}

TEST(RequestQueue, LingerCoalescesLateArrivals) {
  RequestQueue q(8, 0.25);  // generous linger so slow CI cannot flake it
  const BatchKey key = batch_key(small_dims());
  q.push(key, make_request());
  std::thread late([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.push(key, make_request());
    q.push(key, make_request());
  });
  const auto t0 = std::chrono::steady_clock::now();
  const auto batch = q.pop_batch();
  const double waited = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
  late.join();
  ASSERT_TRUE(batch.has_value());
  // The late arrivals rode the lingering batch instead of forming
  // their own, and the batch was held back for the linger window.
  EXPECT_EQ(batch->requests.size(), 3u);
  EXPECT_GE(waited, 0.2);
}

TEST(RequestQueue, FullBatchReleasesBeforeLinger) {
  RequestQueue q(2, 10.0);  // linger long enough to hang the test if used
  const BatchKey key = batch_key(small_dims());
  q.push(key, make_request());
  q.push(key, make_request());
  const auto batch = q.pop_batch();
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->requests.size(), 2u);
}

TEST(RequestQueue, CloseDrainsThenStops) {
  RequestQueue q(8, 10.0);
  const BatchKey key = batch_key(small_dims());
  q.push(key, make_request());
  q.push(key, make_request());
  q.close();
  // No new work after close: the request comes back for the caller to
  // fail (the queue never owns a promise it will not fulfil).
  const auto refused = q.push(key, make_request());
  EXPECT_EQ(refused.status, RequestQueue::PushOutcome::Status::kClosed);
  EXPECT_TRUE(refused.returned.has_value());
  const auto batch = q.pop_batch();           // queued work still drains
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->requests.size(), 2u);
  EXPECT_FALSE(q.pop_batch().has_value());  // then consumers are released
}

TEST(RequestQueue, BatchTakesEveryDistinctTenant) {
  RequestQueue q(8, 0.0);
  const BatchKey key = batch_key(small_dims());
  for (TenantId t = 1; t <= 5; ++t) q.push(key, make_request({}, t));
  const auto b = q.pop_batch();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->requests.size(), 5u);
}

TEST(RequestQueue, EdfServesEarliestDeadlineFirstWithinKey) {
  RequestQueue q(8, 0.0);
  const BatchKey key = batch_key(small_dims());
  // A best-effort request arrives FIRST but must sort behind every
  // deadlined one; the deadlined ones dispatch by deadline, not
  // arrival.  Tenants mark the requests.
  q.push(key, make_request({}, /*tenant=*/4));
  q.push(key, deadline_request(30.0, /*tenant=*/1));
  q.push(key, deadline_request(10.0, /*tenant=*/2));
  q.push(key, deadline_request(20.0, /*tenant=*/3));
  const auto batch = q.pop_batch();
  ASSERT_TRUE(batch.has_value());
  ASSERT_EQ(batch->requests.size(), 4u);
  EXPECT_EQ(batch->requests[0].tenant, 2u);
  EXPECT_EQ(batch->requests[1].tenant, 3u);
  EXPECT_EQ(batch->requests[2].tenant, 1u);
  EXPECT_EQ(batch->requests[3].tenant, 4u);
}

TEST(RequestQueue, EdfKeepsFifoAmongEqualDeadlines) {
  // Identical absolute deadlines (one session's back-to-back applies)
  // fall back to arrival sequence — the stream stays ordered.
  RequestQueue q(8, 0.0);
  const BatchKey key = batch_key(small_dims());
  const auto dl = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (const TenantId t : {5, 6, 7}) {
    auto req = make_request({}, t);
    req.deadline = dl;
    q.push(key, std::move(req));
  }
  const auto batch = q.pop_batch();
  ASSERT_TRUE(batch.has_value());
  ASSERT_EQ(batch->requests.size(), 3u);
  EXPECT_EQ(batch->requests[0].tenant, 5u);
  EXPECT_EQ(batch->requests[1].tenant, 6u);
  EXPECT_EQ(batch->requests[2].tenant, 7u);
}

TEST(RequestQueue, ImminentDeadlineCancelsLinger) {
  RequestQueue q(8, 10.0);  // linger long enough to hang the test if waited
  const BatchKey key = batch_key(small_dims());
  q.push(key, deadline_request(0.02));
  const auto t0 = std::chrono::steady_clock::now();
  const auto batch = q.pop_batch();
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->requests.size(), 1u);
  // Released at the deadline (~20 ms), not after the 10 s linger.
  EXPECT_LT(waited, 5.0);
}

TEST(RequestQueue, WeightedFairQueueingTracksWeightRatio) {
  // Two backlogged keys, weights 3 : 1, singleton batches: over any
  // window the served-batch ratio must track the weight ratio.
  RequestQueue q(1, 0.0);
  const BatchKey ka = batch_key(small_dims());
  const BatchKey kb = batch_key(other_dims());
  for (int i = 0; i < 24; ++i) q.push(ka, deadline_request(60.0, 1, 3.0));
  for (int i = 0; i < 24; ++i) q.push(kb, deadline_request(60.0, 2, 1.0));
  int served_a = 0, served_b = 0;
  for (int i = 0; i < 16; ++i) {
    const auto batch = q.pop_batch();
    ASSERT_TRUE(batch.has_value());
    (batch->key == ka ? served_a : served_b) += 1;
  }
  // Exact SFQ would serve 12 : 4; accept anything in the 2x..4x band.
  EXPECT_GE(served_a, 2 * served_b) << served_a << ":" << served_b;
  EXPECT_LE(served_a, 4 * served_b) << served_a << ":" << served_b;
}

TEST(RequestQueue, BlindModeIgnoresDeadlinesAndWeights) {
  // deadline_aware == false is the PR 2-5 baseline: FIFO within the
  // key even when a later arrival carries the earlier deadline.
  RequestQueue q(8, 0.0, /*deadline_aware=*/false);
  EXPECT_FALSE(q.deadline_aware());
  const BatchKey key = batch_key(small_dims());
  q.push(key, make_request({}, /*tenant=*/1));
  q.push(key, deadline_request(0.001, /*tenant=*/2));
  q.push(key, deadline_request(10.0, /*tenant=*/3));
  const auto batch = q.pop_batch();
  ASSERT_TRUE(batch.has_value());
  ASSERT_EQ(batch->requests.size(), 3u);
  EXPECT_EQ(batch->requests[0].tenant, 1u);
  EXPECT_EQ(batch->requests[1].tenant, 2u);
  EXPECT_EQ(batch->requests[2].tenant, 3u);
}

// ------------------------------------------------------ AsyncScheduler
struct ServedCase {
  core::ProblemDims dims;
  std::vector<double> col;
  TenantId tenant = 0;
};

ServedCase register_tenant(AsyncScheduler& s, const core::ProblemDims& dims,
                           std::uint64_t seed) {
  ServedCase c;
  c.dims = dims;
  c.col = core::make_first_block_col(core::LocalDims::single_rank(dims), seed);
  c.tenant = s.add_tenant(dims, c.col);
  return c;
}

TEST(AsyncScheduler, BatchedResultsMatchUnbatchedPlanAndDenseReference) {
  ServeOptions opts;
  opts.num_streams = 2;
  opts.max_batch = 4;
  opts.linger_seconds = 0.0;
  AsyncScheduler sched(device::make_mi300x(), opts);
  const auto tenant = register_tenant(sched, small_dims(), 7);
  const auto local = core::LocalDims::single_rank(tenant.dims);

  for (const char* prec : {"ddddd", "dssdd"}) {
    const auto config = precision::PrecisionConfig::parse(prec);
    std::vector<std::vector<double>> inputs;
    std::vector<std::future<MatvecResult>> futures;
    for (std::uint64_t r = 0; r < 6; ++r) {
      inputs.push_back(
          core::make_input_vector(tenant.dims.n_t * tenant.dims.n_m, 50 + r));
      futures.push_back(
          sched.submit(tenant.tenant, core::ApplyDirection::kForward, config, inputs.back()));
    }

    // Unbatched reference: a private device/stream/plan, same config.
    device::Device dev(device::make_mi300x());
    device::Stream stream(dev);
    core::BlockToeplitzOperator op(dev, stream, local, tenant.col);
    core::FftMatvecPlan plan(dev, stream, local);
    for (std::size_t r = 0; r < inputs.size(); ++r) {
      const auto served = futures[r].get();
      std::vector<double> unbatched(served.output.size());
      plan.forward(op, inputs[r], unbatched, config);
      // The served path must be numerically identical to the
      // unbatched plan path (same kernels, same order)...
      for (std::size_t i = 0; i < unbatched.size(); ++i) {
        EXPECT_EQ(served.output[i], unbatched[i]) << prec << " element " << i;
      }
      // ...and both match the dense reference within the precision
      // config's tolerance.
      std::vector<double> dense(served.output.size());
      core::dense_forward(local, tenant.col, inputs[r], dense);
      const double err = blas::relative_l2_error(
          static_cast<index_t>(dense.size()), served.output.data(), dense.data());
      EXPECT_LT(err, config.all_double() ? 1e-12 : 1e-5) << prec;
    }
  }
}

TEST(AsyncScheduler, AdjointServedMatchesDense) {
  AsyncScheduler sched(device::make_mi300x());
  const auto tenant = register_tenant(sched, small_dims(), 9);
  const auto local = core::LocalDims::single_rank(tenant.dims);
  const auto d_in = core::make_input_vector(tenant.dims.n_t * tenant.dims.n_d, 11);
  auto future = sched.submit(tenant.tenant, core::ApplyDirection::kAdjoint,
                             precision::PrecisionConfig{}, d_in);
  const auto served = future.get();
  std::vector<double> dense(served.output.size());
  core::dense_adjoint(local, tenant.col, d_in, dense);
  EXPECT_LT(blas::relative_l2_error(static_cast<index_t>(dense.size()),
                                    served.output.data(), dense.data()),
            1e-12);
}

TEST(AsyncScheduler, CacheHitRatePositiveOnRepeatedKeys) {
  ServeOptions opts;
  opts.num_streams = 1;  // one lane -> repeated keys must hit its cache entry
  opts.max_batch = 4;    // several batches, so acquires repeat
  AsyncScheduler sched(device::make_mi300x(), opts);
  const auto tenant = register_tenant(sched, small_dims(), 13);
  const auto input = core::make_input_vector(tenant.dims.n_t * tenant.dims.n_m, 14);
  std::vector<std::future<MatvecResult>> futures;
  for (int r = 0; r < 12; ++r) {
    futures.push_back(sched.submit(tenant.tenant, core::ApplyDirection::kForward,
                                   precision::PrecisionConfig{}, input));
  }
  sched.drain();
  for (auto& f : futures) f.get();
  const auto snap = sched.metrics();
  EXPECT_EQ(snap.completed, 12);
  EXPECT_GT(snap.cache_hit_rate(), 0.0);
  EXPECT_GT(snap.batches, 0);
}

TEST(AsyncScheduler, ConcurrentSubmittersDrainCleanly) {
  ServeOptions opts;
  opts.num_streams = 3;
  opts.max_batch = 4;
  opts.linger_seconds = 100e-6;
  AsyncScheduler sched(device::make_mi300x(), opts);
  const auto ta = register_tenant(sched, small_dims(), 21);
  const auto tb = register_tenant(sched, core::ProblemDims{24, 3, 12}, 22);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::vector<std::vector<std::future<MatvecResult>>> futures(kThreads);
  std::vector<std::thread> submitters;
  std::atomic<int> submit_errors{0};
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int r = 0; r < kPerThread; ++r) {
        const bool use_a = (t + r) % 2 == 0;
        const auto& tenant = use_a ? ta : tb;
        const bool adjoint = r % 5 == 0;
        const auto config = precision::PrecisionConfig::parse(
            r % 3 == 0 ? "dssdd" : "ddddd");
        const index_t n = adjoint ? tenant.dims.n_t * tenant.dims.n_d
                                  : tenant.dims.n_t * tenant.dims.n_m;
        try {
          futures[static_cast<std::size_t>(t)].push_back(sched.submit(
              tenant.tenant, adjoint ? core::ApplyDirection::kAdjoint : core::ApplyDirection::kForward,
              config,
              core::make_input_vector(n, static_cast<std::uint64_t>(t * 100 + r))));
        } catch (const std::exception&) {
          ++submit_errors;
        }
      }
    });
  }
  for (auto& s : submitters) s.join();
  EXPECT_EQ(submit_errors.load(), 0);

  sched.drain();
  int fulfilled = 0;
  for (auto& per_thread : futures) {
    for (auto& f : per_thread) {
      ASSERT_TRUE(f.valid());
      EXPECT_NO_THROW(f.get());
      ++fulfilled;
    }
  }
  EXPECT_EQ(fulfilled, kThreads * kPerThread);
  const auto snap = sched.metrics();
  EXPECT_EQ(snap.submitted, kThreads * kPerThread);
  EXPECT_EQ(snap.completed, kThreads * kPerThread);
  EXPECT_EQ(snap.failed, 0);
  EXPECT_GT(snap.cache_hit_rate(), 0.0);
}

TEST(AsyncScheduler, DrainLeavesNothingInFlight) {
  AsyncScheduler sched(device::make_mi300x());
  const auto tenant = register_tenant(sched, small_dims(), 31);
  const auto input = core::make_input_vector(tenant.dims.n_t * tenant.dims.n_m, 32);
  std::vector<std::future<MatvecResult>> futures;
  for (int r = 0; r < 8; ++r) {
    futures.push_back(sched.submit(tenant.tenant, core::ApplyDirection::kForward,
                                   precision::PrecisionConfig{}, input));
  }
  sched.drain();
  using namespace std::chrono_literals;
  for (auto& f : futures) {
    // After drain() every accepted future is already fulfilled.
    ASSERT_EQ(f.wait_for(0s), std::future_status::ready);
    f.get();
  }
}

TEST(AsyncScheduler, ShutdownIsGracefulAndRefusesNewWork) {
  AsyncScheduler sched(device::make_mi300x());
  const auto tenant = register_tenant(sched, small_dims(), 41);
  const auto input = core::make_input_vector(tenant.dims.n_t * tenant.dims.n_m, 42);
  std::vector<std::future<MatvecResult>> futures;
  for (int r = 0; r < 5; ++r) {
    futures.push_back(sched.submit(tenant.tenant, core::ApplyDirection::kForward,
                                   precision::PrecisionConfig{}, input));
  }
  sched.shutdown();
  for (auto& f : futures) {
    EXPECT_TRUE(f.get().ok());  // accepted work drained successfully
  }
  // The unified submit-after-shutdown contract: a READY future
  // carrying kShutdown, never a synchronous throw (see the error
  // contract on AsyncScheduler).
  using namespace std::chrono_literals;
  auto refused = sched.submit(tenant.tenant, core::ApplyDirection::kForward,
                              precision::PrecisionConfig{}, input);
  ASSERT_EQ(refused.wait_for(0s), std::future_status::ready);
  EXPECT_EQ(refused.get().error, ErrorCode::kShutdown);
  sched.shutdown();  // idempotent
}

TEST(AsyncScheduler, SubmitValidatesTenantAndExtent) {
  AsyncScheduler sched(device::make_mi300x());
  const auto tenant = register_tenant(sched, small_dims(), 51);
  EXPECT_THROW(sched.submit(999, core::ApplyDirection::kForward, precision::PrecisionConfig{},
                            std::vector<double>(16)),
               std::invalid_argument);
  EXPECT_THROW(sched.submit(tenant.tenant, core::ApplyDirection::kForward,
                            precision::PrecisionConfig{}, std::vector<double>(3)),
               std::invalid_argument);
  // Adjoint expects n_t x n_d, not n_t x n_m.
  EXPECT_THROW(
      sched.submit(tenant.tenant, core::ApplyDirection::kAdjoint, precision::PrecisionConfig{},
                   std::vector<double>(static_cast<std::size_t>(
                       small_dims().n_t * small_dims().n_m))),
      std::invalid_argument);
}

TEST(AsyncScheduler, CoalescedBatchExecutesPlanExactlyOnce) {
  ServeOptions opts;
  opts.num_streams = 1;
  opts.max_batch = 8;
  opts.linger_seconds = 0.25;  // generous: all six submits land in one batch
  AsyncScheduler sched(device::make_mi300x(), opts);
  const auto tenant = register_tenant(sched, small_dims(), 71);
  const auto local = core::LocalDims::single_rank(tenant.dims);

  std::vector<std::future<MatvecResult>> futures;
  for (std::uint64_t r = 0; r < 6; ++r) {
    futures.push_back(sched.submit(
        tenant.tenant, core::ApplyDirection::kForward, precision::PrecisionConfig{},
        core::make_input_vector(tenant.dims.n_t * tenant.dims.n_m, 72 + r)));
  }
  sched.drain();

  std::vector<MatvecResult> results;
  for (auto& f : futures) results.push_back(f.get());
  const auto snap = sched.metrics();

  // Every dispatched batch runs as ONE fused apply_batch on the
  // cached plan — hook its execution counter to prove it.  Asserting
  // against the batch count (not a literal 1) keeps the invariant
  // exact even if a heavily loaded runner splits the six submits
  // across the linger window.
  const auto plan = sched.plan_cache().peek(
      PlanKey{local, 0});
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->executions(), snap.batches);
  EXPECT_LE(snap.batches, 6);

  // Per-request attribution: each member carries an even share of its
  // batch's simulated makespan (== the busy share: a single-rank batch
  // runs on one in-order stream) and the phase breakdown.
  for (const auto& r : results) {
    EXPECT_GE(r.batch_size, 1);
    EXPECT_GT(r.timings.sbgemv, 0.0);
    EXPECT_NEAR(r.timings.span(), r.sim_seconds, 1e-12);
    EXPECT_LE(r.sim_seconds, r.timings.total() + 1e-15);
  }
  if (snap.batches == 1) {
    // The common case (generous linger): all six coalesced into one
    // batch whose totals split evenly.
    for (const auto& r : results) {
      EXPECT_EQ(r.batch_size, 6);
      EXPECT_DOUBLE_EQ(r.sim_seconds, results[0].sim_seconds);
    }
    EXPECT_NEAR(results[0].sim_seconds * 6.0, plan->last_timings().span(),
                1e-12);
  }
}

TEST(AsyncScheduler, CrossTenantRequestsCoalesceIntoOneGroupedExecution) {
  // Two tenants with the SAME shape: their requests share a
  // coalescing key and a generous linger gathers all six into ONE
  // grouped apply_batch — the tentpole behaviour.  Each tenant's
  // results must still come from its own operator (checked against
  // the dense reference of its own first block column).
  ServeOptions opts;
  opts.num_streams = 1;
  opts.max_batch = 8;
  opts.linger_seconds = 0.25;
  AsyncScheduler sched(device::make_mi300x(), opts);
  const auto ta = register_tenant(sched, small_dims(), 101);
  const auto tb = register_tenant(sched, small_dims(), 102);
  const auto local = core::LocalDims::single_rank(small_dims());

  std::vector<std::vector<double>> inputs;
  std::vector<std::future<MatvecResult>> futures;
  std::vector<const ServedCase*> owners;
  for (std::uint64_t r = 0; r < 6; ++r) {
    const auto& tenant = (r % 2 == 0) ? ta : tb;  // interleaved arrivals
    inputs.push_back(
        core::make_input_vector(small_dims().n_t * small_dims().n_m, 110 + r));
    owners.push_back(&tenant);
    futures.push_back(sched.submit(tenant.tenant, core::ApplyDirection::kForward,
                                   precision::PrecisionConfig{}, inputs.back()));
  }
  sched.drain();

  std::vector<MatvecResult> results;
  for (auto& f : futures) results.push_back(f.get());
  const auto snap = sched.metrics();

  // One plan execution per dispatched batch even though two tenants
  // are interleaved — the cross-tenant requests coalesced instead of
  // splitting into per-tenant singletons.
  const auto plan = sched.plan_cache().peek(
      PlanKey{local, 0});
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->executions(), snap.batches);
  EXPECT_EQ(sched.plan_cache().size(), 1u);  // one shape -> one plan
  if (snap.batches == 1) {
    for (const auto& r : results) EXPECT_EQ(r.batch_size, 6);
  }

  for (std::size_t r = 0; r < results.size(); ++r) {
    std::vector<double> dense(results[r].output.size());
    core::dense_forward(local, owners[r]->col, inputs[r], dense);
    EXPECT_LT(blas::relative_l2_error(static_cast<index_t>(dense.size()),
                                      results[r].output.data(), dense.data()),
              1e-12)
        << "request " << r;
  }
}

TEST(AsyncScheduler, SameTenantOnlyModeKeepsTenantsApart) {
  // The ablation flag restores PR 3 coalescing: same-shape requests
  // from different tenants never share a batch.
  ServeOptions opts;
  opts.num_streams = 1;
  opts.max_batch = 8;
  opts.linger_seconds = 0.05;
  opts.cross_tenant_batching = false;
  AsyncScheduler sched(device::make_mi300x(), opts);
  const auto ta = register_tenant(sched, small_dims(), 111);
  const auto tb = register_tenant(sched, small_dims(), 112);
  std::vector<std::future<MatvecResult>> futures;
  for (std::uint64_t r = 0; r < 4; ++r) {
    const auto& tenant = (r % 2 == 0) ? ta : tb;
    futures.push_back(sched.submit(
        tenant.tenant, core::ApplyDirection::kForward, precision::PrecisionConfig{},
        core::make_input_vector(small_dims().n_t * small_dims().n_m, 120 + r)));
  }
  sched.drain();
  for (auto& f : futures) EXPECT_LE(f.get().batch_size, 2);
  EXPECT_GE(sched.metrics().batches, 2);
}

TEST(AsyncScheduler, ConfigsShareOneCachedPlan) {
  // Plans are precision-agnostic, so two configs through one tenant
  // shape must warm exactly one cache entry (the PlanKey precision
  // drop) — and the second config's batch is a cache hit.
  ServeOptions opts;
  opts.num_streams = 1;
  opts.linger_seconds = 0.0;
  AsyncScheduler sched(device::make_mi300x(), opts);
  const auto tenant = register_tenant(sched, small_dims(), 121);
  const auto input = core::make_input_vector(small_dims().n_t * small_dims().n_m, 122);
  sched.submit(tenant.tenant, core::ApplyDirection::kForward,
               precision::PrecisionConfig::parse("ddddd"), input)
      .get();
  sched.submit(tenant.tenant, core::ApplyDirection::kForward,
               precision::PrecisionConfig::parse("dssdd"), input)
      .get();
  sched.drain();
  EXPECT_EQ(sched.plan_cache().size(), 1u);
  EXPECT_EQ(sched.plan_cache().stats().misses, 1);
  EXPECT_GE(sched.plan_cache().stats().hits, 1);
}

TEST(AsyncScheduler, DefaultMaxBatchResolvesToSixteen) {
  // max_batch == 0 resolves to the fixed kDefaultMaxBatch on every
  // device, and an explicit value wins.
  EXPECT_EQ(kDefaultMaxBatch, 16);
  for (const auto& spec : {device::make_mi250x_gcd(), device::make_mi300x(),
                           device::make_mi355x()}) {
    AsyncScheduler sched(spec);  // default options
    EXPECT_EQ(sched.options().max_batch, 16) << spec.name;
    ServeOptions fixed;
    fixed.max_batch = 4;
    AsyncScheduler sched_fixed(spec, fixed);
    EXPECT_EQ(sched_fixed.options().max_batch, 4) << spec.name;
  }
}

TEST(AsyncScheduler, GroupedTimingsWeightSbgemvByGroupShare) {
  // A 1 + 3 grouped batch: the singleton's RHS carries its whole
  // matrix read in the SBGEMV share while the 3-wide group amortises
  // its own, so the singleton's sbgemv attribution must be strictly
  // larger; the per-request shares still sum to the batch totals.
  ServeOptions opts;
  opts.num_streams = 1;
  opts.max_batch = 8;
  opts.linger_seconds = 0.25;
  AsyncScheduler sched(device::make_mi300x(), opts);
  const auto ta = register_tenant(sched, small_dims(), 131);
  const auto tb = register_tenant(sched, small_dims(), 132);

  std::vector<std::future<MatvecResult>> futures;
  futures.push_back(sched.submit(
      ta.tenant, core::ApplyDirection::kForward, precision::PrecisionConfig{},
      core::make_input_vector(small_dims().n_t * small_dims().n_m, 140)));
  for (std::uint64_t r = 0; r < 3; ++r) {
    futures.push_back(sched.submit(
        tb.tenant, core::ApplyDirection::kForward, precision::PrecisionConfig{},
        core::make_input_vector(small_dims().n_t * small_dims().n_m, 141 + r)));
  }
  sched.drain();
  std::vector<MatvecResult> results;
  for (auto& f : futures) results.push_back(f.get());
  if (sched.metrics().batches != 1) GTEST_SKIP() << "batch split by slow runner";

  const auto& singleton = results[0];
  for (std::size_t r = 1; r < results.size(); ++r) {
    EXPECT_GT(singleton.timings.sbgemv, results[r].timings.sbgemv);
    // The tenant-agnostic phases split evenly.
    EXPECT_DOUBLE_EQ(singleton.timings.fft, results[r].timings.fft);
    EXPECT_DOUBLE_EQ(singleton.timings.pad, results[r].timings.pad);
  }
  double total = 0.0;
  for (const auto& r : results) total += r.sim_seconds;
  const auto plan = sched.plan_cache().peek(
      PlanKey{core::LocalDims::single_rank(small_dims()), 0});
  ASSERT_NE(plan, nullptr);
  // Per-request sim shares reconcile with the batch's end-to-end
  // makespan (== the busy total only when the batch ran serial).
  EXPECT_NEAR(total, plan->last_timings().span(), 1e-12);
}

TEST(AsyncScheduler, RaggedFinalBatchStaysCorrect) {
  // 6 requests through max_batch = 4: however the queue splits them
  // (4+2 when coalesced, smaller when a lane wins the race), every
  // result must match the dense reference exactly in double.
  ServeOptions opts;
  opts.num_streams = 1;
  opts.max_batch = 4;
  opts.linger_seconds = 0.05;
  AsyncScheduler sched(device::make_mi300x(), opts);
  const auto tenant = register_tenant(sched, small_dims(), 81);
  const auto local = core::LocalDims::single_rank(tenant.dims);

  std::vector<std::vector<double>> inputs;
  std::vector<std::future<MatvecResult>> futures;
  for (std::uint64_t r = 0; r < 6; ++r) {
    inputs.push_back(
        core::make_input_vector(tenant.dims.n_t * tenant.dims.n_m, 82 + r));
    futures.push_back(sched.submit(tenant.tenant, core::ApplyDirection::kForward,
                                   precision::PrecisionConfig{}, inputs.back()));
  }
  sched.drain();
  for (std::size_t r = 0; r < futures.size(); ++r) {
    const auto result = futures[r].get();
    EXPECT_GE(result.batch_size, 1);
    EXPECT_LE(result.batch_size, 4);
    std::vector<double> dense(result.output.size());
    core::dense_forward(local, tenant.col, inputs[r], dense);
    EXPECT_LT(blas::relative_l2_error(static_cast<index_t>(dense.size()),
                                      result.output.data(), dense.data()),
              1e-12);
  }
}

TEST(AsyncScheduler, OptionValidationNamesTheBadField) {
  const auto spec = device::make_mi300x();
  const auto expect_invalid = [&](ServeOptions opts, const char* field) {
    try {
      AsyncScheduler sched(spec, opts);
      FAIL() << field << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  ServeOptions opts;
  opts.num_streams = 0;
  expect_invalid(opts, "num_streams");
  opts = {};
  opts.max_batch = -1;
  expect_invalid(opts, "max_batch");
  opts = {};
  opts.linger_seconds = -1e-3;
  expect_invalid(opts, "linger_seconds");
  opts = {};
  opts.plan_cache_capacity = 0;
  expect_invalid(opts, "plan_cache_capacity");
}

TEST(AsyncScheduler, MetricsRecordTheResultsLatencies) {
  // The metrics and the MatvecResult describe one request with one
  // pair of measurements, not two reads of the clock.
  ServeOptions opts;
  opts.num_streams = 1;
  opts.linger_seconds = 0.0;
  AsyncScheduler sched(device::make_mi300x(), opts);
  const auto tenant = register_tenant(sched, small_dims(), 171);
  const auto result =
      sched
          .submit(tenant.tenant, core::ApplyDirection::kForward,
                  precision::PrecisionConfig{},
                  core::make_input_vector(small_dims().n_t * small_dims().n_m, 172))
          .get();
  ASSERT_TRUE(result.ok());
  sched.drain();
  const auto snap = sched.metrics();
  ASSERT_EQ(snap.exec_latency.count, 1);
  EXPECT_EQ(snap.exec_latency.max, result.exec_seconds);
  EXPECT_EQ(snap.queue_latency.max, result.queue_seconds);
}

TEST(AsyncScheduler, RequestStructAndPositionalSubmitAreEquivalent) {
  ServeOptions opts;
  opts.num_streams = 1;
  opts.linger_seconds = 0.0;
  AsyncScheduler sched(device::make_mi300x(), opts);
  const auto tenant = register_tenant(sched, small_dims(), 161);
  const auto input =
      core::make_input_vector(small_dims().n_t * small_dims().n_m, 162);
  const auto config = precision::PrecisionConfig::parse("dssdd");
  const auto positional =
      sched.submit(tenant.tenant, core::ApplyDirection::kForward, config, input)
          .get();
  const auto structured =
      sched
          .submit(Request{.tenant = tenant.tenant,
                          .direction = core::ApplyDirection::kForward,
                          .config = config,
                          .input = input,
                          .qos = {}})
          .get();
  // The positional overload is a thin wrapper: bit-identical results.
  EXPECT_EQ(structured.output, positional.output);

  // QoS is validated on the struct path.
  Request bad{.tenant = tenant.tenant,
              .direction = core::ApplyDirection::kForward,
              .config = config,
              .input = input,
              .qos = {.deadline_seconds = -1.0, .weight = 1.0}};
  EXPECT_THROW(sched.submit(std::move(bad)), std::invalid_argument);
  Request bad_weight{.tenant = tenant.tenant,
                     .direction = core::ApplyDirection::kForward,
                     .config = config,
                     .input = input,
                     .qos = {.deadline_seconds = 0.0, .weight = 0.0}};
  EXPECT_THROW(sched.submit(std::move(bad_weight)), std::invalid_argument);
}

TEST(AsyncScheduler, SessionAppliesDispatchInOrderAndMatchDense) {
  ServeOptions opts;
  opts.num_streams = 1;
  opts.max_batch = 2;  // several batches, so ordering is observable
  opts.linger_seconds = 0.0;
  AsyncScheduler sched(device::make_mi300x(), opts);
  const auto tenant = register_tenant(sched, small_dims(), 171);
  const auto local = core::LocalDims::single_rank(tenant.dims);

  StreamSession session = sched.open_stream(
      tenant.tenant, core::ApplyDirection::kForward, precision::PrecisionConfig{},
      StreamQoS{.deadline_seconds = 60.0, .weight = 2.0});
  const auto sid = session.id();
  EXPECT_GT(sid, 0u);
  EXPECT_EQ(session.tenant(), tenant.tenant);
  EXPECT_EQ(session.direction(), core::ApplyDirection::kForward);
  EXPECT_DOUBLE_EQ(session.qos().weight, 2.0);

  std::vector<std::vector<double>> inputs;
  std::vector<std::future<MatvecResult>> futures;
  for (std::uint64_t r = 0; r < 8; ++r) {
    inputs.push_back(
        core::make_input_vector(tenant.dims.n_t * tenant.dims.n_m, 172 + r));
    futures.push_back(session.submit(inputs.back()));
  }
  session.close();  // drains the stream

  std::int64_t prev_seq = -1;
  for (std::size_t r = 0; r < futures.size(); ++r) {
    const auto result = futures[r].get();
    // Ordered stream: same key + non-decreasing deadlines + the EDF
    // seq tie-break means dispatch order follows submit order, which
    // the global batch sequence number makes observable.
    EXPECT_GE(result.batch_seq, prev_seq) << "apply " << r;
    prev_seq = result.batch_seq;
    EXPECT_EQ(result.session, sid);
    std::vector<double> dense(result.output.size());
    core::dense_forward(local, tenant.col, inputs[r], dense);
    EXPECT_LT(blas::relative_l2_error(static_cast<index_t>(dense.size()),
                                      result.output.data(), dense.data()),
              1e-12);
  }
}

TEST(AsyncScheduler, SessionLifecycleCloseMoveAndErrors) {
  AsyncScheduler sched(device::make_mi300x());
  const auto tenant = register_tenant(sched, small_dims(), 181);
  const auto input =
      core::make_input_vector(small_dims().n_t * small_dims().n_m, 182);

  StreamSession a = sched.open_stream(tenant.tenant, core::ApplyDirection::kForward,
                                      precision::PrecisionConfig{});
  StreamSession b = std::move(a);  // move leaves `a` closed
  EXPECT_FALSE(a.open());
  EXPECT_TRUE(b.open());
  EXPECT_THROW(a.submit(input), std::runtime_error);
  b.submit(input).get();
  b.close();
  EXPECT_FALSE(b.open());
  EXPECT_THROW(b.submit(input), std::runtime_error);
  b.close();  // double close is a no-op

  // RAII: destruction drains and closes an open session.
  std::future<MatvecResult> orphan;
  {
    StreamSession scoped = sched.open_stream(
        tenant.tenant, core::ApplyDirection::kForward, precision::PrecisionConfig{});
    orphan = scoped.submit(input);
  }
  using namespace std::chrono_literals;
  ASSERT_EQ(orphan.wait_for(0s), std::future_status::ready);  // close() drained
  orphan.get();
}

TEST(AsyncScheduler, OpenStreamValidatesQoSTenantAndCapacity) {
  ServeOptions opts;
  opts.num_streams = 2;
  opts.plan_cache_capacity = 4;  // room for 2 pinned shapes x 2 lanes
  AsyncScheduler sched(device::make_mi300x(), opts);
  const auto ta = register_tenant(sched, small_dims(), 191);
  const auto tb = register_tenant(sched, other_dims(), 192);
  const auto tc = register_tenant(sched, core::ProblemDims{16, 2, 8}, 193);

  EXPECT_THROW(sched.open_stream(999, core::ApplyDirection::kForward,
                                 precision::PrecisionConfig{}),
               std::invalid_argument);
  EXPECT_THROW(
      sched.open_stream(ta.tenant, core::ApplyDirection::kForward,
                        precision::PrecisionConfig{},
                        StreamQoS{.deadline_seconds = -1.0, .weight = 1.0}),
      std::invalid_argument);
  EXPECT_THROW(
      sched.open_stream(ta.tenant, core::ApplyDirection::kForward,
                        precision::PrecisionConfig{},
                        StreamQoS{.deadline_seconds = 0.0, .weight = 0.0}),
      std::invalid_argument);

  StreamSession sa = sched.open_stream(ta.tenant, core::ApplyDirection::kForward,
                                       precision::PrecisionConfig{});
  StreamSession sb = sched.open_stream(tb.tenant, core::ApplyDirection::kForward,
                                       precision::PrecisionConfig{});
  // A third pinned SHAPE would need 3 x 2 = 6 > 4 resident plans.
  EXPECT_THROW(sched.open_stream(tc.tenant, core::ApplyDirection::kForward,
                                 precision::PrecisionConfig{}),
               std::invalid_argument);
  // Same shape as an existing pin adds no new shape: admitted.
  StreamSession sa2 = sched.open_stream(ta.tenant, core::ApplyDirection::kAdjoint,
                                        precision::PrecisionConfig{});
  sa2.close();
  sb.close();
  sa.close();
  // Closing released the pins: the rejected shape now fits.
  StreamSession sc = sched.open_stream(tc.tenant, core::ApplyDirection::kForward,
                                       precision::PrecisionConfig{});
  sc.close();
}

TEST(AsyncScheduler, DeadlinesTheClockCannotHoldAreRejectedOrSaturated) {
  // NaN and infinite deadlines have no place on the steady clock, so
  // both entry points reject them.  A finite deadline past the clock's
  // ~292-year range saturates instead of wrapping to the far past,
  // where every request would count as a miss.
  ServeOptions opts;
  opts.num_streams = 1;
  opts.linger_seconds = 0.0;
  AsyncScheduler sched(device::make_mi300x(), opts);
  const auto tenant = register_tenant(sched, small_dims(), 195);
  const auto input =
      core::make_input_vector(small_dims().n_t * small_dims().n_m, 196);
  const auto submit = [&](double deadline_seconds) {
    return sched.submit(Request{.tenant = tenant.tenant,
                                .direction = core::ApplyDirection::kForward,
                                .config = {},
                                .input = input,
                                .qos = {.deadline_seconds = deadline_seconds,
                                        .weight = 1.0}});
  };
  const auto open = [&](double deadline_seconds) {
    return sched.open_stream(
        tenant.tenant, core::ApplyDirection::kForward, precision::PrecisionConfig{},
        StreamQoS{.deadline_seconds = deadline_seconds, .weight = 1.0});
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
    EXPECT_THROW(submit(bad), std::invalid_argument) << bad;
    EXPECT_THROW(open(bad), std::invalid_argument) << bad;
  }
  for (const double far : {1e12, std::numeric_limits<double>::max()}) {
    const auto one_shot = submit(far).get();
    ASSERT_TRUE(one_shot.ok()) << far;
    EXPECT_FALSE(one_shot.deadline_missed) << far;
    StreamSession session = open(far);
    const auto streamed = session.submit(input).get();
    ASSERT_TRUE(streamed.ok()) << far;
    EXPECT_FALSE(streamed.deadline_missed) << far;
    session.close();
  }
  sched.drain();
  EXPECT_EQ(sched.metrics().deadline_missed, 0);
}

TEST(AsyncScheduler, PinnedPlanSurvivesCachePressure) {
  ServeOptions opts;
  opts.num_streams = 1;
  opts.max_batch = 4;
  opts.linger_seconds = 0.0;
  opts.plan_cache_capacity = 2;
  AsyncScheduler sched(device::make_mi300x(), opts);
  const auto ta = register_tenant(sched, small_dims(), 201);
  const auto tb = register_tenant(sched, other_dims(), 202);
  const auto tc = register_tenant(sched, core::ProblemDims{16, 2, 8}, 203);
  const auto td = register_tenant(sched, core::ProblemDims{40, 5, 20}, 204);
  const PlanKey pinned_key{core::LocalDims::single_rank(small_dims()), 0};

  StreamSession session = sched.open_stream(
      ta.tenant, core::ApplyDirection::kForward, precision::PrecisionConfig{});
  EXPECT_TRUE(sched.plan_cache().pinned(pinned_key));
  session
      .submit(core::make_input_vector(small_dims().n_t * small_dims().n_m, 205))
      .get();  // warms the lane's entry for the pinned shape

  // Three other shapes churn through a 2-entry cache: plenty of
  // eviction pressure, none of it allowed to touch the pinned shape.
  for (int round = 0; round < 3; ++round) {
    for (const auto* t : {&tb, &tc, &td}) {
      sched
          .submit(t->tenant, core::ApplyDirection::kForward,
                  precision::PrecisionConfig{},
                  core::make_input_vector(t->dims.n_t * t->dims.n_m,
                                          210 + round))
          .get();
    }
  }
  EXPECT_GT(sched.plan_cache().stats().evictions, 0);
  EXPECT_NE(sched.plan_cache().peek(pinned_key), nullptr);  // still hot

  const auto hits_before = sched.plan_cache().stats().hits;
  session
      .submit(core::make_input_vector(small_dims().n_t * small_dims().n_m, 206))
      .get();
  EXPECT_GT(sched.plan_cache().stats().hits, hits_before);  // no cold start
  session.close();
  EXPECT_FALSE(sched.plan_cache().pinned(pinned_key));
}

TEST(AsyncScheduler, DeadlineOutcomesFlowIntoMetricsAndSessionTable) {
  ServeOptions opts;
  opts.num_streams = 1;
  opts.linger_seconds = 0.0;
  AsyncScheduler sched(device::make_mi300x(), opts);
  const auto tenant = register_tenant(sched, small_dims(), 211);
  const auto input =
      core::make_input_vector(small_dims().n_t * small_dims().n_m, 212);

  // Generous deadline: met.  Impossible deadline (1 ns): missed.
  const auto met =
      sched
          .submit(Request{.tenant = tenant.tenant,
                          .direction = core::ApplyDirection::kForward,
                          .config = {},
                          .input = input,
                          .qos = {.deadline_seconds = 60.0, .weight = 1.0}})
          .get();
  EXPECT_FALSE(met.deadline_missed);
  const auto missed =
      sched
          .submit(Request{.tenant = tenant.tenant,
                          .direction = core::ApplyDirection::kForward,
                          .config = {},
                          .input = input,
                          .qos = {.deadline_seconds = 1e-9, .weight = 1.0}})
          .get();
  EXPECT_TRUE(missed.deadline_missed);
  sched.drain();
  const auto snap = sched.metrics();
  EXPECT_EQ(snap.deadline_total, 2);
  EXPECT_EQ(snap.deadline_missed, 1);
  EXPECT_DOUBLE_EQ(snap.slo_attainment(), 0.5);
  EXPECT_TRUE(snap.sessions.empty());  // one-shots are not a session

  // A session's outcomes land in its per-session row.
  StreamSession session = sched.open_stream(
      tenant.tenant, core::ApplyDirection::kForward, precision::PrecisionConfig{},
      StreamQoS{.deadline_seconds = 1e-9, .weight = 1.0});
  const auto sid = session.id();
  std::vector<std::future<MatvecResult>> futures;
  for (int r = 0; r < 4; ++r) futures.push_back(session.submit(input));
  session.close();
  for (auto& f : futures) f.get();
  const auto snap2 = sched.metrics();
  ASSERT_EQ(snap2.sessions.count(sid), 1u);
  const auto& row = snap2.sessions.at(sid);
  EXPECT_EQ(row.requests, 4);
  EXPECT_EQ(row.deadline_missed, 4);
  EXPECT_GT(row.p50, 0.0);
  EXPECT_GE(row.p99, row.p50);

  std::ostringstream os;
  snap2.print(os);
  EXPECT_NE(os.str().find("deadline miss"), std::string::npos);
  EXPECT_NE(os.str().find("session"), std::string::npos);
}

TEST(ServeMetrics, ClosedSessionCompactsToRetainedSummary) {
  ServeMetrics m;
  for (int i = 0; i < 10; ++i) {
    m.record_submit();
    m.record_request(1e-3, 2e-3, ErrorCode::kOk, /*session=*/7,
                     /*had_deadline=*/true, /*missed=*/i == 0);
  }
  m.close_session(7);
  // The reservoir is gone but the session's final summary survives in
  // every later snapshot.
  const auto snap = m.snapshot();
  ASSERT_EQ(snap.sessions.count(7), 1u);
  const auto& row = snap.sessions.at(7);
  EXPECT_EQ(row.requests, 10);
  EXPECT_EQ(row.deadline_missed, 1);
  EXPECT_DOUBLE_EQ(row.p50, 3e-3);
  EXPECT_GE(row.p99, row.p50);
  m.close_session(7);  // idempotent: no second retirement
  EXPECT_EQ(m.snapshot().sessions.at(7).requests, 10);
  m.close_session(0);  // one-shot sentinel: no-op
  EXPECT_EQ(m.snapshot().sessions.size(), 1u);
}

TEST(AsyncScheduler, HandleOutlivingSchedulerIsInertNotDangling) {
  StreamSession session;
  {
    AsyncScheduler sched(device::make_mi300x());
    const auto tenant = register_tenant(sched, small_dims(), 221);
    session = sched.open_stream(tenant.tenant, core::ApplyDirection::kForward,
                                precision::PrecisionConfig{});
    session
        .submit(core::make_input_vector(small_dims().n_t * small_dims().n_m, 222))
        .get();
  }  // scheduler destroyed with the handle still open
  EXPECT_TRUE(session.open());
  EXPECT_THROW(session.submit({}), std::runtime_error);
  session.close();  // degrades to making the handle inert — no crash
  EXPECT_FALSE(session.open());
}

// --------------------------------------- metrics empty-state edge cases

TEST(ServeMetrics, EmptySnapshotIsSafeAndNeutral) {
  ServeMetrics m;
  const auto snap = m.snapshot();
  EXPECT_EQ(snap.submitted, 0);
  // Zero deadline-tagged requests: perfect attainment, not 0/0.
  EXPECT_DOUBLE_EQ(snap.slo_attainment(), 1.0);
  EXPECT_DOUBLE_EQ(snap.throughput_rps(), 0.0);
  EXPECT_DOUBLE_EQ(snap.mean_batch_size(), 0.0);
  EXPECT_DOUBLE_EQ(snap.cache_hit_rate(), 0.0);
  // Percentile helpers on empty reservoirs: all-zero summaries.
  EXPECT_EQ(snap.total_latency.count, 0);
  EXPECT_DOUBLE_EQ(snap.total_latency.p99, 0.0);
  EXPECT_DOUBLE_EQ(snap.queue_latency.max, 0.0);
  EXPECT_TRUE(snap.lanes.empty());
  EXPECT_EQ(snap.queue_depth_last, 0);
  EXPECT_EQ(snap.queue_depth_peak, 0);
  // print() renders without lane/session tables (nothing to show) and
  // without crashing.
  std::ostringstream os;
  snap.print(os);
  EXPECT_NE(os.str().find("queue depth"), std::string::npos);
  EXPECT_EQ(os.str().find("utilization"), std::string::npos);
}

TEST(ServeMetrics, SloAttainmentCountsOnlyDeadlineTaggedRequests) {
  ServeMetrics m;
  for (int i = 0; i < 5; ++i) {
    m.record_submit();
    m.record_request(1e-3, 1e-3, ErrorCode::kOk);  // best effort
  }
  auto snap = m.snapshot();
  EXPECT_EQ(snap.deadline_total, 0);
  EXPECT_DOUBLE_EQ(snap.slo_attainment(), 1.0);
  m.record_submit();
  m.record_request(1e-3, 1e-3, ErrorCode::kOk, /*session=*/0,
                   /*had_deadline=*/true, /*missed=*/true);
  snap = m.snapshot();
  EXPECT_EQ(snap.deadline_total, 1);
  EXPECT_DOUBLE_EQ(snap.slo_attainment(), 0.0);
}

TEST(ServeMetrics, RetiredOnlySessionTableRenders) {
  ServeMetrics m;
  m.record_submit();
  m.record_request(1e-3, 1e-3, ErrorCode::kOk, /*session=*/3);
  m.close_session(3);
  const auto snap = m.snapshot();
  ASSERT_EQ(snap.sessions.size(), 1u);  // only the retired summary
  EXPECT_EQ(snap.sessions.at(3).requests, 1);
  std::ostringstream os;
  snap.print(os);
  EXPECT_NE(os.str().find("session"), std::string::npos);
}

TEST(ServeMetrics, LaneUtilizationAndQueueDepthGauges) {
  ServeMetrics m;
  m.record_queue_depth(5);
  m.record_queue_depth(2);
  m.record_lane(1, 4, /*busy_sim_seconds=*/3.0, /*wall_sim_seconds=*/2.0);
  m.record_lane(1, 2, /*busy_sim_seconds=*/4.0, /*wall_sim_seconds=*/4.0);
  m.record_lane(-1, 9, 1.0, 1.0);  // invalid lane: ignored
  const auto snap = m.snapshot();
  EXPECT_EQ(snap.queue_depth_last, 2);
  EXPECT_EQ(snap.queue_depth_peak, 5);
  ASSERT_EQ(snap.lanes.size(), 2u);  // lane 0 implicit, never sampled
  EXPECT_EQ(snap.lanes[0].batches, 0);
  EXPECT_DOUBLE_EQ(snap.lanes[0].utilization(), 0.0);  // wall 0: no 0/0
  EXPECT_EQ(snap.lanes[1].batches, 2);
  EXPECT_EQ(snap.lanes[1].requests, 6);
  // Clock samples overwrite (cumulative), they do not accumulate.
  EXPECT_DOUBLE_EQ(snap.lanes[1].busy_sim_seconds, 4.0);
  EXPECT_DOUBLE_EQ(snap.lanes[1].utilization(), 1.0);
  std::ostringstream os;
  snap.print(os);
  EXPECT_NE(os.str().find("utilization"), std::string::npos);
}

TEST(PlanCache, UnmatchedUnpinIsHarmless) {
  device::Device dev(device::make_mi300x());
  PlanCache cache(dev, 2);
  const auto ka = key_for(small_dims());
  cache.unpin(ka);  // never pinned: no-op
  EXPECT_FALSE(cache.pinned(ka));
  EXPECT_EQ(cache.pinned_shapes(), 0u);
  cache.pin(ka);
  cache.unpin(ka);
  cache.unpin(ka);  // extra unpin after the count hit zero
  EXPECT_FALSE(cache.pinned(ka));
  cache.pin(ka);  // pinning still works after the unmatched unpins
  EXPECT_TRUE(cache.pinned(ka));
}

// -------------------------------------------------- request tracing

TEST(ServeTrace, EndToEndSpanStructure) {
  namespace trace = util::trace;
  trace::stop();
  trace::clear();
  ServeOptions opts;
  opts.num_streams = 1;        // lane 0: device tid 0
  opts.max_batch = 8;
  opts.linger_seconds = 500e-3; // generous: the 8 submits coalesce into
                                // one full batch even on a loaded CI box
  AsyncScheduler sched(device::make_mi300x(), opts);
  const auto tenant = register_tenant(sched, small_dims(), 77);
  const auto input =
      core::make_input_vector(tenant.dims.n_t * tenant.dims.n_m, 78);

  trace::start();
  std::vector<std::future<MatvecResult>> futures;
  for (int r = 0; r < 8; ++r) {
    futures.push_back(sched.submit(tenant.tenant,
                                   core::ApplyDirection::kForward,
                                   precision::PrecisionConfig{}, input));
  }
  for (auto& f : futures) f.get();
  sched.drain();
  trace::stop();
  EXPECT_EQ(trace::stats().dropped, 0u);

  std::ostringstream os;
  trace::write_json(os);
  const auto doc = testjson::Parser::parse(os.str());  // throws if invalid
  const auto& events = doc.at("traceEvents").array();

  std::multiset<double> qw_begin, qw_end;
  std::vector<testjson::Value> batch_spans, host_spans, device_spans;
  bool saw_cache_miss = false, saw_batch_formed = false;
  for (const auto& ev : events) {
    const std::string& ph = ev.at("ph").str();
    const std::string& name = ev.at("name").str();
    if (ph == "b" && name == "queue_wait") qw_begin.insert(ev.at("id").number());
    if (ph == "e" && name == "queue_wait") qw_end.insert(ev.at("id").number());
    if (name == "plan_cache_miss") saw_cache_miss = true;
    if (name == "batch_formed") {
      saw_batch_formed = true;
      EXPECT_EQ(ev.at("args").at("size").number(), 8.0);
      EXPECT_EQ(ev.at("args").at("reason").str(), "full");
      EXPECT_EQ(ev.at("args").at("deadline_cut").number(), 0.0);
    }
    if (ph != "X") continue;
    if (ev.at("pid").number() == trace::kDevicePid) {
      device_spans.push_back(ev);
    } else {
      host_spans.push_back(ev);
      if (name == "batch") batch_spans.push_back(ev);
    }
  }
  // One queue-wait async pair per request, every begin matched by its
  // end on the same id.
  EXPECT_EQ(qw_begin.size(), 8u);
  EXPECT_EQ(qw_end, qw_begin);
  EXPECT_TRUE(saw_cache_miss);
  EXPECT_TRUE(saw_batch_formed);

  // Exactly one dispatch span carrying the batch metadata.
  ASSERT_EQ(batch_spans.size(), 1u);
  const auto& batch = batch_spans[0];
  const auto& args = batch.at("args");
  EXPECT_EQ(args.at("size").number(), 8.0);
  EXPECT_EQ(args.at("lane").number(), 0.0);
  EXPECT_EQ(args.at("groups").number(), 1.0);
  EXPECT_GE(args.at("batch_seq").number(), 0.0);
  EXPECT_EQ(args.at("dir").str(), "F");

  // acquire_plan and apply nest inside the batch span, on the lane
  // thread's track.
  const double b0 = batch.at("ts").number();
  const double b1 = b0 + batch.at("dur").number();
  for (const char* nested : {"acquire_plan", "apply"}) {
    bool found = false;
    for (const auto& ev : host_spans) {
      if (ev.at("name").str() != nested) continue;
      found = true;
      EXPECT_EQ(ev.at("tid").number(), batch.at("tid").number()) << nested;
      EXPECT_GE(ev.at("ts").number(), b0) << nested;
      EXPECT_LE(ev.at("ts").number() + ev.at("dur").number(), b1) << nested;
    }
    EXPECT_TRUE(found) << nested;
  }

  // Device-clock phase spans: the one batch runs its phases in
  // sequence on lane 0's stream (tid 0), one span each.  The fused
  // forward FFT reads the inputs and the fused inverse FFT writes the
  // outputs, so no pad or unpad span is traced.
  std::map<std::string, int> phases;
  for (const auto& ev : device_spans) {
    EXPECT_EQ(ev.at("tid").number(), 0.0) << ev.at("name").str();
    phases[ev.at("name").str()]++;
  }
  for (const char* p : {"fft", "sbgemv", "ifft"}) {
    EXPECT_EQ(phases[p], 1) << p;
  }
  EXPECT_EQ(phases.count("pad"), 0u);
  EXPECT_EQ(phases.count("unpad"), 0u);

  // The lane utilisation gauge landed in the metrics snapshot.
  const auto snap = sched.metrics();
  ASSERT_EQ(snap.lanes.size(), 1u);
  EXPECT_GE(snap.lanes[0].batches, 1);
  EXPECT_EQ(snap.lanes[0].requests, 8);
  EXPECT_GT(snap.lanes[0].utilization(), 0.0);
  trace::clear();
}

TEST(ServeTrace, DisabledTracingServesWithZeroEvents) {
  namespace trace = util::trace;
  trace::stop();
  trace::clear();
  AsyncScheduler sched(device::make_mi300x());
  const auto tenant = register_tenant(sched, small_dims(), 91);
  const auto input =
      core::make_input_vector(tenant.dims.n_t * tenant.dims.n_m, 92);
  sched
      .submit(tenant.tenant, core::ApplyDirection::kForward,
              precision::PrecisionConfig{}, input)
      .get();
  sched.drain();
  EXPECT_EQ(trace::stats().events, 0u);
  EXPECT_EQ(trace::stats().dropped, 0u);
}

TEST(AsyncScheduler, MetricsTablesRender) {
  AsyncScheduler sched(device::make_mi300x());
  const auto tenant = register_tenant(sched, small_dims(), 61);
  const auto input = core::make_input_vector(tenant.dims.n_t * tenant.dims.n_m, 62);
  sched
      .submit(tenant.tenant, core::ApplyDirection::kForward, precision::PrecisionConfig{},
              input)
      .get();
  sched.drain();
  std::ostringstream os;
  sched.metrics().print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("throughput req/s"), std::string::npos);
  EXPECT_NE(s.find("p99"), std::string::npos);
  EXPECT_NE(s.find("batch size"), std::string::npos);
}

// ----------------------------------------------------- Sharded tenants
TEST(AsyncScheduler, ShardedTenantServedBitIdenticalToUnsharded) {
  // The distributed-serving contract end to end: the same column and
  // the same inputs through two schedulers — one single-rank, one
  // sharded over a ragged 3-rank group (forward splits n_d = 4 into
  // {2, 1, 1}, adjoint splits n_m = 16 into {6, 5, 5}) — must produce
  // byte-for-byte identical outputs in every precision config, both
  // directions.  Batch composition may differ between the two
  // schedulers (timing-dependent coalescing); PR 3's batch-invariance
  // guarantee makes that irrelevant to the bits.
  ServeOptions opts;
  opts.num_streams = 1;
  opts.max_batch = 4;
  opts.linger_seconds = 0.0;
  AsyncScheduler plain(device::make_mi300x(), opts);
  AsyncScheduler sharded(device::make_mi300x(), opts);
  const auto dims = small_dims();
  const auto col =
      core::make_first_block_col(core::LocalDims::single_rank(dims), 7);
  const TenantId t_plain = plain.add_tenant(dims, col);
  const TenantId t_shard = sharded.add_tenant(dims, col, /*rank_group=*/3);
  EXPECT_EQ(plain.tenant_rank_group(t_plain), 1);
  EXPECT_EQ(sharded.tenant_rank_group(t_shard), 3);

  for (const auto direction :
       {core::ApplyDirection::kForward, core::ApplyDirection::kAdjoint}) {
    const auto in_len = static_cast<std::size_t>(
        dims.n_t *
        (direction == core::ApplyDirection::kForward ? dims.n_m : dims.n_d));
    for (const char* prec : {"ddddd", "dssdd", "sssss"}) {
      const auto config = precision::PrecisionConfig::parse(prec);
      std::vector<std::vector<double>> inputs;
      std::vector<std::future<MatvecResult>> fp, fs;
      for (std::uint64_t r = 0; r < 5; ++r) {
        inputs.push_back(core::make_input_vector(
            static_cast<index_t>(in_len), 90 + r));
        fp.push_back(plain.submit(t_plain, direction, config, inputs.back()));
        fs.push_back(sharded.submit(t_shard, direction, config, inputs.back()));
      }
      for (std::size_t r = 0; r < fp.size(); ++r) {
        const auto a = fp[r].get();
        const auto b = fs[r].get();
        ASSERT_EQ(a.output.size(), b.output.size());
        for (std::size_t i = 0; i < a.output.size(); ++i) {
          EXPECT_EQ(a.output[i], b.output[i]) << prec << " element " << i;
        }
      }
    }
  }
  plain.drain();
  sharded.drain();
  // Comm accounting flows into metrics only on the sharded side.
  const auto ps = plain.metrics();
  const auto ss = sharded.metrics();
  EXPECT_EQ(ps.sharded_batches, 0);
  EXPECT_EQ(ps.comm_sim_seconds, 0.0);
  EXPECT_GT(ss.sharded_batches, 0);
  EXPECT_GT(ss.comm_sim_seconds, 0.0);
  std::ostringstream os;
  ss.print(os);
  EXPECT_NE(os.str().find("sharded batches"), std::string::npos);
  EXPECT_NE(os.str().find("comm sim"), std::string::npos);
}

TEST(AsyncScheduler, ShardedBatchesPopulateRankPlansInSharedCache) {
  ServeOptions opts;
  opts.num_streams = 1;
  opts.max_batch = 4;
  opts.linger_seconds = 0.0;
  AsyncScheduler sched(device::make_mi300x(), opts);
  const auto dims = small_dims();
  const auto col =
      core::make_first_block_col(core::LocalDims::single_rank(dims), 81);
  const TenantId t = sched.add_tenant(dims, col, /*rank_group=*/2);
  sched
      .submit(t, core::ApplyDirection::kForward, precision::PrecisionConfig{},
              core::make_input_vector(dims.n_t * dims.n_m, 82))
      .get();
  sched.drain();
  // Rank 0 shares the lane's plain cache slot (same stream, same
  // dims); rank 1 lives at the encoded lane `lane + num_lanes * r`
  // = 0 + 1 * 1.  Both slices of the forward split must be resident.
  const auto rank0 = sched.plan_cache().peek(
      PlanKey{core::LocalDims::for_rank(dims, comm::ProcessGrid{2, 1}, 0), 0});
  const auto rank1 = sched.plan_cache().peek(
      PlanKey{core::LocalDims::for_rank(dims, comm::ProcessGrid{2, 1}, 1), 1});
  EXPECT_NE(rank0, nullptr);
  EXPECT_NE(rank1, nullptr);
}

TEST(AsyncScheduler, ShardedSessionPinsItsRankPlans) {
  // A sharded tenant's dispatch acquires one plan per rank slice, so
  // its session pins those shapes — not the tenant's full dims — and
  // counts each one against the cache capacity.
  ServeOptions opts;
  opts.num_streams = 1;
  opts.max_batch = 4;
  opts.linger_seconds = 0.0;
  opts.plan_cache_capacity = 3;
  AsyncScheduler sched(device::make_mi300x(), opts);
  const auto dims = small_dims();
  const auto col =
      core::make_first_block_col(core::LocalDims::single_rank(dims), 331);
  const TenantId ts = sched.add_tenant(dims, col, /*rank_group=*/2);
  const auto tb = register_tenant(sched, other_dims(), 332);
  const auto tc = register_tenant(sched, core::ProblemDims{16, 2, 8}, 333);
  const auto td = register_tenant(sched, core::ProblemDims{40, 5, 20}, 334);
  const auto rank_key = [&](index_t r) {
    return PlanKey{core::LocalDims::for_rank(dims, comm::ProcessGrid{2, 1}, r), 0};
  };

  StreamSession session = sched.open_stream(
      ts, core::ApplyDirection::kForward, precision::PrecisionConfig{});
  EXPECT_TRUE(sched.plan_cache().pinned(rank_key(0)));
  EXPECT_TRUE(sched.plan_cache().pinned(rank_key(1)));
  session.submit(core::make_input_vector(dims.n_t * dims.n_m, 335))
      .get();  // warms both rank plans

  // Three other shapes churn through the one unpinned slot.
  for (int round = 0; round < 3; ++round) {
    for (const auto* t : {&tb, &tc, &td}) {
      sched
          .submit(t->tenant, core::ApplyDirection::kForward,
                  precision::PrecisionConfig{},
                  core::make_input_vector(t->dims.n_t * t->dims.n_m,
                                          340 + round))
          .get();
    }
  }
  EXPECT_GT(sched.plan_cache().stats().evictions, 0);

  const auto misses_before = sched.plan_cache().stats().misses;
  session.submit(core::make_input_vector(dims.n_t * dims.n_m, 336)).get();
  EXPECT_EQ(sched.plan_cache().stats().misses, misses_before);  // no cold start
  session.close();
  EXPECT_FALSE(sched.plan_cache().pinned(rank_key(0)));
  EXPECT_FALSE(sched.plan_cache().pinned(rank_key(1)));

  // One resident plan cannot hold both rank plans of the lane.
  opts.plan_cache_capacity = 1;
  AsyncScheduler tight(device::make_mi300x(), opts);
  const TenantId tt = tight.add_tenant(dims, col, /*rank_group=*/2);
  EXPECT_THROW(tight.open_stream(tt, core::ApplyDirection::kForward,
                                 precision::PrecisionConfig{}),
               std::invalid_argument);
}

TEST(AsyncScheduler, ShardedTenantStaysOutOfCrossTenantGroups) {
  // With cross-tenant batching ON, a sharded tenant must keep its own
  // batch key (placement is a property of the whole batch) while a
  // plain tenant of the same shape still rides the shared key.  The
  // observable contract: every request's output matches ITS tenant's
  // dense reference — a sharded batch accidentally admitting the
  // other tenant would apply the wrong operator.
  ServeOptions opts;
  opts.num_streams = 1;
  opts.max_batch = 8;
  opts.cross_tenant_batching = true;
  opts.linger_seconds = 0.05;
  AsyncScheduler sched(device::make_mi300x(), opts);
  const auto dims = small_dims();
  const auto local = core::LocalDims::single_rank(dims);
  const auto col_a = core::make_first_block_col(local, 301);
  const auto col_b = core::make_first_block_col(local, 302);
  const TenantId ta = sched.add_tenant(dims, col_a, /*rank_group=*/2);
  const TenantId tb = sched.add_tenant(dims, col_b);
  std::vector<std::vector<double>> in_a, in_b;
  std::vector<std::future<MatvecResult>> fa, fb;
  for (std::uint64_t r = 0; r < 3; ++r) {
    in_a.push_back(core::make_input_vector(dims.n_t * dims.n_m, 310 + r));
    in_b.push_back(core::make_input_vector(dims.n_t * dims.n_m, 320 + r));
    fa.push_back(sched.submit(ta, core::ApplyDirection::kForward,
                              precision::PrecisionConfig{}, in_a.back()));
    fb.push_back(sched.submit(tb, core::ApplyDirection::kForward,
                              precision::PrecisionConfig{}, in_b.back()));
  }
  const auto check = [&](std::vector<std::future<MatvecResult>>& fs,
                         const std::vector<std::vector<double>>& ins,
                         const std::vector<double>& c, const char* who) {
    for (std::size_t r = 0; r < fs.size(); ++r) {
      const auto served = fs[r].get();
      std::vector<double> dense(served.output.size());
      core::dense_forward(local, c, ins[r], dense);
      EXPECT_LT(blas::relative_l2_error(static_cast<index_t>(dense.size()),
                                        served.output.data(), dense.data()),
                1e-12)
          << who << " request " << r;
    }
  };
  check(fa, in_a, col_a, "sharded");
  check(fb, in_b, col_b, "plain");
}

TEST(AsyncScheduler, AddTenantValidatesRankGroup) {
  AsyncScheduler sched(device::make_mi300x());  // node size 8
  const auto dims = small_dims();               // n_d = 4, n_m = 16
  const auto col =
      core::make_first_block_col(core::LocalDims::single_rank(dims), 91);
  EXPECT_THROW(sched.add_tenant(dims, col, -1), std::invalid_argument);
  EXPECT_THROW(sched.add_tenant(dims, col, 0), std::invalid_argument);
  EXPECT_THROW(sched.add_tenant(dims, col, 9), std::invalid_argument);
  // Within the node but wider than the forward output dim.
  EXPECT_THROW(sched.add_tenant(dims, col, 5), std::invalid_argument);
  EXPECT_THROW(sched.tenant_rank_group(999), std::invalid_argument);
}

TEST(AsyncScheduler, AdaptiveRankGroupScalesWithProblemSize) {
  const auto spec = device::make_mi300x();
  // GEMV-heavy shape: phase-3 work grows with n_d * n_m while the
  // wire bytes grow with n_d + n_m, so splitting the output dimension
  // sheds far more compute than the group collectives cost and the
  // crossover picks a real group.
  const core::ProblemDims wide{5000, 512, 1000};
  EXPECT_GT(adaptive_rank_group(spec, wide, 8), 1);
  // The cap binds.
  EXPECT_LE(adaptive_rank_group(spec, wide, 4), 4);
  // Tiny problem: the collectives' alpha dominates, stay on one rank.
  EXPECT_EQ(adaptive_rank_group(spec, {16, 2, 8}, 8), 1);
  // The paper's skinny shape (n_d = 100 << n_m = 1000) is
  // wire-dominated — broadcasting the full input to every rank costs
  // more than the output-dim split saves — and the probe must refuse
  // to shard it rather than chase a modelled loss.
  EXPECT_EQ(adaptive_rank_group(spec, {5000, 100, 1000}, 8), 1);
}

TEST(AsyncScheduler, DrainMidShardedFlightFulfillsEveryFuture) {
  // Sharded dispatch holds per-rank streams and staging mid-batch;
  // drain() must still retire every accepted request, and shutdown()
  // must refuse new work afterwards — same lifecycle contract as the
  // single-rank path.
  ServeOptions opts;
  opts.num_streams = 2;
  opts.max_batch = 3;
  opts.linger_seconds = 0.0;
  AsyncScheduler sched(device::make_mi300x(), opts);
  const auto dims = small_dims();
  const auto col =
      core::make_first_block_col(core::LocalDims::single_rank(dims), 77);
  const TenantId t = sched.add_tenant(dims, col, /*rank_group=*/2);
  std::vector<std::future<MatvecResult>> futures;
  for (std::uint64_t r = 0; r < 16; ++r) {
    futures.push_back(
        sched.submit(t, core::ApplyDirection::kForward,
                     precision::PrecisionConfig{},
                     core::make_input_vector(dims.n_t * dims.n_m, 200 + r)));
  }
  sched.drain();
  using namespace std::chrono_literals;
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(0s), std::future_status::ready);
    EXPECT_NO_THROW(f.get());
  }
  const auto snap = sched.metrics();
  EXPECT_EQ(snap.completed, 16);
  EXPECT_GT(snap.sharded_batches, 0);
  sched.shutdown();
  auto refused = sched.submit(t, core::ApplyDirection::kForward,
                              precision::PrecisionConfig{},
                              core::make_input_vector(dims.n_t * dims.n_m, 999));
  EXPECT_EQ(refused.get().error, ErrorCode::kShutdown);
}

}  // namespace
}  // namespace fftmv::serve
