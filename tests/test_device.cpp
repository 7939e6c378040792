// Unit tests for the simulated GPU runtime: device specs, the
// wave-occupancy cost model, memory accounting, launch validation,
// streams/events and phantom (dry-run) mode.
#include <gtest/gtest.h>

#include "device/cost_model.hpp"
#include "device/device.hpp"
#include "device/device_vector.hpp"
#include "device/device_spec.hpp"
#include "device/stream.hpp"

namespace fftmv::device {
namespace {

TEST(DeviceSpec, PresetsMatchPaperBandwidths) {
  // §4.1.2: 1.6 -> 5.3 -> 8 TB/s going MI250X -> MI300X -> MI355X.
  EXPECT_NEAR(make_mi250x_gcd().peak_bandwidth_gbps, 1600.0, 50.0);
  EXPECT_NEAR(make_mi300x().peak_bandwidth_gbps, 5300.0, 1.0);
  EXPECT_NEAR(make_mi355x().peak_bandwidth_gbps, 8000.0, 1.0);
}

TEST(DeviceSpec, PresetMemoryCapacities) {
  EXPECT_EQ(make_mi250x_gcd().memory_bytes, 64LL << 30);
  EXPECT_EQ(make_mi300x().memory_bytes, 192LL << 30);
  EXPECT_EQ(make_mi355x().memory_bytes, 288LL << 30);
}

TEST(DeviceSpec, TuningDerates) {
  // §4.1.2/§4.2.1: CDNA2/3 well tuned, CDNA4 not yet.
  EXPECT_GT(make_mi300x().streaming_derate_fp64, 0.8);
  EXPECT_LT(make_mi355x().streaming_derate_fp64, 0.6);
  EXPECT_LT(make_mi355x().streaming_derate_fp32,
            make_mi355x().streaming_derate_fp64);
}

TEST(DeviceSpec, LookupByName) {
  EXPECT_EQ(spec_by_name("mi300x").name, "MI300X");
  EXPECT_EQ(spec_by_name("MI250X").num_cus, 110);
  EXPECT_EQ(spec_by_name("host").name, "host-reference");
  EXPECT_THROW(spec_by_name("h100"), std::invalid_argument);
}

TEST(DeviceSpec, VectorLoadDerateMonotone) {
  const auto s = make_mi300x();
  EXPECT_EQ(s.vector_load_derate(16), 1.0);
  EXPECT_LT(s.vector_load_derate(4), s.vector_load_derate(8));
  EXPECT_LE(s.vector_load_derate(8), s.vector_load_derate(16));
}

// ------------------------------------------------------------ cost model
KernelFootprint streaming_fp(double bytes, bool fp64 = true) {
  KernelFootprint fp;
  fp.bytes_read = bytes / 2;
  fp.bytes_written = bytes / 2;
  fp.fp64_path = fp64;
  fp.vector_load_bytes = 16;
  fp.coalescing_efficiency = 1.0;
  return fp;
}

TEST(CostModel, BigStreamingKernelApproachesDeratedPeak) {
  const CostModel model(make_mi300x());
  const LaunchGeometry geom{.grid_x = 100000, .grid_y = 1, .grid_z = 1,
                            .block_threads = 256};
  const auto t = model.kernel_time(geom, streaming_fp(8e9));
  const double derated = 5300.0 * make_mi300x().streaming_derate_fp64;
  EXPECT_NEAR(t.achieved_bandwidth_gbps, derated, derated * 0.05);
  EXPECT_FALSE(t.residency_bound);
}

TEST(CostModel, TinyBlockLaunchIsResidencyBound) {
  // The reference transpose SBGEMV pathology: millions of blocks with
  // almost no work each (§3.1.1).
  const CostModel model(make_mi300x());
  const LaunchGeometry geom{.grid_x = 4096, .grid_y = 1, .grid_z = 1000,
                            .block_threads = 64};
  const auto t = model.kernel_time(geom, streaming_fp(1e8));
  EXPECT_TRUE(t.residency_bound);
  EXPECT_LT(t.achieved_bandwidth_gbps, 1500.0);  // far below the 5.3 TB/s peak
}

TEST(CostModel, WaveQuantisation) {
  const CostModel model(make_mi300x());
  const index_t cus = make_mi300x().num_cus;
  const LaunchGeometry one_wave{.grid_x = cus, .grid_y = 1, .grid_z = 1,
                                .block_threads = 256};
  const LaunchGeometry two_waves{.grid_x = cus + 1, .grid_y = 1, .grid_z = 1,
                                 .block_threads = 256};
  EXPECT_EQ(model.kernel_time(one_wave, streaming_fp(1e6)).waves, 1);
  EXPECT_EQ(model.kernel_time(two_waves, streaming_fp(1e6)).waves, 2);
}

TEST(CostModel, LaunchOverheadFloorsTime) {
  const CostModel model(make_mi300x());
  const LaunchGeometry geom{.grid_x = 1, .grid_y = 1, .grid_z = 1,
                            .block_threads = 64};
  const auto t = model.kernel_time(geom, streaming_fp(8.0));
  EXPECT_GE(t.seconds, make_mi300x().launch_overhead_s);
}

TEST(CostModel, Fp32PathFasterWhenDerateEqual) {
  // Same byte count, same derates: fp32/fp64 identical on MI300X.
  const CostModel model(make_mi300x());
  const LaunchGeometry geom{.grid_x = 10000, .grid_y = 1, .grid_z = 1,
                            .block_threads = 256};
  const auto t64 = model.kernel_time(geom, streaming_fp(1e9, true));
  const auto t32 = model.kernel_time(geom, streaming_fp(1e9, false));
  EXPECT_NEAR(t64.seconds, t32.seconds, 1e-9);
  // ...but differ on MI355X where the fp32 path is less tuned.
  const CostModel m355(make_mi355x());
  EXPECT_GT(m355.kernel_time(geom, streaming_fp(1e9, false)).seconds,
            m355.kernel_time(geom, streaming_fp(1e9, true)).seconds);
}

TEST(CostModel, ComputeRoofline) {
  const CostModel model(make_mi300x());
  const LaunchGeometry geom{.grid_x = 10000, .grid_y = 1, .grid_z = 1,
                            .block_threads = 256};
  KernelFootprint fp = streaming_fp(1e6);
  fp.flops = 1e13;  // wildly compute-bound
  const auto t = model.kernel_time(geom, fp);
  EXPECT_GT(t.seconds, 1e13 / (make_mi300x().fp64_tflops * 1e12) * 0.9);
}

// ------------------------------------------------------------- device
TEST(Device, TracksMemoryAndThrowsOnExhaustion) {
  DeviceSpec spec = make_host_reference();
  spec.memory_bytes = 1 << 20;  // 1 MiB
  Device dev(spec);
  device_vector<double> a(dev, 1024);
  EXPECT_EQ(dev.memory_used(), 1024 * 8);
  EXPECT_THROW(device_vector<double> b(dev, 1 << 20), DeviceOutOfMemory);
  // Failed allocation must not leak accounting.
  EXPECT_EQ(dev.memory_used(), 1024 * 8);
}

TEST(Device, FreeingReturnsCapacity) {
  DeviceSpec spec = make_host_reference();
  spec.memory_bytes = 1 << 20;
  Device dev(spec);
  {
    device_vector<float> a(dev, 1000);
    EXPECT_GT(dev.memory_used(), 0);
  }
  EXPECT_EQ(dev.memory_used(), 0);
}

TEST(Device, DeviceVectorMove) {
  Device dev(make_host_reference());
  device_vector<int> a(dev, 100);
  a[5] = 7;
  device_vector<int> b(std::move(a));
  EXPECT_EQ(b[5], 7);
  EXPECT_EQ(b.size(), 100);
  EXPECT_EQ(a.size(), 0);
}

TEST(Device, ValidatesGridLimits) {
  // The y/z overflow the paper's permutation kernel must avoid.
  Device dev(make_mi300x());
  EXPECT_THROW(dev.validate_launch({.grid_x = 1, .grid_y = 70000, .grid_z = 1,
                                    .block_threads = 64}),
               LaunchConfigError);
  EXPECT_THROW(dev.validate_launch({.grid_x = 1, .grid_y = 1, .grid_z = 70000,
                                    .block_threads = 64}),
               LaunchConfigError);
  EXPECT_THROW(dev.validate_launch({.grid_x = 1, .grid_y = 1, .grid_z = 1,
                                    .block_threads = 2048}),
               LaunchConfigError);
  EXPECT_THROW(dev.validate_launch({.grid_x = 0, .grid_y = 1, .grid_z = 1,
                                    .block_threads = 64}),
               LaunchConfigError);
  EXPECT_NO_THROW(dev.validate_launch({.grid_x = 1 << 20, .grid_y = 65535,
                                       .grid_z = 65535, .block_threads = 1024}));
}

// ------------------------------------------------------------- stream
TEST(Stream, ExecutesBlocksAndAdvancesClock) {
  Device dev(make_mi300x());
  Stream stream(dev);
  std::vector<std::atomic<int>> hits(24);
  const LaunchGeometry geom{.grid_x = 2, .grid_y = 3, .grid_z = 4,
                            .block_threads = 64};
  const auto t = stream.launch(geom, streaming_fp(1e6),
                               [&](index_t bx, index_t by, index_t bz) {
                                 hits[static_cast<std::size_t>(
                                          bz * 6 + by * 2 + bx)]++;
                               });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_GT(t.seconds, 0.0);
  EXPECT_DOUBLE_EQ(stream.now(), t.seconds);
}

TEST(Stream, WaitAdvancesClockToEventMax) {
  // The cudaStreamWaitEvent analogue: a wait on a later event jumps
  // the clock forward; a wait on an already-passed event is a no-op
  // (in-order streams never run backwards).
  Device dev(make_mi300x());
  Stream a(dev), b(dev);
  a.advance(2e-3);
  Event ev;
  ev.record(a);
  b.advance(0.5e-3);
  b.wait(ev);  // b was behind: clock jumps to the event
  EXPECT_DOUBLE_EQ(b.now(), 2e-3);
  Event early;
  early.record(b);
  b.advance(1e-3);
  b.wait(early);  // already passed: no-op
  EXPECT_DOUBLE_EQ(b.now(), 3e-3);
}

TEST(Stream, BusyExcludesWaitIdleTime) {
  Device dev(make_mi300x());
  Stream a(dev), b(dev);
  a.advance(5e-3);
  Event ev;
  ev.record(a);
  b.advance(1e-3);
  b.wait(ev);
  b.advance(2e-3);
  // Clock covers the idle jump, busy only the charged work.
  EXPECT_DOUBLE_EQ(b.now(), 7e-3);
  EXPECT_DOUBLE_EQ(b.busy(), 3e-3);
  EXPECT_DOUBLE_EQ(a.busy(), a.now());
}

TEST(Stream, GroupTimingCreditsOverlapAsMakespan) {
  // Two streams pipelined through events: the makespan is the busiest
  // clock (max-over-streams) while sum-of-busy is the serial-
  // equivalent work; their gap is exactly the overlapped time.
  Device dev(make_mi300x());
  Stream a(dev), b(dev);
  // a: produce (3 ms), then b consumes (4 ms) while a produces the
  // next piece (3 ms) — classic two-stage software pipeline.
  a.advance(3e-3);
  Event fft0;
  fft0.record(a);
  b.wait(fft0);
  b.advance(4e-3);
  a.advance(3e-3);  // overlaps b's consume
  Event gemv0;
  gemv0.record(b);
  a.wait(gemv0);  // join
  const auto t = group_timing({&a, &b});
  EXPECT_DOUBLE_EQ(t.busy, 10e-3);
  EXPECT_DOUBLE_EQ(t.makespan, 7e-3);  // 3 ms of overlap credited
  // Serial execution on one stream: makespan == busy.
  Stream s(dev);
  s.advance(10e-3);
  const auto serial = group_timing({&s});
  EXPECT_DOUBLE_EQ(serial.makespan, serial.busy);
}

// ------------------------------------------------------------- phantom
TEST(Phantom, SkipsExecutionButChargesTime) {
  Device dev(make_mi300x(), &util::ThreadPool::global(), /*phantom=*/true);
  Stream stream(dev);
  int executed = 0;
  const LaunchGeometry geom{.grid_x = 10, .grid_y = 1, .grid_z = 1,
                            .block_threads = 64};
  stream.launch(geom, streaming_fp(1e6), [&](index_t, index_t, index_t) {
    ++executed;
  });
  EXPECT_EQ(executed, 0);
  EXPECT_GT(stream.now(), 0.0);
}

TEST(Phantom, AllocationsAreUnbacked) {
  Device dev(make_mi300x(), &util::ThreadPool::global(), /*phantom=*/true);
  // Far larger than host RAM — must still succeed (capacity-only).
  device_vector<double> huge(dev, (100LL << 30) / 8);
  EXPECT_EQ(huge.data(), nullptr);
  EXPECT_EQ(dev.memory_used(), 100LL << 30);
  // ...but device capacity is still enforced.
  EXPECT_THROW(device_vector<double> over(dev, (200LL << 30) / 8),
               DeviceOutOfMemory);
}

TEST(Phantom, MatchesRealDeviceTiming) {
  // A phantom launch must charge exactly the same simulated time as a
  // real one — this is what makes paper-scale dry runs trustworthy.
  Device real_dev(make_mi300x());
  Device phantom_dev(make_mi300x(), &util::ThreadPool::global(), true);
  Stream rs(real_dev), ps(phantom_dev);
  const LaunchGeometry geom{.grid_x = 500, .grid_y = 1, .grid_z = 10,
                            .block_threads = 256};
  rs.launch(geom, streaming_fp(1e8), [](index_t, index_t, index_t) {});
  ps.launch(geom, streaming_fp(1e8), [](index_t, index_t, index_t) {});
  EXPECT_DOUBLE_EQ(rs.now(), ps.now());
}

}  // namespace
}  // namespace fftmv::device
