// In-order execution stream with a simulated clock.
//
// `launch` executes a gridblock functor for real on the host thread
// pool (numerics) and advances the stream clock by the CostModel's
// simulated kernel time (performance).  Kernels are written at
// gridblock granularity: the functor receives (block_x, block_y,
// block_z) and performs that block's entire work; thread-level
// behaviour that matters for numerics (e.g. wavefront-shuffle
// reduction order) is expressed inside the functor.
//
// Event-ordering contract (the cudaStreamWaitEvent analogue): an
// Event records the clock of the stream it was recorded on, and
// `Stream::wait(event)` advances the waiting stream's clock to
// max(own clock, event clock).  Because streams are in order, every
// launch issued after the wait is therefore modelled as starting no
// earlier than the recorded point — this is the whole dependency
// semantics multi-stream schedules (a sharded apply's rank syncs, the
// host-I/O overlap of core::sequence_driver) are built on.  The jump,
// if any, is idle time: it advances now() but not busy().
//
// Makespan vs busy time: now() is the stream's clock (work + idle),
// busy() only the charged work.  For a group of streams on one
// device, overlapped execution is credited as the *makespan* —
// max-over-streams of now() — while sum-over-streams of busy() is
// the serial-equivalent work; the two coincide exactly when nothing
// overlapped (see group_timing).
#pragma once

#include <algorithm>
#include <functional>
#include <initializer_list>

#include "device/device.hpp"

namespace fftmv::device {

class Event;

class Stream {
 public:
  explicit Stream(Device& dev) : dev_(&dev) {}

  Device& device() const { return *dev_; }

  /// Simulated seconds elapsed on this stream since creation (work
  /// plus idle time spent in wait()).
  double now() const { return sim_time_; }

  /// Simulated seconds of work charged to this stream (launches,
  /// copies, advances).  Excludes idle jumps from wait(), so
  /// with overlapped multi-stream execution sum-of-busy can exceed
  /// the max-over-streams makespan.
  double busy() const { return busy_; }

  /// Execute `block_fn(bx, by, bz)` for every gridblock and advance
  /// the simulated clock.  Returns the timing breakdown for the
  /// launch.  On a phantom device the numerics are skipped and only
  /// the clock advances (analytic paper-scale sweeps).
  template <class BlockFn>
  KernelTiming launch(const LaunchGeometry& geom, const KernelFootprint& fp,
                      BlockFn&& block_fn) {
    dev_->validate_launch(geom);
    if (FaultPlan* faults = dev_->fault_plan();
        faults && faults->on_kernel_launch()) {
      // Injected transient fault: the failure is modelled as detected
      // at kernel completion, so the clock is charged, but the abort
      // happens before any numerics run — no partial writes, and a
      // retried dispatch recomputes bit-identical outputs.
      const KernelTiming t = dev_->cost_model().kernel_time(geom, fp);
      sim_time_ += t.seconds;
      busy_ += t.seconds;
      throw StreamFault(dev_->fault_plan()->stats().kernel_launches - 1);
    }
    if (!dev_->phantom()) {
      const index_t gx = geom.grid_x, gy = geom.grid_y;
      const index_t total = geom.total_blocks();
      dev_->pool().parallel_for_chunks(total, [&](index_t begin, index_t end) {
        for (index_t i = begin; i < end; ++i) {
          const index_t bz = i / (gx * gy);
          const index_t rem = i - bz * gx * gy;
          const index_t by = rem / gx;
          const index_t bx = rem - by * gx;
          block_fn(bx, by, bz);
        }
      });
    }
    const KernelTiming t = dev_->cost_model().kernel_time(geom, fp);
    sim_time_ += t.seconds;
    busy_ += t.seconds;
    return t;
  }

  /// Advance the clock without work (e.g. modelled communication
  /// time charged to this stream by the comm layer).
  void advance(double seconds) {
    sim_time_ += seconds;
    busy_ += seconds;
  }

  /// Block this stream behind a recorded event: clock becomes
  /// max(own, event) — see the event-ordering contract above.  A wait
  /// on an event recorded earlier on this same stream is a no-op
  /// (in-order streams never run backwards).
  inline void wait(const Event& e);

  /// util::trace device-clock track id for spans charged to this
  /// stream; -1 (the default) marks the stream untracked, so phantom
  /// cost-model probes and ad-hoc streams never emit trace events.
  /// AsyncScheduler assigns each lane's first stream an id.
  int trace_tid() const { return trace_tid_; }
  void set_trace_tid(int tid) { trace_tid_ = tid; }

 private:
  Device* dev_;
  double sim_time_ = 0.0;
  double busy_ = 0.0;
  int trace_tid_ = -1;
};

/// CUDA-event analogue over the simulated clock.
class Event {
 public:
  void record(const Stream& s) { time_ = s.now(); }
  double seconds() const { return time_; }

 private:
  double time_ = 0.0;
};

inline void Stream::wait(const Event& e) {
  sim_time_ = std::max(sim_time_, e.seconds());
}

/// Aggregate timing of a set of streams driven together on one
/// device: `makespan` is the max-over-streams clock (what overlapped
/// execution is credited), `busy` the sum-over-streams charged work
/// (the serial-equivalent).  busy > makespan measures real overlap;
/// equality (up to idle gaps) means nothing overlapped.
struct StreamGroupTiming {
  double makespan = 0.0;
  double busy = 0.0;
};

inline StreamGroupTiming group_timing(
    std::initializer_list<const Stream*> streams) {
  StreamGroupTiming t;
  for (const Stream* s : streams) {
    t.makespan = std::max(t.makespan, s->now());
    t.busy += s->busy();
  }
  return t;
}

}  // namespace fftmv::device
