// Simulated GPU device: memory accounting + cost model + host
// execution context.
//
// Numerics run for real on the host thread pool; time is simulated by
// the CostModel (device/cost_model.hpp) from the DeviceSpec
// (device/device_spec.hpp).  This is the substitution for the CUDA/HIP
// runtime.
#pragma once

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>

#include "device/cost_model.hpp"
#include "device/device_spec.hpp"
#include "device/fault_plan.hpp"
#include "util/thread_pool.hpp"

namespace fftmv::device {

/// Thrown when a device_vector allocation would exceed the simulated
/// device's memory capacity.
class DeviceOutOfMemory : public std::runtime_error {
 public:
  DeviceOutOfMemory(const std::string& device, index_t requested,
                    index_t available);
};

/// Thrown when a kernel launch violates the device's grid limits
/// (e.g. grid.y/grid.z > 65535, the overflow the paper's custom
/// permutation kernel is designed to avoid).
class LaunchConfigError : public std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

class Device {
 public:
  /// `phantom = true` creates a dry-run device: allocations are
  /// capacity-tracked but not backed by host memory and kernel
  /// launches skip numerics, so paper-scale problem shapes can be
  /// *timed* through the exact pipeline code path on a machine that
  /// could never hold them (cost-model extrapolation,
  /// device/cost_model.hpp).
  explicit Device(DeviceSpec spec,
                  util::ThreadPool* pool = &util::ThreadPool::global(),
                  bool phantom = false);

  const DeviceSpec& spec() const { return model_.spec(); }
  const CostModel& cost_model() const { return model_; }
  util::ThreadPool& pool() const { return *pool_; }
  bool phantom() const { return phantom_; }

  index_t memory_used() const { return memory_used_.load(std::memory_order_relaxed); }
  index_t memory_capacity() const { return spec().memory_bytes; }

  /// Validate a launch geometry against device limits; throws
  /// LaunchConfigError on violation.
  void validate_launch(const LaunchGeometry& geom) const;

  // Used by device_vector; throws DeviceOutOfMemory.
  void track_alloc(index_t bytes);
  void track_free(index_t bytes) noexcept;

  /// Attach (or clear, with nullptr) a deterministic fault-injection
  /// plan.  Not synchronized against in-flight work: attach before
  /// traffic starts (or between drained phases), typically after
  /// setup so the plan's counters index request-path work only.
  void set_fault_plan(std::shared_ptr<FaultPlan> plan) {
    fault_plan_ = std::move(plan);
  }
  FaultPlan* fault_plan() const { return fault_plan_.get(); }

 private:
  CostModel model_;
  util::ThreadPool* pool_;
  bool phantom_ = false;
  std::atomic<index_t> memory_used_{0};
  std::shared_ptr<FaultPlan> fault_plan_;
};

}  // namespace fftmv::device
