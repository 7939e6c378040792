// Named metrics with units, printed as a table and as the one-line JSON
// result the benchmark ends with.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Shortest exact decimal form of a double; JSON null when not finite.
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// An ordered metric set whose names are fixed up front: set() on an
/// undeclared name throws, so a typo cannot print a metric the
/// benchmark does not declare.  Metrics a workload never sets read 0,
/// meaning the layer did no work on that workload.
class Report {
 public:
  Report() = default;
  explicit Report(std::vector<Metric> declared) : metrics_(std::move(declared)) {}

  void set(const std::string& name, double value) {
    for (Metric& m : metrics_) {
      if (m.name == name) {
        m.value = value;
        return;
      }
    }
    throw std::logic_error("Report::set: undeclared metric " + name);
  }

  const std::vector<Metric>& metrics() const { return metrics_; }

  void print(std::ostream& os) const {
    for (const Metric& m : metrics_) {
      os << std::left << std::setw(34) << m.name << std::right << std::setw(16)
         << std::setprecision(6) << m.value << "  " << m.unit << "\n";
    }
  }

  std::string json(bool correct, std::int64_t attempted, std::int64_t failed) const {
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
         << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    }
    os << "}}";
    return os.str();
  }

 private:
  std::vector<Metric> metrics_;
};

/// What a user of the system sees; every workload reports all of them.
inline Report end_to_end_report() {
  return Report({{"setup_s", "s"},
                 {"sim_us_per_op", "sim_us"},
                 {"device_mem_mb", "MB"},
                 {"rel_err", "ratio"},
                 {"success_rate", "ratio"}});
}

/// Single-layer metrics of the traced run, named <layer>.<metric>, plus
/// the end-to-end wall figures that move too much with a shared host's
/// speed to gate (e2e.*), read from the run's untraced part.
inline Report per_layer_report() {
  return Report({{"e2e.latency_p50_ms", "ms"},
                 {"e2e.latency_tail_ms", "ms"},
                 {"e2e.throughput_ops_s", "1/s"},
                 {"error_rate", "ratio"},
                 {"trace.overhead_pct", "%"},
                 {"inverse.cg_iterations", "count"},
                 {"inverse.matvecs_per_solve", "count"},
                 {"inverse.self_ms_per_solve", "ms"},
                 {"core.forward_ms", "ms"},
                 {"core.adjoint_ms", "ms"},
                 {"core.pad_sim_us", "sim_us"},
                 {"core.fft_sim_us", "sim_us"},
                 {"core.sbgemv_sim_us", "sim_us"},
                 {"core.ifft_sim_us", "sim_us"},
                 {"core.unpad_sim_us", "sim_us"},
                 {"core.overlap_ratio", "ratio"},
                 {"fft.rfft_ms", "ms"},
                 {"fft.rfft_gflops_computed", "GFLOP/s"},
                 {"blas.sbgemv_ms", "ms"},
                 {"blas.sbgemv_gbs_computed", "GB/s"},
                 {"blas.grouped_ms", "ms"},
                 {"device.launches_per_op", "count"},
                 {"device.allocs_per_op", "count"},
                 {"util.cpu_ms_per_op", "ms"},
                 {"util.cpu_over_wall", "ratio"},
                 {"serve.submit_us_p50", "us"},
                 {"serve.queue_ms_p50", "ms"},
                 {"serve.queue_ms_p99", "ms"},
                 {"serve.exec_ms_p50", "ms"},
                 {"serve.exec_ms_p99", "ms"},
                 {"serve.fulfil_ms_p50", "ms"},
                 {"serve.batch_mean", "count"},
                 {"serve.batches", "count"},
                 {"serve.lane_utilization", "ratio"},
                 {"serve.cache_hit_rate", "ratio"},
                 {"serve.queue_depth_peak", "count"},
                 {"serve.deadline_miss_rate", "ratio"},
                 {"serve.retries", "count"},
                 {"comm.sharded_batches", "count"},
                 {"comm.sim_us_per_sharded_batch", "sim_us"},
                 {"load.lag_p99_ms", "ms"}});
}

}  // namespace perfbench
