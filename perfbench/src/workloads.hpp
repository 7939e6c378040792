// The benchmark's three workloads and the per-layer probes they share.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/problem.hpp"
#include "device/device.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 30.0;  ///< BENCHMARK.json run_seconds
  bool trace = false;
  std::string trace_dir;  ///< where a traced run writes its spans
};

struct RunResult {
  Report report;  ///< end-to-end metrics, or per-layer ones when traced
  OpTally tally;  ///< timed ops attempted / failed
  /// False when any output, timed or not, failed its correctness check.
  bool checks_passed = true;
  std::vector<std::string> notes;  ///< context lines printed above the table
};

RunResult run_map_solve(const RunConfig& cfg);
RunResult run_serve_mixed(const RunConfig& cfg);
RunResult run_serve_skew(const RunConfig& cfg);

/// Host wall time of isolated fft / blas calls at one workload shape.
/// Flops and bytes are computed from the array sizes, not measured.
struct KernelProbe {
  double rfft_ms = 0.0;
  double rfft_gflops = 0.0;
  double sbgemv_ms = 0.0;
  double sbgemv_gbs = 0.0;
  double grouped_ms = 0.0;
};
KernelProbe probe_kernels(fftmv::device::Device& dev,
                          const fftmv::core::ProblemDims& dims, SpanLog& log);
void set_kernel_metrics(Report& report, const KernelProbe& probe);

/// Latency tails are read per chunk of this many samples in send order
/// (chunked_tail): 1000 samples put p99 on 10 samples beyond it.
inline constexpr std::size_t kTailChunk = 1000;

/// A run measures its window in this many equal segments, each on a
/// fresh set-up (threads, device, plans, warm-up), so one set-up's luck —
/// where its threads land, what its allocations share — is one of
/// several samples rather than the whole run.
inline constexpr int kSegments = 5;

/// Each segment sets up this many times in a row, keeping the last, so
/// setup_s is the median of kSegments * kSetupsPerSegment set-ups.
inline constexpr int kSetupsPerSegment = 2;

/// Process CPU seconds (user + system) consumed so far.
double cpu_seconds();

/// The run note listing each set-up's time.
std::string setup_note(const std::vector<double>& setup_s);

/// Write a traced run's spans to <trace_dir>/<workload>.json.
void write_spans(const RunConfig& cfg, const char* workload, const SpanLog& log,
                 RunResult& out);

}  // namespace perfbench
