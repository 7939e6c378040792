// Per-layer probes shared by the workloads: isolated fft and blas calls
// at a workload's shape, process CPU time, and the span file.
#include <sys/resource.h>

#include <filesystem>
#include <system_error>
#include <vector>

#include "blas/sbgemv.hpp"
#include "device/stream.hpp"
#include "fft/plan.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace fftmv;

namespace {

constexpr double kProbeSeconds = 0.2;  // per kernel
constexpr int kMinReps = 5;
// The grouped call: b = 16 right-hand sides in 4 operator groups.
constexpr index_t kGroupedRhs = 16;
constexpr index_t kGroups = 4;

/// Median host milliseconds of `call`, repeated for kProbeSeconds (and
/// at least kMinReps times) after one warm-up call, each under a span.
template <class Fn>
double time_ms(SpanLog& log, const char* name, Fn&& call) {
  call();
  std::vector<double> ms;
  const std::int64_t stop = now_ns() + static_cast<std::int64_t>(kProbeSeconds * 1e9);
  while (static_cast<int>(ms.size()) < kMinReps || now_ns() < stop) {
    const int id = log.begin(name);
    const std::int64_t t0 = now_ns();
    call();
    const std::int64_t t1 = now_ns();
    log.end(id, t1);
    ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
  }
  return median(ms).value;
}

std::vector<cdouble> random_complex(index_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<cdouble> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  return v;
}

}  // namespace

KernelProbe probe_kernels(device::Device& dev, const core::ProblemDims& dims,
                          SpanLog& log) {
  KernelProbe k;
  device::Stream stream(dev);
  const index_t nf = dims.num_frequencies();
  const index_t len = dims.padded_length();

  // Phase-2 shape: n_m real sequences of length 2 N_t.
  fft::BatchedRealFft<double> rfft(len, dims.n_m);
  std::vector<double> signal(static_cast<std::size_t>(dims.n_m * len));
  util::Rng rng(17);
  for (auto& x : signal) x = rng.uniform(-1.0, 1.0);
  std::vector<cdouble> spectrum(static_cast<std::size_t>(dims.n_m * nf));
  k.rfft_ms = time_ms(log, "fft.rfft", [&] {
    rfft.forward_on(stream, signal.data(), len, spectrum.data(), nf);
  });
  k.rfft_gflops = rfft.footprint().flops / (k.rfft_ms * 1e-3) / 1e9;

  // Phase-3 shape: N_t + 1 frequency blocks of n_d x n_m, one RHS.
  const auto a = random_complex(nf * dims.n_d * dims.n_m, 18);
  const auto x = random_complex(kGroupedRhs * nf * dims.n_m, 19);
  std::vector<cdouble> y(static_cast<std::size_t>(kGroupedRhs * nf * dims.n_d));
  blas::SbgemvArgs<cdouble> args;
  args.op = blas::Op::N;
  args.m = dims.n_d;
  args.n = dims.n_m;
  args.a = a.data();
  args.lda = dims.n_d;
  args.stride_a = dims.n_d * dims.n_m;
  args.x = x.data();
  args.stride_x = dims.n_m;
  args.y = y.data();
  args.stride_y = dims.n_d;
  args.batch = nf;
  k.sbgemv_ms = time_ms(log, "blas.sbgemv", [&] { blas::sbgemv(stream, args); });
  const double bytes = static_cast<double>(sizeof(cdouble)) * static_cast<double>(nf) *
                       static_cast<double>(dims.n_d * dims.n_m + dims.n_m + dims.n_d);
  k.sbgemv_gbs = bytes / (k.sbgemv_ms * 1e-3) / 1e9;

  // Grouped: every group reads the same matrix, re-read once per group.
  const std::vector<blas::SbgemvGroup<cdouble>> groups(
      static_cast<std::size_t>(kGroups), {a.data(), kGroupedRhs / kGroups, nullptr});
  blas::SbgemvGroupedArgs<cdouble> grouped;
  grouped.base = args;
  grouped.rhs_stride_x = nf * dims.n_m;
  grouped.rhs_stride_y = nf * dims.n_d;
  grouped.groups = groups;
  k.grouped_ms =
      time_ms(log, "blas.grouped", [&] { blas::sbgemv_grouped(stream, grouped); });
  return k;
}

void set_kernel_metrics(Report& report, const KernelProbe& probe) {
  report.set("fft.rfft_ms", probe.rfft_ms);
  report.set("fft.rfft_gflops_computed", probe.rfft_gflops);
  report.set("blas.sbgemv_ms", probe.sbgemv_ms);
  report.set("blas.sbgemv_gbs_computed", probe.sbgemv_gbs);
  report.set("blas.grouped_ms", probe.grouped_ms);
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

std::string setup_note(const std::vector<double>& setup_s) {
  std::string note = "set-ups (s):";
  for (const double s : setup_s) {
    note += ' ';
    note += std::to_string(s);
  }
  return note;
}

void write_spans(const RunConfig& cfg, const char* workload, const SpanLog& log,
                 RunResult& out) {
  if (!log.enabled() || cfg.trace_dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(cfg.trace_dir, ec);
  const std::string path = cfg.trace_dir + "/" + workload + ".json";
  out.notes.push_back(log.write_json(path) ? "spans written to " + path
                                           : "could not write spans to " + path);
}

}  // namespace perfbench
