// Benchmark-side spans around each call the benchmark makes into the
// program: name, start, end, parent span and op id.  Spans stay in
// memory and are written once, at exit, as Chrome trace-event JSON
// (loadable in Perfetto).  A layer's self time is its span's duration
// minus the part of that interval its child spans cover.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  ///< -1 while open
  int parent = -1;           ///< id of the enclosing span, -1 for a root
  std::int64_t op = -1;      ///< the solve or request the span belongs to
};

/// Per-name totals over a span log.
struct SpanTotals {
  std::int64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

/// Thread-safe in-memory span log.  A disabled log records nothing and
/// hands out id -1, which every other call ignores.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Open a span; returns its id (-1 when disabled).
  int begin(const char* name, int parent = -1, std::int64_t op = -1,
            std::int64_t start_ns = now_ns()) {
    if (!enabled_) return -1;
    std::lock_guard lock(mutex_);
    spans_.push_back({name, start_ns, -1, parent, op});
    return static_cast<int>(spans_.size()) - 1;
  }

  void end(int id, std::int64_t end_ns = now_ns()) {
    if (id < 0) return;
    std::lock_guard lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end_ns = end_ns;
  }

  std::map<std::string, SpanTotals> totals() const {
    std::lock_guard lock(mutex_);
    std::vector<std::vector<std::size_t>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent >= 0) {
        children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
      }
    }
    std::map<std::string, SpanTotals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.end_ns < s.start_ns) continue;  // never closed
      std::vector<std::pair<std::int64_t, std::int64_t>> cover;
      for (const std::size_t c : children[i]) {
        const std::int64_t a = std::max(spans_[c].start_ns, s.start_ns);
        const std::int64_t b = std::min(spans_[c].end_ns, s.end_ns);
        if (b > a) cover.emplace_back(a, b);
      }
      std::sort(cover.begin(), cover.end());
      std::int64_t covered = 0;
      std::int64_t reach = s.start_ns;
      for (const auto& [a, b] : cover) {
        const std::int64_t from = std::max(a, reach);
        if (b > from) {
          covered += b - from;
          reach = b;
        }
      }
      SpanTotals& t = out[s.name];
      ++t.count;
      t.total_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      t.self_s += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
    }
    return out;
  }

  /// Chrome trace-event JSON, times in microseconds from the earliest
  /// span; one track per op id (mod 32) so concurrent requests do not
  /// stack on one row.
  bool write_json(const std::string& path) const {
    std::lock_guard lock(mutex_);
    std::ofstream os(path);
    if (!os) return false;
    std::int64_t t0 = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (i == 0 || spans_[i].start_ns < t0) t0 = spans_[i].start_ns;
    }
    os << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
    bool first = true;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.end_ns < s.start_ns) continue;
      os << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << (s.op >= 0 ? s.op % 32 + 1 : 0)
         << ",\"ts\":" << static_cast<double>(s.start_ns - t0) * 1e-3
         << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
         << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
         << ",\"op\":" << s.op << "}}";
      first = false;
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
  }

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
