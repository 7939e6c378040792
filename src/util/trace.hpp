// Request-scoped tracing: a low-overhead, thread-safe span/counter
// recorder exported as Chrome trace-event JSON (loadable in
// chrome://tracing and Perfetto).
//
// Model: one process-global TraceSession holds a bounded ring buffer
// of events PER EMITTING THREAD (no cross-thread contention on the
// hot path — each thread locks only its own buffer, and the session
// lock is taken once per thread, at registration).  The session is
// enabled/disabled at runtime: every emission helper checks
// `enabled()` first, so with tracing compiled in but off a call site
// costs one relaxed atomic load and branch.  Call sites that build
// argument lists should guard with `if (trace::enabled())` themselves
// so the argument strings are never materialised while disabled.
//
// Ring overflow is counted, never silent: when a thread's ring is
// full the oldest event is overwritten and the buffer's dropped
// counter increments; stats() and the exported JSON's otherData both
// carry the totals.
//
// Track model (Chrome pid/tid mapping):
//   pid kHostPid   - host wall-clock tracks; tid = per-thread id
//                    assigned at first emission (set_thread_name
//                    labels the lane workers and clients).  Host
//                    timestamps are microseconds since start().
//   pid kDevicePid - simulated device-clock tracks; tid = the
//                    device::Stream's trace_tid (the scheduler assigns
//                    lane i's first stream tid i; -1 = untracked —
//                    phantom cost-model probes never emit).  Device
//                    timestamps are simulated seconds * 1e6, so
//                    spans on different tracks line up on one clock.
//
// Event phases used: "X" complete spans, "i" instants, "C" counters,
// "b"/"e" nestable async pairs (queue-wait spans overlap freely, so
// they cannot be same-track "X" spans), "M" metadata (track names).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <type_traits>

namespace fftmv::util::trace {

/// Chrome pid of the host wall-clock tracks.
inline constexpr int kHostPid = 1;
/// Chrome pid of the simulated device-clock tracks.
inline constexpr int kDevicePid = 2;

/// One key/value argument attached to an event ("args" in the Chrome
/// schema).  Strings are JSON-escaped at export, not at emission.
struct Arg {
  enum class Kind { kString, kDouble, kInt };

  Arg(const char* k, const char* v) : key(k), str(v), kind(Kind::kString) {}
  Arg(const char* k, std::string v)
      : key(k), str(std::move(v)), kind(Kind::kString) {}
  Arg(const char* k, double v) : key(k), num(v), kind(Kind::kDouble) {}
  template <class T, std::enable_if_t<std::is_integral_v<T>, int> = 0>
  Arg(const char* k, T v)
      : key(k), inum(static_cast<std::int64_t>(v)), kind(Kind::kInt) {}

  std::string key;
  std::string str;
  double num = 0.0;
  std::int64_t inum = 0;
  Kind kind = Kind::kInt;
};

struct Stats {
  std::uint64_t events = 0;   ///< retained (exportable) events
  std::uint64_t dropped = 0;  ///< overwritten by ring overflow
};

inline constexpr std::size_t kDefaultRingCapacity = std::size_t{1} << 16;

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// True while a session is recording.  One relaxed load — the whole
/// cost of an instrumented call site when tracing is off.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Start (or restart) recording: clears previously recorded events,
/// resets drop counters, re-arms every thread ring at
/// `ring_capacity` events and zeroes the host clock.  Thread and
/// device track names survive restarts.
void start(std::size_t ring_capacity = kDefaultRingCapacity);
/// Stop recording.  Recorded events stay exportable until the next
/// start()/clear().
void stop();
/// Drop every recorded event and reset drop counters without
/// changing the enabled state.
void clear();

Stats stats();

/// Microseconds of host wall clock since start() (0 before the first
/// start).
double now_us();

/// Monotone id source for async span pairs.
std::uint64_t next_id();

/// Name the calling thread's host track (e.g. "lane 0").  Works while
/// disabled — names persist across start()/stop() cycles.
void set_thread_name(const std::string& name);
/// Name a simulated device-clock track (e.g. "lane 0").
/// Works while disabled; names persist across start()/stop() cycles.
void set_device_track_name(int tid, const std::string& name);

/// Emit a complete ("X") span on the caller's host track; `ts_us` and
/// `dur_us` are host microseconds (now_us()).
void complete(const char* name, const char* cat, double ts_us, double dur_us,
              std::initializer_list<Arg> args = {});
/// Emit a complete span on a simulated device-clock track;
/// `ts_seconds`/`dur_seconds` are Stream::now() values.
void complete_device(int tid, const char* name, const char* cat,
                     double ts_seconds, double dur_seconds,
                     std::initializer_list<Arg> args = {});
/// Emit an instant ("i") event on the caller's host track.
void instant(const char* name, const char* cat,
             std::initializer_list<Arg> args = {});
/// Emit a counter ("C") sample on the caller's host track.
void counter(const char* name, double value);
/// Emit a nestable async begin/end ("b"/"e") pair: spans that overlap
/// freely and may end on a different thread than they began on
/// (queue-wait spans).  Pairs match on (cat, id).
void async_begin(const char* name, const char* cat, std::uint64_t id,
                 std::initializer_list<Arg> args = {});
void async_end(const char* name, const char* cat, std::uint64_t id);

/// Export every retained event as Chrome trace-event JSON:
///   {"traceEvents": [...], "displayTimeUnit": "ms",
///    "otherData": {"event_count": N, "dropped_events": M}}
/// Metadata events (process/thread names) lead, then each thread's
/// ring in emission order.
void write_json(std::ostream& os);
/// write_json to `path`; false if the file cannot be opened.
bool write_file(const std::string& path);

/// RAII host span: records the start timestamp at construction and
/// emits one complete event at destruction.  `name`/`cat` must
/// outlive the span (string literals).  Construction while disabled
/// costs one branch and emits nothing — a session starting mid-span
/// does not emit a half-measured span either.
class Span {
 public:
  Span(const char* name, const char* cat)
      : name_(name), cat_(cat), active_(enabled()) {
    if (active_) t0_us_ = now_us();
  }
  ~Span() {
    if (active_) complete(name_, cat_, t0_us_, now_us() - t0_us_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  const char* cat_;
  double t0_us_ = 0.0;
  bool active_;
};

}  // namespace fftmv::util::trace
