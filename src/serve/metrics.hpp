// Serving-side observability: counters, latency percentiles, the
// batch-size histogram, deadline/SLO accounting and per-session
// percentiles for the multi-tenant matvec service.
//
// The scheduler records one sample per request (queueing and
// execution wall latency, deadline outcome, owning session) and one
// sample per dispatched batch (size, simulated device seconds); a
// Snapshot is taken under the lock and rendered through util::Table
// so the server and the throughput/SLO benches report the same
// quantities.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <vector>

#include "device/fault_plan.hpp"
#include "serve/error_code.hpp"
#include "util/table.hpp"

namespace fftmv::serve {

/// Order statistics of one latency population (seconds).
struct LatencySummary {
  std::int64_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

/// Per-streaming-session slice of the request population: deadline
/// outcomes plus p50/p95/p99 of total (submit -> fulfilled) latency.
struct SessionSummary {
  std::int64_t requests = 0;
  std::int64_t deadline_missed = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Per-lane utilisation: simulated busy vs wall time of the lane's
/// rank streams, sampled on the owning lane thread at the end of each
/// dispatched batch (the stream clocks are plain doubles, so only the
/// lane thread may read them).  `busy` sums the streams' charged work
/// and `wall` is their makespan, so a lane that ran sharded batches
/// can show utilization() > 1: its ranks' concurrent work is real
/// work that did not extend the lane's clock.
struct LaneSummary {
  std::int64_t batches = 0;
  std::int64_t requests = 0;
  double busy_sim_seconds = 0.0;  ///< sum over the lane's rank streams
  double wall_sim_seconds = 0.0;  ///< max over the lane's rank streams
  /// Simulated collective time charged by this lane's sharded
  /// (rank-group) batches; zero for lanes that only ran single-rank
  /// work.  Accumulates per batch, unlike the cumulative clocks above.
  double comm_sim_seconds = 0.0;
  double utilization() const {
    return wall_sim_seconds > 0.0 ? busy_sim_seconds / wall_sim_seconds : 0.0;
  }
};

struct MetricsSnapshot {
  std::int64_t submitted = 0;
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  std::int64_t batches = 0;
  /// Batches dispatched through a sharded (rank-group > 1) tenant.
  std::int64_t sharded_batches = 0;
  /// Requests that carried a deadline / the subset fulfilled late.
  std::int64_t deadline_total = 0;
  std::int64_t deadline_missed = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t cache_evictions = 0;
  double wall_seconds = 0.0;       ///< serving window (first submit -> snapshot)
  double sim_seconds = 0.0;        ///< total simulated device time across lanes
  /// Simulated collective (broadcast + gather) time charged by sharded
  /// batches across all lanes; zero when no tenant is sharded.
  double comm_sim_seconds = 0.0;
  LatencySummary queue_latency;    ///< submit -> batch execution start
  LatencySummary exec_latency;     ///< execution start -> promise fulfilled
  LatencySummary total_latency;    ///< submit -> promise fulfilled
  std::map<int, std::int64_t> batch_histogram;  ///< batch size -> dispatch count
  /// Streaming sessions seen so far — open ones summarised from their
  /// live reservoir, closed ones frozen at close time (the most
  /// recent ServeMetrics::kMaxRetiredSessions of them).  Key 0 never
  /// appears: one-shot requests are not a session.
  std::map<std::uint64_t, SessionSummary> sessions;
  /// Indexed by lane id; empty until the first record_lane (e.g. a
  /// snapshot taken before any batch dispatched).
  std::vector<LaneSummary> lanes;
  /// Queue-depth gauge sampled at each batch dispatch: the last
  /// observed depth and its high-water mark.
  std::int64_t queue_depth_last = 0;
  std::int64_t queue_depth_peak = 0;
  /// Failed-request breakdown by ErrorCode (non-kOk codes only);
  /// values sum to `failed`.
  std::map<ErrorCode, std::int64_t> errors;
  /// Re-dispatches after a retryable fault: batch-level retries plus
  /// per-request quarantine re-dispatches.
  std::int64_t retries_attempted = 0;
  /// Requests that completed (kOk) after at least one re-dispatch.
  std::int64_t retries_succeeded = 0;
  /// Admitted then displaced by the shed-best-effort policy (kShed).
  std::int64_t shed = 0;
  /// Refused at submission by bounded admission (kQueueFull).
  std::int64_t rejected = 0;
  /// Sharded dispatches aborted by a down rank (each one either
  /// degrades to the single-rank fallback or fails the batch).
  std::int64_t rank_failures = 0;
  /// Batches completed on the degraded single-rank fallback path.
  std::int64_t degraded_batches = 0;
  /// ABFT verification failures observed on dispatch attempts (each
  /// one triggered a re-dispatch through the retry machinery).
  std::int64_t sdc_detected = 0;
  /// Ranges that completed verified-clean after at least one SDC
  /// detection — the corruption was transient and the recompute is
  /// bit-identical to a never-corrupted run.
  std::int64_t sdc_recomputes = 0;
  /// Requests whose FINAL code is kSilentCorruption: verification
  /// kept failing across the whole retry + quarantine budget.  Under
  /// the transient-corruption injection model this marks a
  /// miscalibrated tolerance, hence "false positive".
  std::int64_t sdc_false_positives = 0;
  /// Device-side injection audit (scheduler fills these from the
  /// attached device::FaultPlan at snapshot time): pairs what was
  /// INJECTED against the serve-level outcomes above.
  bool have_fault_stats = false;
  device::FaultStats fault_stats;

  double cache_hit_rate() const {
    const std::int64_t n = cache_hits + cache_misses;
    return n > 0 ? static_cast<double>(cache_hits) / static_cast<double>(n) : 0.0;
  }
  double throughput_rps() const {
    return wall_seconds > 0.0 ? static_cast<double>(completed) / wall_seconds : 0.0;
  }
  double mean_batch_size() const {
    return batches > 0 ? static_cast<double>(completed + failed) / static_cast<double>(batches)
                       : 0.0;
  }
  /// Fraction of deadline-bearing requests fulfilled on time (1 when
  /// no request carried a deadline) — the SLO attainment metric
  /// bench/serve_slo gates.
  double slo_attainment() const {
    return deadline_total > 0
               ? 1.0 - static_cast<double>(deadline_missed) /
                           static_cast<double>(deadline_total)
               : 1.0;
  }

  /// Render the report (throughput, latency percentiles, batch-size
  /// histogram, cache hit rate, per-session percentiles) as
  /// util::Tables.
  void print(std::ostream& os) const;
  util::Table summary_table() const;
  util::Table latency_table() const;
  util::Table batch_table() const;
  util::Table session_table() const;
  util::Table lane_table() const;
  /// Failed-request breakdown by error code (empty table when no
  /// request failed).
  util::Table error_table() const;
  /// Retry/shed/degradation counters as one row.
  util::Table resilience_table() const;
};

/// Thread-safe metrics sink shared by the scheduler's worker lanes.
/// Latency percentiles come from a bounded reservoir (Algorithm R,
/// kMaxSamples entries for the global populations, kMaxSessionSamples
/// per OPEN session — close_session compacts a closed session's
/// reservoir to a final summary and keeps at most kMaxRetiredSessions
/// of those) so a long-lived service grows memory neither per request
/// nor per session ever seen, and never sorts an unbounded history on
/// snapshot().
class ServeMetrics {
 public:
  void record_submit();
  /// Roll back a record_submit whose request was never accepted
  /// (submit raced a shutdown).
  void undo_submit();
  /// One fulfilled (or failed) request.  `error` is kOk for a
  /// success, otherwise the failure code (which also feeds the
  /// shed/rejected counters for those codes); `session` is 0 for
  /// one-shot requests; `had_deadline`/`missed` drive the SLO
  /// counters; `retries` > 0 marks a request whose work was
  /// re-dispatched (a successful one counts as a retry success).
  void record_request(double queue_seconds, double exec_seconds,
                      ErrorCode error, std::uint64_t session = 0,
                      bool had_deadline = false, bool missed = false,
                      int retries = 0);
  /// One re-dispatch of previously-faulted work (batch-level retry or
  /// per-request quarantine re-dispatch).
  void record_retry();
  /// One sharded dispatch aborted by a down rank.
  void record_rank_failure();
  /// One batch completed on the degraded single-rank fallback.
  void record_degraded_batch();
  /// One ABFT verification failure on a dispatch attempt.
  void record_sdc_detection();
  /// One range that completed clean after an SDC detection.
  void record_sdc_recompute();
  /// One request surfaced with kSilentCorruption (budget exhausted).
  void record_sdc_false_positive();
  void record_batch(int size, double sim_seconds);
  void record_cache(std::int64_t hits, std::int64_t misses, std::int64_t evictions);
  /// Per-lane utilisation sample, taken by the OWNING lane thread at
  /// the end of a dispatched batch: `busy_sim_seconds` /
  /// `wall_sim_seconds` are the lane's rank streams' cumulative
  /// busy-sum and makespan (monotone, so they overwrite rather than
  /// accumulate); `requests` is this batch's size and increments.
  void record_lane(int lane, std::int64_t requests, double busy_sim_seconds,
                   double wall_sim_seconds);
  /// One sharded batch's collective bill: accumulates the global and
  /// per-lane comm_sim_seconds and counts the batch as sharded.
  void record_comm(int lane, double sim_seconds);
  /// Queue-depth gauge (pending requests observed at a dispatch).
  void record_queue_depth(std::size_t depth);

  /// Retire a closed session: its sample reservoir (up to
  /// kMaxSessionSamples doubles) is compacted into a final
  /// SessionSummary, so a server that churns sessions does not grow
  /// metrics memory per session ever seen.  Retired summaries keep
  /// appearing in snapshot().sessions; only the most recent
  /// kMaxRetiredSessions closed sessions are retained.
  void close_session(std::uint64_t session);

  MetricsSnapshot snapshot() const;

  static constexpr std::size_t kMaxSamples = 1 << 16;
  static constexpr std::size_t kMaxSessionSamples = 1 << 12;
  static constexpr std::size_t kMaxRetiredSessions = 1 << 10;

 private:
  struct SessionStats {
    std::int64_t requests = 0;
    std::int64_t deadline_missed = 0;
    std::vector<double> total_samples;  ///< bounded reservoir
    std::uint64_t population = 0;       ///< all requests ever recorded
  };

  mutable std::mutex mutex_;
  MetricsSnapshot counters_;
  std::vector<double> queue_samples_;
  std::vector<double> exec_samples_;
  std::vector<double> total_samples_;
  /// Reservoirs of OPEN sessions only; close_session moves a session
  /// here-to-retired so the per-session ~32KB reservoir never
  /// outlives the session it samples.
  std::map<std::uint64_t, SessionStats> session_stats_;
  /// Final summaries of closed sessions, oldest ids dropped beyond
  /// kMaxRetiredSessions.
  std::map<std::uint64_t, SessionSummary> retired_sessions_;
  std::uint64_t sample_count_ = 0;  ///< all requests ever recorded
  std::uint64_t reservoir_rng_ = 0x9e3779b97f4a7c15ULL;
  double first_submit_wall_ = -1.0;
};

}  // namespace fftmv::serve
