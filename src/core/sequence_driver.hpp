// Matvec sequencing with host-I/O overlap (paper §4.2.2, closing
// paragraph): "when computing many matvecs in sequence and saving the
// results to file, the matvec calls can be overlapped with the host
// routines that generate input vectors and save output vectors.  This
// process is used when computing dense operators ..."
//
// The driver runs a sequence of matvecs whose inputs come from a
// host-side generator and whose outputs go to a host-side consumer.
// Host work executes for real; its wall-clock cost and the matvecs'
// simulated device cost are combined under two schedules:
//   serialized — generate, apply, consume, one after another;
//   overlapped — double-buffered software pipeline where step i's
//     device work hides step i+1's generation and step i-1's
//     consumption, so the sequence cost is max(device, host) per step
//     plus pipeline fill/drain.
// The overlapped schedule is replayed on the device layer's
// Event/Stream::wait machinery — the same inter-stream dependency
// model a sharded apply's rank syncs use — with one clock for
// the host and one for the device: the device waits on each step's
// generation event (and the consumption that frees its double
// buffer), the host waits on the device before consuming.  The
// bespoke closed-form this replaced (a per-step
// max(device, gen + consume) barrier recurrence) is kept as
// `overlapped_closed_s`; event ordering relaxes the closed form's
// artificial step barrier, so the two agree within pipeline-slack
// tolerance and the harness cross-checks them.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "core/block_toeplitz.hpp"
#include "core/matvec_plan.hpp"
#include "util/timer.hpp"

namespace fftmv::core {

struct SequenceReport {
  index_t applies = 0;
  double device_s = 0.0;       ///< total simulated matvec time
  double host_s = 0.0;         ///< total measured host generate+consume time
  double serialized_s = 0.0;   ///< schedule without overlap
  double overlapped_s = 0.0;   ///< double-buffered schedule (event-ordered)
  /// The pre-event-machinery closed form (per-step barrier
  /// recurrence), kept as a cross-check: overlapped_s relaxes its
  /// artificial step barrier, so overlapped_s <= overlapped_closed_s
  /// and the two stay within pipeline-slack tolerance.
  double overlapped_closed_s = 0.0;

  double overlap_speedup() const {
    return overlapped_s > 0.0 ? serialized_s / overlapped_s : 1.0;
  }
};

class MatvecSequenceDriver {
 public:
  /// generate(i, m) fills the i-th input; consume(i, d) receives the
  /// i-th output.  Both run on the host thread.
  using Generator = std::function<void(index_t, std::span<double>)>;
  using Consumer = std::function<void(index_t, std::span<const double>)>;

  MatvecSequenceDriver(FftMatvecPlan& plan, const BlockToeplitzOperator& op)
      : plan_(&plan), op_(&op) {}

  /// Run `count` forward matvecs under the given precision config and
  /// report both schedules.  Outputs are produced in order.
  SequenceReport run_forward(index_t count, const Generator& generate,
                             const Consumer& consume,
                             const precision::PrecisionConfig& config) {
    const auto& dims = plan_->dims();
    const index_t in_len = dims.n_t() * dims.n_m_local;
    const index_t out_len = dims.n_t() * dims.n_d_local;
    std::vector<double> in(static_cast<std::size_t>(in_len));
    std::vector<double> out(static_cast<std::size_t>(out_len));

    SequenceReport report;
    report.applies = count;
    std::vector<double> dev_t(static_cast<std::size_t>(count));
    std::vector<double> gen_t(static_cast<std::size_t>(count));
    std::vector<double> con_t(static_cast<std::size_t>(count));

    for (index_t i = 0; i < count; ++i) {
      util::WallTimer host_timer;
      generate(i, in);
      gen_t[static_cast<std::size_t>(i)] = host_timer.seconds();

      const double dev0 = plan_->stream().now();
      plan_->forward(*op_, in, out, config);
      dev_t[static_cast<std::size_t>(i)] = plan_->stream().now() - dev0;

      host_timer.restart();
      consume(i, out);
      con_t[static_cast<std::size_t>(i)] = host_timer.seconds();

      report.device_s += dev_t[static_cast<std::size_t>(i)];
      report.host_s += gen_t[static_cast<std::size_t>(i)] +
                       con_t[static_cast<std::size_t>(i)];
    }

    // Serialized: straight sum.  Overlapped: the two-stage
    // (host/device) double-buffered software pipeline — while the
    // device runs step i, the host consumes step i-1's output and
    // generates step i+1's input; only the first generation and the
    // last consumption cannot be hidden.  Replayed on the device
    // layer's Event/Stream::wait dependency model (one clock per
    // resource), with the old closed-form barrier recurrence kept as
    // a cross-check.  By max(a,b) <= a + b neither schedule exceeds
    // the serialized one.
    report.serialized_s = report.device_s + report.host_s;
    if (count > 0) {
      device::Device& dev = plan_->stream().device();
      device::Stream host_clock(dev), device_clock(dev);
      std::vector<device::Event> gen_done(static_cast<std::size_t>(count));
      std::vector<device::Event> dev_done(static_cast<std::size_t>(count));
      std::vector<device::Event> con_done(static_cast<std::size_t>(count));
      for (index_t i = 0; i < count; ++i) {
        const auto s = static_cast<std::size_t>(i);
        if (i == 0) {
          host_clock.advance(gen_t[0]);
          gen_done[0].record(host_clock);
        }
        // Device step i: needs input i generated and, with two input
        // and two output buffers, step i-2's buffers recycled.
        device_clock.wait(gen_done[s]);
        if (i >= 2) device_clock.wait(con_done[s - 2]);
        device_clock.advance(dev_t[s]);
        dev_done[s].record(device_clock);
        // Host slot against device step i: generate step i+1's input
        // (buffer freed by the device's wait above), then consume
        // step i's output once the device delivers it.
        if (i + 1 < count) {
          host_clock.advance(gen_t[s + 1]);
          gen_done[s + 1].record(host_clock);
        }
        host_clock.wait(dev_done[s]);
        host_clock.advance(con_t[s]);
        con_done[s].record(host_clock);
      }
      report.overlapped_s =
          device::group_timing({&host_clock, &device_clock}).makespan;

      double t = gen_t[0];
      for (index_t i = 0; i < count; ++i) {
        double host_slot = 0.0;
        if (i + 1 < count) host_slot += gen_t[static_cast<std::size_t>(i + 1)];
        if (i > 0) host_slot += con_t[static_cast<std::size_t>(i - 1)];
        t += std::max(dev_t[static_cast<std::size_t>(i)], host_slot);
      }
      t += con_t[static_cast<std::size_t>(count - 1)];
      report.overlapped_closed_s = t;
    }
    return report;
  }

 private:
  FftMatvecPlan* plan_;
  const BlockToeplitzOperator* op_;
};

}  // namespace fftmv::core
