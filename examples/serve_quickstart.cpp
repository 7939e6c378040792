// Serving quickstart: stand up the multi-tenant matvec service,
// register two tenants, submit a burst of mixed forward/adjoint
// requests, stream ordered applies through a deadline-tagged
// StreamSession, and read the metrics report — the 60-second tour of
// src/serve (see the ROADMAP "Serving" section for the model).
//
//   serve_quickstart [-requests 64] [-streams 2] [-batch 4]
#include <future>
#include <iostream>
#include <vector>

#include "core/synthetic.hpp"
#include "example_common.hpp"
#include "serve/scheduler.hpp"
#include "util/cli.hpp"
#include "util/trace.hpp"

using namespace fftmv;

int main(int argc, char** argv) {
  util::CliParser cli(argc, argv);
  cli.check_known({"requests", "streams", "batch"});
  const index_t requests = cli.get_int("requests", 64);

  // 1. Scheduler: worker lanes (one simulated stream each), a plan
  //    cache, and a request batcher with a short linger window.
  serve::ServeOptions opts;
  opts.num_streams = static_cast<int>(cli.get_int("streams", 2));
  opts.max_batch = static_cast<int>(cli.get_int("batch", 4));
  opts.linger_seconds = 200e-6;
  serve::AsyncScheduler scheduler(examples::example_device(), opts);

  // 2. Tenants register their operator once; setup (the batched FFT
  //    of the first block column) never recurs on the request path.
  const core::ProblemDims dims_a{64, 6, 32}, dims_b{96, 4, 48};
  const auto local_a = core::LocalDims::single_rank(dims_a);
  const auto local_b = core::LocalDims::single_rank(dims_b);
  const auto tenant_a = scheduler.add_tenant(dims_a, core::make_first_block_col(local_a, 1));
  const auto tenant_b = scheduler.add_tenant(dims_b, core::make_first_block_col(local_b, 2));
  std::cout << "registered tenants " << tenant_a << " (64x6x32) and " << tenant_b
            << " (96x4x48)\n";

  // 3. Submit a mixed burst; every call returns a future immediately.
  //    serve::Request is the canonical submit form (QoS and future
  //    request fields live on the struct); the positional overload
  //    used for tenant_a is shorthand for the same thing.
  const auto m_a = core::make_input_vector(dims_a.n_t * dims_a.n_m, 3);
  const auto m_b = core::make_input_vector(dims_b.n_t * dims_b.n_m, 4);
  const auto d_b = core::make_input_vector(dims_b.n_t * dims_b.n_d, 5);
  const auto mixed = precision::PrecisionConfig::parse("dssdd");
  std::vector<std::future<serve::MatvecResult>> futures;
  for (index_t r = 0; r < requests; ++r) {
    switch (r % 3) {
      case 0:
        futures.push_back(scheduler.submit(tenant_a, core::ApplyDirection::kForward,
                                           precision::PrecisionConfig{}, m_a));
        break;
      case 1:
        futures.push_back(scheduler.submit(serve::Request{
            .tenant = tenant_b, .config = mixed, .input = m_b, .qos = {}}));
        break;
      default:
        futures.push_back(scheduler.submit(
            serve::Request{.tenant = tenant_b,
                           .direction = core::ApplyDirection::kAdjoint,
                           .config = mixed,
                           .input = d_b,
                           .qos = {}}));
    }
  }

  // 4. Futures carry the output plus per-request serving telemetry.
  const auto first = futures.front().get();
  std::cout << "first request: batch of " << first.batch_size << " on lane "
            << first.lane << ", queued "
            << util::Table::fmt(first.queue_seconds * 1e3, 3) << " ms, executed "
            << util::Table::fmt(first.exec_seconds * 1e3, 3) << " ms\n\n";
  scheduler.drain();
  for (auto& f : futures) {
    if (f.valid()) f.get();
  }

  // 5. Streaming session: an ordered stream of applies for one
  //    (tenant, direction, config), with the plan pinned hot and a
  //    10 ms deadline + WFQ weight 2 on every submit.  close() (or
  //    RAII) drains the stream and releases the pin.
  serve::StreamSession session = scheduler.open_stream(
      tenant_a, core::ApplyDirection::kForward, precision::PrecisionConfig{},
      serve::StreamQoS{.deadline_seconds = 10e-3, .weight = 2.0});
  const auto session_id = session.id();
  std::vector<std::future<serve::MatvecResult>> stream_futures;
  for (int r = 0; r < 8; ++r) stream_futures.push_back(session.submit(m_a));
  session.close();
  int missed = 0;
  for (auto& f : stream_futures) missed += f.get().deadline_missed ? 1 : 0;
  std::cout << "session " << session_id << ": 8 ordered applies, " << missed
            << " deadline misses\n\n";

  // 6. The service-side report (includes the per-lane utilisation and
  //    per-session tables).
  scheduler.metrics().print(std::cout);

  // 7. Request-scoped tracing: wrap any serving window in a
  //    util::trace session and load the JSON in chrome://tracing or
  //    Perfetto — queue-wait spans, per-batch dispatch spans, and the
  //    per-phase device-clock spans of each lane's stream.
  util::trace::start();
  auto traced = scheduler.submit(tenant_a, core::ApplyDirection::kForward,
                                 precision::PrecisionConfig{}, m_a);
  traced.get();
  util::trace::stop();
  if (util::trace::write_file("serve_quickstart_trace.json")) {
    std::cout << "\nwrote serve_quickstart_trace.json ("
              << util::trace::stats().events << " events)\n";
  }
  return 0;
}
