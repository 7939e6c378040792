// Tests of the benchmark's own helpers: the >= 10-beyond percentile
// rule with its sample counts, error_rate accounting, seeded zipf /
// Poisson generation that repeats exactly for a seed, and span self
// time.  Exit code 0 iff every check passes.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::printf("FAIL line %d: %s\n", line, what);
    ++g_failures;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

void percentile_rule() {
  // 1000 samples: p99 sits at rank 990 with exactly 10 beyond.
  auto p = perfbench::tail(ramp(1000));
  CHECK(p.pct == 99.0 && p.value == 990.0 && p.beyond == 10 && p.samples == 1000);
  // 999 samples: p99 would leave 9 beyond, so the rule falls to p90.
  p = perfbench::tail(ramp(999));
  CHECK(p.pct == 90.0 && p.value == 900.0 && p.beyond == 99 && p.samples == 999);
  // 39 samples: p75 leaves 9 beyond, so the median is the tail.
  p = perfbench::tail(ramp(39));
  CHECK(p.pct == 50.0 && p.value == 20.0 && p.beyond == 19);
  // 15 samples: not even the median has 10 beyond; report the maximum.
  p = perfbench::tail(ramp(15));
  CHECK(p.pct == 100.0 && p.value == 15.0 && p.beyond == 0 && p.samples == 15);
  // Input order does not matter; an empty population has no samples.
  auto reversed = ramp(1000);
  std::reverse(reversed.begin(), reversed.end());
  CHECK(perfbench::tail(reversed).value == 990.0);
  CHECK(perfbench::tail({}).samples == 0);
  CHECK(perfbench::median(ramp(5)).value == 3.0);
}

void chunked_tail_rule() {
  // Three chunks of 1000 whose p99s are 990, 1990 and 2990 (+ a stall of
  // 1e6 in the last chunk, beyond its p99): the median chunk reads 1990.
  auto v = ramp(3000);
  v.back() = 1e6;
  auto p = perfbench::chunked_tail(v, 1000);
  CHECK(p.pct == 99.0 && p.value == 1990.0 && p.samples == 1000 && p.beyond == 10);
  // One stall-ridden chunk moves the whole-run p99 but not the median chunk.
  std::vector<double> stalls = ramp(3000);
  for (std::size_t i = 2960; i < 3000; ++i) stalls[i] = 1e6;
  CHECK(perfbench::tail(stalls).value == 1e6);
  CHECK(perfbench::chunked_tail(stalls, 1000).value == 1990.0);
  // Fewer than two chunks: read whole.
  p = perfbench::chunked_tail(ramp(1500), 1000);
  CHECK(p.value == 1485.0 && p.samples == 1500);
}

void error_accounting() {
  perfbench::OpTally t;
  CHECK(t.error_rate() == 0.0 && t.success_rate() == 0.0);
  for (int i = 0; i < 200; ++i) t.record(i % 50 != 7);  // 4 failures
  CHECK(t.attempted == 200 && t.failed == 4);
  CHECK(t.error_rate() == 0.02 && std::abs(t.success_rate() - 0.98) < 1e-15);
  // A failed op misses every latency limit: it ranks above every
  // finite sample, so 15 failures in 100 put the p90 tail on a miss
  // while the median stays finite.
  std::vector<double> lat;
  for (int i = 0; i < 100; ++i) {
    lat.push_back(perfbench::latency_or_miss(i >= 15, 1e-3 * (i + 1)));
  }
  const auto p = perfbench::tail(lat);
  CHECK(p.pct == 90.0 && std::isinf(p.value));
  CHECK(std::isfinite(perfbench::median(lat).value));
}

void zipf_repeats() {
  const perfbench::Zipf zipf(64, 0.7);
  const auto draw = [&](std::uint64_t seed) {
    fftmv::util::Rng rng(seed);
    std::vector<std::size_t> v;
    for (int i = 0; i < 20000; ++i) v.push_back(zipf(rng));
    return v;
  };
  const auto a = draw(5);
  CHECK(a == draw(5));
  CHECK(a != draw(6));
  std::vector<int> hist(64);
  bool in_range = true;
  for (const std::size_t k : a) {
    in_range = in_range && k < 64;
    if (k < 64) ++hist[k];
  }
  CHECK(in_range);
  CHECK(std::abs(hist[0] / 20000.0 - zipf.pmf(0)) < 0.01);
  CHECK(hist[0] > hist[10] && hist[10] > hist[63]);
  double total = 0.0;
  for (std::size_t k = 0; k < 64; ++k) total += zipf.pmf(k);
  CHECK(std::abs(total - 1.0) < 1e-12);
}

void poisson_repeats() {
  const auto gen = [](std::uint64_t seed) {
    fftmv::util::Rng rng(seed);
    return perfbench::poisson_arrivals(rng, 1000.0, 50.0);
  };
  const auto a = gen(9);
  CHECK(a == gen(9));
  CHECK(a != gen(10));
  CHECK(!a.empty() && a.back() < 50.0);
  CHECK(std::is_sorted(a.begin(), a.end()));
  // ~50000 arrivals expected; 2% is more than four standard deviations.
  CHECK(std::abs(static_cast<double>(a.size()) / 50000.0 - 1.0) < 0.02);
  CHECK(perfbench::mix_seed(1, 2) != perfbench::mix_seed(2, 1));
}

void span_self_time() {
  perfbench::SpanLog log(true);
  const int root = log.begin("root", -1, 0, 0);
  log.end(log.begin("child", root, 0, 10), 30);
  log.end(log.begin("child", root, 0, 20), 40);   // overlaps the first
  log.end(log.begin("child", root, 0, 90), 120);  // runs past the parent
  log.end(root, 100);
  const auto totals = log.totals();
  // Children cover [10, 40] and [90, 100] of the parent's 100 ns.
  CHECK(totals.at("root").count == 1);
  CHECK(std::abs(totals.at("root").self_s - 60e-9) < 1e-15);
  CHECK(totals.at("child").count == 3);
  CHECK(std::abs(totals.at("child").total_s - 70e-9) < 1e-15);
  perfbench::SpanLog off(false);
  CHECK(off.begin("x") == -1 && off.totals().empty());
}

}  // namespace

int main() {
  percentile_rule();
  chunked_tail_rule();
  error_accounting();
  zipf_repeats();
  poisson_repeats();
  span_self_time();
  std::printf("perfbench selftest: %d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
