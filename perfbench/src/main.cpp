// Two-clock benchmark of the fftmv library: runs one workload for a
// fixed wall-clock window and prints every metric by name and unit,
// the last stdout line being one JSON object
// {correct, attempted, failed, metrics}.
//
//   perfbench --workload map_solve|serve_mixed|serve_skew --seed N
//             --seconds S --trace 0|1 [--trace-dir DIR]
//
// --trace 0 reports the end-to-end metrics of an untraced run; --trace 1
// reports the per-layer metrics of a traced run.  The exit code is 0
// only when every timed op succeeded and matched its oracle.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload map_solve|serve_mixed|serve_skew"
               " --seed N --seconds S --trace 0|1 [--trace-dir DIR]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  std::string workload;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        cfg.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        cfg.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        cfg.trace = value == "1";
      } else if (flag == "--trace-dir") {
        cfg.trace_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!(cfg.seconds > 0.0 && cfg.seconds <= 600.0)) usage("--seconds must be in (0, 600]");

  perfbench::RunResult r;
  try {
    if (workload == "map_solve") {
      r = perfbench::run_map_solve(cfg);
    } else if (workload == "serve_mixed") {
      r = perfbench::run_serve_mixed(cfg);
    } else if (workload == "serve_skew") {
      r = perfbench::run_serve_skew(cfg);
    } else {
      usage("unknown workload '" + workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << workload << " failed: " << e.what() << "\n";
    return 1;
  }
  for (const auto& note : r.notes) std::cout << "# " << note << "\n";
  r.report.print(std::cout);
  const bool correct = r.checks_passed && r.tally.attempted > 0 && r.tally.failed == 0;
  std::cout << r.report.json(correct, r.tally.attempted, r.tally.failed) << std::endl;
  return correct ? 0 : 1;
}
