#!/usr/bin/env python3
"""Build and run the fftmv two-clock benchmark.

One run, the form BENCHMARK.json's command takes:

    python3 perfbench/run.py --workload map_solve --seed 1 --seconds 30 --trace 0

builds perfbench/ together with the library sources beside it into
.bench_build/, runs one workload and prints its metrics; the last stdout
line is the JSON result.  --trace 0 reports the end-to-end metrics of an
untraced run, --trace 1 the per-layer metrics of a separate traced run.
perfbench/METRICS.md defines every metric, its clock and its bound.

Helpers:

    python3 perfbench/run.py --self-test
        runs the tests of the benchmark's own helpers.
    python3 perfbench/run.py --steadiness [--runs 10] [--seed 1]
                             [--workloads a,b] [--seconds S] [--trace 0|1]
        runs each workload --runs times on consecutive seeds and prints,
        per metric, the median, the quartiles and the spread
        (IQR / median) against the metric's bound; then reruns the first
        seed and checks that the exact metrics read the same.  Exits 1 when a
        run fails, a spread exceeds its bound or an exact metric differs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ("map_solve", "serve_mixed", "serve_skew")
# A run takes its --seconds plus its set-ups, warm-up and oracle, which
# take up to about 20 s on a 4-vCPU host; the rest of the margin is for a slow host.
RUN_MARGIN_S = 90
DEFAULT_SECONDS = 30.0  # BENCHMARK.json run_seconds
# Metrics that must read identically on two runs of one seed, keyed by
# (workload, trace): simulated time, counts, device memory and the error
# of a deterministic solve do not depend on the host's speed.
EXACT = {
    ("map_solve", 0): {"sim_us_per_op", "rel_err", "device_mem_mb"},
    ("map_solve", 1): {"inverse.cg_iterations", "inverse.matvecs_per_solve",
                       "device.launches_per_op", "device.allocs_per_op"},
    ("serve_mixed", 0): {"device_mem_mb"},
    ("serve_skew", 0): {"device_mem_mb"},
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then bring the build up to date; exit 2 on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                   "--target", "perfbench", "perfbench_selftest"])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        except OSError as e:
            rc = f"could not start: {e}"
        if rc != 0:
            log(f"perfbench: build step failed ({rc}): {' '.join(cmd)}")
            sys.exit(2)


def run_once(workload, seed, seconds, trace):
    """Run one workload; returns (exit code, stdout, parsed JSON or None)."""
    cmd = [os.path.join(BUILD_DIR, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--trace-dir", TRACE_DIR]
    timeout = seconds + RUN_MARGIN_S
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish within {timeout} s")
        return 1, "", None
    result = None
    lines = proc.stdout.strip().splitlines()
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, proc.stdout, result


def load_bounds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def steadiness(args):
    bounds = load_bounds()
    bad = 0
    for wl in args.workloads.split(","):
        runs = {}
        for seed in range(args.seed, args.seed + args.runs):
            rc, _, res = run_once(wl, seed, args.seconds, args.trace)
            if rc != 0 or res is None or not res.get("correct"):
                log(f"{wl} seed {seed}: run failed (exit {rc})")
                bad += 1
                continue
            runs[seed] = res["metrics"]
        if not runs:
            continue
        print(f"\n{wl}: {len(runs)} runs, seeds {args.seed}.."
              f"{args.seed + args.runs - 1}, {args.seconds} s, trace {args.trace}")
        print(f"{'metric':34}{'unit':>9}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>7}")
        first = next(iter(runs.values()))
        for name, m in first.items():
            vals = [r[name]["value"] for r in runs.values()]
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0],) * 3)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  > bound/3"
                if spread > bound:
                    flag = "  > bound"
                    bad += 1
            print(f"{name:34}{m['unit']:>9}{med:14.6g}{q1:14.6g}{q3:14.6g}"
                  f"{spread:9.4f}{bound if bound is not None else '':>7}{flag}")
            if flag:
                print(f"{'':34}by seed: " + " ".join(f"{v:.4g}" for v in vals))
        exact = sorted(EXACT.get((wl, args.trace), set()) & set(first))
        for name in exact:
            vals = {r[name]["value"] for r in runs.values()}
            print(f"exact {name}: " + (f"{vals.pop()!r} on every seed" if len(vals) == 1
                                       else f"{len(vals)} values over the seeds"))
        if exact and args.seed in runs:
            rc, _, again = run_once(wl, args.seed, args.seconds, args.trace)
            if rc != 0 or again is None:
                log(f"{wl}: repeat of seed {args.seed} failed (exit {rc})")
                bad += 1
                continue
            for name in exact:
                a = runs[args.seed][name]["value"]
                b = again["metrics"][name]["value"]
                print(f"exact {name}, seed {args.seed} twice: {a!r} then {b!r} -> "
                      f"{'identical' if a == b else 'DIFFERENT'}")
                bad += a != b
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--steadiness", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args()
    if not (args.self_test or args.steadiness or args.workload):
        ap.error("one of --workload, --self-test or --steadiness is required")
    if not 0 < args.seconds <= 600:
        ap.error("--seconds must be in (0, 600]")
    for wl in args.workloads.split(","):
        if wl not in WORKLOADS:
            ap.error(f"unknown workload {wl}")

    build()
    if args.self_test:
        return subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")]).returncode
    if args.steadiness:
        return steadiness(args)
    rc, out, _ = run_once(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    return rc


if __name__ == "__main__":
    sys.exit(main())
