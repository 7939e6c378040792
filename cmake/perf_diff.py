#!/usr/bin/env python3
"""CI perf-regression gate over the BENCH_*.json artifacts.

Compares the fresh artifacts of this run against the previous
successful run's downloaded artifacts and fails (exit 1) on a >15%
throughput regression in any gated metric.  Stdlib only.

Gated metrics (higher is better):
  serve_throughput  table "throughput", row "served (batch+cache)",
                    column "speedup sim" — the serving layer's edge
                    over the naive per-request loop on simulated time
                    — and table "cross-tenant skew", row "grouped
                    cross-tenant", column "vs same-tenant" — grouped
                    shape-keyed batching's edge over same-tenant-only
                    coalescing on the skewed many-tenant workload.
                    Batch composition retains some wall-clock
                    sensitivity, so these gates carry a wider 30%
                    threshold.
  fig1_sbgemv       every panel row's "optimized GB/s" — the paper's
                    optimized SBGEMV kernel bandwidth (deterministic
                    cost-model output).
  batch_sweep       table "measured ddddd", every row's
                    "vs sequential" — the multi-RHS apply_batch edge
                    over sequential applies — and table "cross-tenant
                    grouped ddddd", every row's "grouped vs
                    per-tenant" — the grouped multi-operator dispatch
                    edge over per-tenant dispatch of the same mix
                    (both deterministic).
  serve_slo         table "slo attainment", row "deadline-aware
                    edf+wfq", column "SLO attainment" — the fraction
                    of deadline-bearing requests the EDF+WFQ scheduler
                    fulfils on time on the contended two-class
                    streaming workload.  Deadlines are wall-clock, so
                    attainment keeps real run-to-run sensitivity even
                    after the harness's calibration and best-of-two
                    selection; the gate carries a wide 35% threshold
                    (the harness itself hard-fails unless aware beats
                    blind by >= 0.05).
  serve_scaling     table "batched vs per-request comm", every row's
                    "comm ratio" — batch-fused collectives' edge over
                    per-request collectives per rank-group width —
                    and every row's "vs per-request" — the same edge
                    on end-to-end modelled makespan (deterministic
                    cost-model output; the harness additionally
                    hard-fails below 4x comm / 1.2x e2e at R=4).
  serve_faults      table "resilience", row "retry success rate",
                    column "value" — the fraction of fault-hit work
                    that ultimately completes under the deterministic
                    fault storm — and table "overload", row
                    "shed-best-effort", column "SLO attainment" — the
                    tight class's attainment when best-effort load is
                    displaced at the admission bound.  Both sit near
                    1.0 by construction (the harness hard-fails at
                    0.95 completion / 0.9 attainment) but retain
                    wall-clock sensitivity through batch composition
                    and deadline timing, so the gates carry the wide
                    35% threshold.  Also table "sdc", row "sdc
                    detection rate", column "value" — ABFT checksum
                    detections over injected buffer faults under the
                    seeded corruption storm (1.0 when every flip is
                    caught; the harness hard-fails below 0.99) — and
                    row "verify overhead", column "value" — the
                    higher-is-better ratio t_off/t_on of the modelled
                    batch makespan without and with checksum
                    verification (~0.95; the harness hard-fails when
                    the overhead exceeds 10%).  Both carry the wide
                    35% threshold: batch composition keeps mild
                    run-to-run sensitivity in the storm counters.

Rows are matched by (bench, table, first cell).  A gated row present
in the baseline but missing from the current run FAILS the gate (a
renamed metric must not silently un-gate itself), as does a gated
bench that matches zero metrics against an existing baseline; rows
new in the current run are informational.  A gated bench whose
baseline file is missing runs in report-only mode for that bench
(first-run bootstrap).  --report-only never exits nonzero.

After the gates, a report-only pass compares every table cell of the
deterministic benches (DETERMINISTIC below: pure simulated-clock /
cost-model output, identical on every run of the same code) against
the baseline, prints how many cells differ and lists each one, so a
PR shows whether any simulated-clock row moved.  It never affects the
exit status.

Usage:
  perf_diff.py --current DIR --baseline DIR [--threshold 0.15]
               [--report-only]
"""
import argparse
import json
import os
import sys

GATES = [
    # (bench, table match ('*' = every table), row match ('*' = every
    #  row), column header, threshold override or None)
    ("serve_throughput", "throughput", "served (batch+cache)", "speedup sim",
     0.30),
    ("serve_throughput", "cross-tenant skew", "grouped cross-tenant",
     "vs same-tenant", 0.30),
    ("fig1_sbgemv", "*", "*", "optimized GB/s", None),
    ("batch_sweep", "measured ddddd", "*", "vs sequential", None),
    ("batch_sweep", "cross-tenant grouped ddddd", "*", "grouped vs per-tenant",
     None),
    ("serve_slo", "slo attainment", "deadline-aware edf+wfq",
     "SLO attainment", 0.35),
    ("serve_scaling", "batched vs per-request comm", "*", "comm ratio", None),
    ("serve_scaling", "batched vs per-request comm", "*", "vs per-request",
     None),
    ("serve_faults", "resilience", "retry success rate", "value", 0.35),
    ("serve_faults", "overload", "shed-best-effort", "SLO attainment", 0.35),
    ("serve_faults", "sdc", "sdc detection rate", "value", 0.35),
    ("serve_faults", "sdc", "verify overhead", "value", 0.35),
]


# Benches whose tables are deterministic cost-model output (the
# host-clock ablation_dense_vs_fft / ablation_overlap columns and the
# wall-clock serve benches are excluded).  CI runs the first nine in
# full and the last two with --quick.
DETERMINISTIC = [
    "fig1_sbgemv", "fig2_breakdown", "fig3_mixed", "fig4_scaling",
    "ablation_dispatch", "ablation_fp16", "ablation_fusion",
    "ablation_partition", "pareto_sweep", "batch_sweep", "serve_scaling",
]


def parse_number(cell):
    """Parse a table cell like '2.25x', '63.3%', '123', '1.2e-03'."""
    s = cell.strip().rstrip("x%").strip()
    try:
        return float(s)
    except ValueError:
        return None


def load_artifact(directory, bench):
    path = os.path.join(directory, f"BENCH_{bench}.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def indexed_rows(artifact, table_match, column):
    """Yield ((table, row_key), value) for every gated cell."""
    out = {}
    for table in artifact.get("tables", []):
        name = table.get("name", "")
        if table_match != "*" and name != table_match:
            continue
        headers = table.get("headers", [])
        if column not in headers:
            continue
        col = headers.index(column)
        for row in table.get("rows", []):
            if not row:
                continue
            value = parse_number(row[col])
            if value is not None:
                out[(name, row[0])] = value
    return out


def cell_map(artifact):
    """{(table index, row index, column index): (label, cell)}."""
    out = {}
    for t, table in enumerate(artifact.get("tables", [])):
        headers = table.get("headers", [])
        for r, row in enumerate(table.get("rows", [])):
            for c, cell in enumerate(row):
                header = headers[c] if c < len(headers) else f"#{c}"
                label = "{}/{} [{}]".format(table.get("name", ""), row[0], header)
                out[(t, r, c)] = (label, cell)
    return out


def changed_cells(baseline, current):
    """[(label, baseline cell, current cell)] for every differing cell;
    a cell present on one side only shows as "(absent)" on the other."""
    base, cur = cell_map(baseline), cell_map(current)
    changed = []
    for key in sorted(set(base) | set(cur)):
        b, c = base.get(key), cur.get(key)
        if b is not None and c is not None and b[1] == c[1]:
            continue
        changed.append(((c or b)[0], b[1] if b else "(absent)",
                        c[1] if c else "(absent)"))
    return changed


def report_deterministic_cells(current_dir, baseline_dir):
    print("perf_diff: deterministic table cells vs baseline (report-only)")
    total = 0
    for bench in DETERMINISTIC:
        current = load_artifact(current_dir, bench)
        baseline = load_artifact(baseline_dir, bench)
        if current is None or baseline is None:
            side = "current" if current is None else "baseline"
            print(f"  {bench}: no {side} artifact — skipped")
            continue
        changed = changed_cells(baseline, current)
        total += len(changed)
        print(f"  {bench}: {len(changed)} cell(s) differ")
        for label, old, new in changed:
            print(f"    {bench}/{label}: {old} -> {new}")
    print(f"perf_diff: {total} deterministic cell(s) differ from the baseline")


def provenance(artifact):
    if artifact is None:
        return "missing"
    return "{} ({})".format(artifact.get("git_sha", "unknown"),
                            artifact.get("build_type", "unknown"))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--current", required=True, help="fresh BENCH_*.json dir")
    ap.add_argument("--baseline", required=True,
                    help="previous run's BENCH_*.json dir (may be empty)")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="relative regression that fails the gate")
    ap.add_argument("--report-only", action="store_true",
                    help="report but never fail (bootstrap mode)")
    args = ap.parse_args()

    regressions = []
    compared = 0
    print(f"perf_diff: threshold {args.threshold:.0%}, "
          f"current={args.current}, baseline={args.baseline}")

    for bench, table_match, row_match, column, override in GATES:
        threshold = override if override is not None else args.threshold
        current = load_artifact(args.current, bench)
        if current is None:
            print(f"  ERROR {bench}: current artifact missing "
                  f"(CI should have produced it)")
            regressions.append((bench, "current artifact missing"))
            continue
        baseline = load_artifact(args.baseline, bench)
        if baseline is None:
            print(f"  {bench}: no baseline artifact — report-only "
                  f"(current {provenance(current)})")
            continue
        print(f"  {bench}: {provenance(baseline)} -> {provenance(current)} "
              f"(threshold {threshold:.0%})")

        cur_rows = indexed_rows(current, table_match, column)
        base_rows = indexed_rows(baseline, table_match, column)
        bench_compared = 0
        for key, base_value in sorted(base_rows.items()):
            table, row = key
            label = f"{bench}/{table}/{row} [{column}]"
            if row_match != "*" and row != row_match:
                continue
            if key not in cur_rows:
                # A gated metric must not silently un-gate itself via a
                # rename or a dropped table/row.
                print(f"    {label}: GATED ROW MISSING from current run")
                regressions.append((label, "gated row missing from current run"))
                continue
            cur_value = cur_rows[key]
            compared += 1
            bench_compared += 1
            if base_value <= 0:
                print(f"    {label}: baseline {base_value} not positive — skipped")
                continue
            change = cur_value / base_value - 1.0
            verdict = "ok"
            if change < -threshold:
                verdict = "REGRESSION"
                regressions.append(
                    (label, f"{base_value:g} -> {cur_value:g} ({change:+.1%})"))
            print(f"    {label}: {base_value:g} -> {cur_value:g} "
                  f"({change:+.1%}) {verdict}")
        new_rows = 0
        for key in sorted(set(cur_rows) - set(base_rows)):
            if row_match != "*" and key[1] != row_match:
                continue
            new_rows += 1
            print(f"    {bench}/{key[0]}/{key[1]}: new row — no baseline, skipped")
        if bench_compared == 0 and new_rows == 0:
            # Neither side matched the gate spec: the spec and the
            # artifact's table/row/column names have diverged.  (An
            # older baseline that merely predates a new metric still
            # shows the current rows as "new" above and bootstraps on
            # the next run.)
            print(f"  ERROR {bench}: no gated metric matched either side — "
                  f"gate spec and artifact have diverged")
            regressions.append((bench, "gate spec matches no artifact rows"))

    print(f"perf_diff: {compared} metrics compared, "
          f"{len(regressions)} regression(s)")
    for label, detail in regressions:
        print(f"  FAIL {label}: {detail}")
    report_deterministic_cells(args.current, args.baseline)
    if regressions:
        if args.report_only:
            print("perf_diff: report-only mode — not failing the build")
            return 0
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
