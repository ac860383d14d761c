#!/usr/bin/env python3
"""bench-regress: gate fresh BENCH_*.json against the committed baselines.

Checks (all fatal, exit 1, every failure reported before exiting):

1. fig7 capsule-variant 4-thread throughput must not regress more than
   REGRESS_TOL (default 20%) against the committed baseline's same cell.
2. fig7 General and Normalized-Opt must actually *scale*: their 4-thread
   mops must exceed the seed's flat ~3.7 Mops ceiling (the pre-adaptive
   plateau, DESIGN.md §11), and be >= SCALE_MIN (default 1.5) x their own
   1-thread mops. The scaling ratio is within-run, so it is robust to the
   absolute speed of the machine.
3. instr_overhead disarmed rows must stay at-or-above the committed
   baseline: the crash-point plumbing must remain free when disarmed.
   "At-or-above" is applied with a noise band (DISARM_TOL, default 30%):
   these are wall-clock rates from shared single-core CI containers whose
   run-to-run spread is ~25-30%, and a real disarmed-path regression
   (accidentally armed bookkeeping) shows up as 2x+, far outside the band.
   Tighten via DF_REGRESS_DISARM_TOL on quiet hardware.
4. fig_map (--map): every map-variant row of the committed BENCH_map.json
   must be present fresh with nonzero throughput no more than MAP_TOL
   (default 60%) below the baseline, and the baseline itself must carry the
   million-key scenario (params.keys >= 2^20). The wide default tolerance is
   deliberate: the mixed workload includes bucket-array resizes, whose
   placement relative to the timed window shifts with machine speed.
5. dfck (--dfck): a fresh default-matrix dfck run must carry the committed
   BENCH_dfck.json's rows in the same order with the same parameters, and
   every row's deterministic counters (DFCK_COUNTERS) must be equal. The
   counters are exact crash-point and replay counts, not timings, so any
   difference means an operation's simulated instruction sequence or the
   sweep itself changed; re-record the baseline in the change that means it.

Usage:
  regress.py --baseline benchmarks \
             [--fig7 fresh/BENCH_fig7.json] \
             [--instr fresh/BENCH_instr_overhead.json] \
             [--map fresh/BENCH_map.json] \
             [--dfck fresh/BENCH_dfck.json]

Env overrides: DF_REGRESS_TOL, DF_REGRESS_SCALE_MIN, DF_REGRESS_CEILING,
DF_REGRESS_DISARM_TOL, DF_REGRESS_MAP_TOL.
"""

import argparse
import json
import os
import sys

CAPSULE_VARIANTS = ["General", "General-Opt", "Normalized", "Normalized-Opt"]
SCALING_VARIANTS = ["General", "Normalized-Opt"]

REGRESS_TOL = float(os.environ.get("DF_REGRESS_TOL", "0.20"))
SCALE_MIN = float(os.environ.get("DF_REGRESS_SCALE_MIN", "1.5"))
SEED_CEILING = float(os.environ.get("DF_REGRESS_CEILING", "3.7"))
DISARM_TOL = float(os.environ.get("DF_REGRESS_DISARM_TOL", "0.30"))
MAP_TOL = float(os.environ.get("DF_REGRESS_MAP_TOL", "0.60"))
MILLION_KEYS = 1 << 20
DFCK_COUNTERS = [
    "crash_points",
    "replays",
    "crashes_injected",
    "recoveries",
    "entry_retries",
    "recovery_crashes",
    "fast_ops",
    "demotions",
    "seeds",
    "distinct_interleavings",
    "covictim_crashes",
    "audit_flags",
    "hb_flags",
    "oracle_failures",
]


def rows(doc, variant=None, threads=None):
    out = []
    for r in doc["results"]:
        if variant is not None and r["variant"] != variant:
            continue
        if threads is not None and r["threads"] != threads:
            continue
        out.append(r)
    return out


def mops(doc, variant, threads):
    matched = rows(doc, variant, threads)
    if not matched:
        return None
    return matched[0]["mops"]


def check_fig7(baseline, fresh, failures):
    # fig7 sweeps the paper's figure-7 variant set (General and
    # Normalized-Opt represent the capsule family there); gate whichever
    # capsule variants the committed baseline actually carries.
    present = [v for v in CAPSULE_VARIANTS if rows(baseline, v, 4)]
    if not present:
        failures.append("fig7 baseline has no capsule-variant rows at 4 threads")
    for variant in present:
        base = mops(baseline, variant, 4)
        new = mops(fresh, variant, 4)
        if new is None:
            failures.append(f"fig7 {variant}@4t: fresh row missing")
            continue
        floor = base * (1.0 - REGRESS_TOL)
        if new < floor:
            failures.append(
                f"fig7 {variant}@4t regressed: {new:.3f} < {floor:.3f} "
                f"(baseline {base:.3f}, tol {REGRESS_TOL:.0%})"
            )
        else:
            print(f"ok fig7 {variant}@4t: {new:.3f} vs baseline {base:.3f}")
    for variant in SCALING_VARIANTS:
        one = mops(fresh, variant, 1)
        four = mops(fresh, variant, 4)
        if one is None or four is None:
            failures.append(f"fig7 {variant}: 1t/4t row missing")
            continue
        if four <= SEED_CEILING:
            failures.append(
                f"fig7 {variant}@4t does not clear the seed ceiling: "
                f"{four:.3f} <= {SEED_CEILING} Mops"
            )
        if four < SCALE_MIN * one:
            failures.append(
                f"fig7 {variant} does not scale: 4t {four:.3f} < "
                f"{SCALE_MIN}x 1t {one:.3f}"
            )
        else:
            print(f"ok fig7 {variant} scaling: 1t {one:.3f} -> 4t {four:.3f}")


def check_instr(baseline, fresh, failures):
    disarmed = [r for r in baseline["results"] if r["variant"].endswith("/disarmed")]
    if not disarmed:
        failures.append("instr_overhead baseline has no disarmed rows")
        return
    for r in disarmed:
        variant = r["variant"]
        new = mops(fresh, variant, r["threads"])
        if new is None:
            failures.append(f"instr_overhead {variant}: fresh row missing")
            continue
        floor = r["mops"] * (1.0 - DISARM_TOL)
        if new < floor:
            failures.append(
                f"instr_overhead {variant} regressed: {new:.3f} < {floor:.3f} "
                f"(baseline {r['mops']:.3f})"
            )
        else:
            print(f"ok instr_overhead {variant}: {new:.3f} vs baseline {r['mops']:.3f}")


def check_map(baseline, fresh, failures):
    keys = baseline.get("params", {}).get("keys", 0)
    if keys < MILLION_KEYS:
        failures.append(
            f"fig_map baseline is not the million-key scenario: "
            f"params.keys = {keys} < {MILLION_KEYS}"
        )
    base_rows = baseline["results"]
    if not base_rows:
        failures.append("fig_map baseline has no rows")
    for r in base_rows:
        variant = r["variant"]
        new = mops(fresh, variant, r["threads"])
        if new is None:
            failures.append(f"fig_map {variant}: fresh row missing")
            continue
        floor = r["mops"] * (1.0 - MAP_TOL)
        if new <= 0.0 or new < floor:
            failures.append(
                f"fig_map {variant} regressed: {new:.3f} < {floor:.3f} "
                f"(baseline {r['mops']:.3f}, tol {MAP_TOL:.0%})"
            )
        else:
            print(f"ok fig_map {variant}: {new:.3f} vs baseline {r['mops']:.3f}")


def check_dfck(baseline, fresh, failures):
    if baseline.get("params") != fresh.get("params"):
        failures.append(
            f"dfck params differ: baseline {baseline.get('params')} "
            f"vs fresh {fresh.get('params')} (run the default matrix)"
        )
    base_rows, fresh_rows = baseline["results"], fresh["results"]
    if len(base_rows) != len(fresh_rows):
        failures.append(
            f"dfck row count differs: baseline {len(base_rows)} vs fresh {len(fresh_rows)}"
        )
    diffs = 0
    for i, (b, f) in enumerate(zip(base_rows, fresh_rows)):
        if b["variant"] != f["variant"]:
            failures.append(f"dfck row {i}: variant {f['variant']!r}, baseline {b['variant']!r}")
            diffs += 1
            continue
        for c in DFCK_COUNTERS:
            if b.get(c) != f.get(c):
                failures.append(f"dfck {b['variant']} {c}: {f.get(c)} vs baseline {b.get(c)}")
                diffs += 1
    if diffs == 0 and len(base_rows) == len(fresh_rows):
        print(f"ok dfck: {len(base_rows)} rows, counters equal to the baseline")


def load(path):
    with open(path) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--baseline", required=True, help="directory with committed BENCH_*.json")
    ap.add_argument("--fig7", help="fresh BENCH_fig7.json (optional)")
    ap.add_argument("--instr", help="fresh BENCH_instr_overhead.json (optional)")
    ap.add_argument("--map", dest="map_json", help="fresh BENCH_map.json (optional)")
    ap.add_argument("--dfck", help="fresh default-matrix BENCH_dfck.json (optional)")
    args = ap.parse_args()
    gates = [
        (args.fig7, "BENCH_fig7.json", check_fig7),
        (args.instr, "BENCH_instr_overhead.json", check_instr),
        (args.map_json, "BENCH_map.json", check_map),
        (args.dfck, "BENCH_dfck.json", check_dfck),
    ]
    if not any(fresh for fresh, _, _ in gates):
        ap.error("name at least one fresh file to gate")

    failures = []
    for fresh, name, check in gates:
        if fresh:
            check(load(os.path.join(args.baseline, name)), load(fresh), failures)

    if failures:
        for msg in failures:
            print(f"FAIL {msg}", file=sys.stderr)
        sys.exit(1)
    print("bench-regress: all gates passed")


if __name__ == "__main__":
    main()
