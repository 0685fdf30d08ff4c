#!/usr/bin/env python3
"""Bench regression gate: diff fresh BENCH_*.json against a committed baseline.

Usage:
    bench_compare.py <fresh_dir> <baseline_dir> [--tolerance PCT]

Two classes of bench, compared differently:

  * Deterministic benches (sim-clock results: TTFB, PLT, download time,
    handshake bytes) are reproducible bit-for-bit on any machine, so their
    values are compared against the baseline with a tight relative
    tolerance (default 1%). A drift here is a real behaviour change in the
    protocol or simulator, not noise.

  * Wall-clock benches (crypto throughput, connections/sec, cache churn)
    depend on the host, so only their *structure* is gated: every baseline
    series/x point must still be emitted, with a finite non-negative value.
    Throughput regressions are judged by chainbench's alternating
    parent/change pairs (chainbench/README.md, "Steadiness"), not by CI.

Either way the gate catches the failure mode that actually bites CI: a bench
silently dropping a series (or a whole report) after a refactor.

Refresh mode: MCT_BENCH_GATE_REFRESH=1 (or --refresh) copies the fresh
reports over the baseline directory and exits 0 — run it after a deliberate
behaviour change, then commit the updated baselines.

Exit status: 0 clean, 1 regression/structure drift, 2 usage or I/O error.
"""

import json
import math
import os
import shutil
import sys

# Bench names (the "bench" field) whose values are sim-deterministic.
DETERMINISTIC = {
    "fig3_ttfb",
    "fig4_plt_strategies",
    "fig6_plt_protocols",
    "fig7_download_time",
    "fig8_handshake_size",
}


def fail(msg):
    print(f"bench-gate: {msg}", file=sys.stderr)
    sys.exit(2)


def load_dir(path):
    """{filename: parsed doc} for every BENCH_*.json in path."""
    if not os.path.isdir(path):
        fail(f"{path}: not a directory (run the bench-smoke target first?)")
    docs = {}
    for name in sorted(os.listdir(path)):
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        try:
            with open(os.path.join(path, name)) as f:
                docs[name] = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            fail(f"{name}: {e}")
    if not docs:
        fail(f"{path}: no BENCH_*.json found")
    return docs


def points_of(doc, name):
    pts = {}
    for p in doc.get("points", []):
        try:
            pts[(p["series"], p["x"])] = float(p["value"])
        except (KeyError, TypeError, ValueError):
            fail(f"{name}: malformed point {p!r}")
    if not pts:
        fail(f"{name}: empty points array")
    return pts


def main():
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    opts = [a for a in sys.argv[1:] if a.startswith("--")]
    tolerance = 1.0
    refresh = os.environ.get("MCT_BENCH_GATE_REFRESH") == "1"
    it = iter(opts)
    for opt in it:
        if opt == "--refresh":
            refresh = True
        elif opt.startswith("--tolerance="):
            tolerance = float(opt.split("=", 1)[1])
        else:
            fail(f"unknown option {opt}")
    if len(args) != 2:
        fail("usage: bench_compare.py <fresh_dir> <baseline_dir> "
             "[--tolerance=PCT] [--refresh]")
    fresh_dir, base_dir = args

    fresh = load_dir(fresh_dir)

    if refresh:
        os.makedirs(base_dir, exist_ok=True)
        for name in fresh:
            shutil.copyfile(os.path.join(fresh_dir, name),
                            os.path.join(base_dir, name))
        print(f"bench-gate: refreshed {len(fresh)} baselines in {base_dir}")
        return 0

    base = load_dir(base_dir)

    problems = []
    compared = checked = 0

    for name in sorted(base):
        if name not in fresh:
            problems.append(f"{name}: bench no longer emits a report")
            continue
        bdoc, fdoc = base[name], fresh[name]
        bench = bdoc.get("bench", "?")
        if bdoc.get("smoke") != fdoc.get("smoke"):
            problems.append(
                f"{name}: smoke={fdoc.get('smoke')} but baseline has "
                f"smoke={bdoc.get('smoke')} — comparing a smoke run against a "
                f"full-run baseline (or vice versa) is meaningless")
            continue
        bpts = points_of(bdoc, name)
        fpts = points_of(fdoc, name)
        for key in sorted(set(bpts) - set(fpts)):
            problems.append(f"{name}: series {key[0]!r} x={key[1]!r} disappeared")
        deterministic = bench in DETERMINISTIC
        for key in sorted(set(bpts) & set(fpts)):
            bv, fv = bpts[key], fpts[key]
            checked += 1
            if not math.isfinite(fv) or fv < 0:
                problems.append(f"{name}: {key[0]}/{key[1]} = {fv} (not a "
                                f"finite non-negative value)")
                continue
            if not deterministic:
                continue
            compared += 1
            denom = abs(bv) if bv else 1.0
            delta = (fv - bv) / denom * 100.0
            if abs(delta) > tolerance:
                problems.append(
                    f"{name}: {key[0]}/{key[1]} drifted {delta:+.2f}% "
                    f"({bv} -> {fv}, tolerance {tolerance}%)")
        extra = sorted(set(fpts) - set(bpts))
        if extra:
            print(f"bench-gate: note: {name} has {len(extra)} new points not in "
                  f"the baseline (rerun with MCT_BENCH_GATE_REFRESH=1 to adopt)")

    for name in sorted(set(fresh) - set(base)):
        print(f"bench-gate: note: new report {name} has no baseline "
              f"(rerun with MCT_BENCH_GATE_REFRESH=1 to adopt)")

    if problems:
        print(f"bench-gate: FAIL ({len(problems)} problems):", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    print(f"bench-gate: OK — {len(base)} reports, {checked} points structurally "
          f"valid, {compared} deterministic values within {tolerance}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
