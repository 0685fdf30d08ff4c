#!/usr/bin/env python3
"""Steadiness checks for the chain benchmark.

    python3 chainbench/spread.py runs  --out <file.jsonl> [--runs 10] [--seed0 1]
                                       [--seconds S] [--workloads a,b]
    python3 chainbench/spread.py drift --out <file.txt> [--workload rpc_64b]
                                       [--seconds 30] [--batch-ms 500]
    python3 chainbench/spread.py compare <set1.jsonl> <set2.jsonl>

`runs` runs every workload --runs times, each with another seed, through
run.py (--trace 0), the workloads taking turns. It appends one JSON line
per run to --out and prints each end-to-end metric's median and quartile
spread ((Q3 - Q1) / median, from statistics.quantiles(values, n=4)) next to
a third of its bound.

`drift` makes one long untraced run that reports the operation rate of every
--batch-ms batch, to show how much the host's speed moves within a process.

`compare` reads two sets written by `runs` and prints, per workload and
metric, how far the second median moved from the first, against the bound.

Run from the root of a checkout; results go wherever --out points.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartile_spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, str(ROOT / "chainbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT).stdout
    return json.loads(out.splitlines()[-1])


def load(path):
    by_workload = {}
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        by_workload.setdefault(rec["workload"], []).append(rec)
    return by_workload


def cmd_runs(args):
    b = spec()
    seconds = args.seconds or b["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in b["workloads"]]
    # Workloads take turns, so every workload's runs span the whole set and
    # meet the same slow and fast phases of the host.
    with open(args.out, "a") as out:
        for i in range(args.runs):
            for name in names:
                seed = args.seed0 + i
                res = run_once(name, seed, seconds)
                rec = {"workload": name, "seed": seed, "seconds": seconds,
                       "correct": res["correct"], "attempted": res["attempted"],
                       "failed": res["failed"],
                       "metrics": {k: v["value"] for k, v in res["metrics"].items()}}
                out.write(json.dumps(rec) + "\n")
                out.flush()
                print(json.dumps(rec), flush=True)
    report(load(args.out), b)


def report(by_workload, b):
    for name, recs in by_workload.items():
        print(f"== {name} ({len(recs)} runs, all correct: {all(r['correct'] for r in recs)})")
        for m in b["end_to_end"]:
            vals = [r["metrics"][m["name"]] for r in recs]
            if len(vals) < 2:
                continue
            med, spread = quartile_spread(vals)
            steady = m["name"] == "setup_s" or spread < m["bound"] / 3
            flag = "" if steady else "  <-- above bound/3"
            print(f"  {m['name']:<12} median {med:14.4f}  spread {spread:7.4f}"
                  f"  bound/3 {m['bound'] / 3:.4f}{flag}")


def cmd_compare(args):
    b = spec()
    one, two = load(args.first), load(args.second)
    for name in one:
        if name not in two:
            continue
        print(f"== {name}")
        for m in b["end_to_end"]:
            a = statistics.median(r["metrics"][m["name"]] for r in one[name])
            c = statistics.median(r["metrics"][m["name"]] for r in two[name])
            worse = (c - a) / a if m["better"] == "lower" else (a - c) / a
            flag = "  <-- worse than bound" if worse > m["bound"] else ""
            print(f"  {m['name']:<12} {a:14.4f} -> {c:14.4f}  worse by {worse:+.4f}"
                  f"  bound {m['bound']}{flag}")


def cmd_drift(args):
    binary = ROOT / ".bench_build" / "chainbench" / "chainbench"
    # run.py builds the binary if needed; a one-second run is enough for that.
    run_once(args.workload, 1, 1)
    cmd = [str(binary), "--workload", args.workload, "--seed", "1", "--seconds",
           str(args.seconds), "--trace", "0", "--drift-ms", str(args.batch_ms)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT).stdout
    marks = [(0.0, 0)]
    for line in out.splitlines():
        if line.startswith("drift "):
            for tok in line.split()[1:]:
                t, n = tok.split(":")
                marks.append((float(t), int(n)))
    rates = [(n1 - n0) / (t1 - t0) for (t0, n0), (t1, n1) in zip(marks, marks[1:])]
    with open(args.out, "w") as f:
        f.write(f"# {args.workload}: ops/s per {args.batch_ms} ms batch over one "
                f"{args.seconds} s untraced window\n")
        for (t, _), r in zip(marks[1:], rates):
            f.write(f"{t:.3f} {r:.1f}\n")
        med = statistics.median(rates)
        f.write(f"# batches {len(rates)}  median {med:.1f}  min {min(rates):.1f} "
                f"({min(rates) / med - 1:+.3f})  max {max(rates):.1f} "
                f"({max(rates) / med - 1:+.3f})\n")
    print(Path(args.out).read_text().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("runs")
    r.add_argument("--out", required=True)
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed0", type=int, default=1)
    r.add_argument("--seconds", type=float, default=0)
    r.add_argument("--workloads", default="")
    d = sub.add_parser("drift")
    d.add_argument("--out", required=True)
    d.add_argument("--workload", default="rpc_64b")
    d.add_argument("--seconds", type=float, default=30)
    d.add_argument("--batch-ms", type=float, default=500)
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = ap.parse_args()
    {"runs": cmd_runs, "drift": cmd_drift, "compare": cmd_compare}[args.cmd](args)


if __name__ == "__main__":
    main()
