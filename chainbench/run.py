#!/usr/bin/env python3
"""Build and run the mcTLS chain benchmark for one workload.

    python3 chainbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds
chainbench/ (and the mcTLS libraries from src/) under .bench_build/; later
calls rebuild incrementally. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the end-to-end metrics are printed. setup_s is the median of
several set-ups, each in a fresh process: SETUP_REPEATS set-up-only runs plus
the measured run itself. With --trace 1 the per-layer metrics are printed and
the spans are written to .bench_build/spans/<workload>-<seed>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUP_REPEATS = 2
DEADLINE_S = 170  # every child is killed and reaped before this


def log(msg):
    print(f"chainbench: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Configuring every time costs about a second and recovers from an
    # earlier configure that failed half-way.
    steps = [["cmake", "-S", str(root / "chainbench"), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(build_dir), "-j", jobs]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            sys.exit(1)


def run(cmd, deadline):
    """Runs the benchmark binary; returns (stdout lines, parsed result line)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        log("out of time")
        sys.exit(1)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        log("timed out: " + " ".join(cmd))
        sys.exit(1)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log(f"exit code {proc.returncode}: " + " ".join(cmd))
        sys.exit(1)
    return lines[:-1], json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    root = Path(__file__).resolve().parent.parent
    build_dir = root / ".bench_build" / "chainbench"
    build(root, build_dir)
    deadline = max(deadline, time.monotonic() + args.seconds + 60)

    cmd = [str(build_dir / "chainbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        spans = build_dir.parent / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        lines, result = run(cmd + ["--spans", str(spans / f"{args.workload}-{args.seed}.jsonl")],
                            deadline)
    else:
        setups = [run(cmd + ["--setup-only"], deadline)[1]["metrics"]["setup_s"]["value"]
                  for _ in range(SETUP_REPEATS)]
        lines, result = run(cmd, deadline)
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        lines.append("setup_s_samples " + " ".join(f"{s:.6f}" for s in setups))

    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
