#!/usr/bin/env python3
"""Self-test of the chain benchmark: runs every workload briefly (the ones
BENCHMARK.json lists and the two it leaves out), untraced with two seeds and
traced with one, and checks that

  - every metric named in BENCHMARK.json is printed with its unit, and every
    operation succeeded;
  - the exact per-operation counts are identical across the two seeds and
    between the traced and untraced runs;
  - in the traced run, the driver's unattributed time is at most 5% of the
    operation time (party busy time plus unattributed time).

    python3 chainbench/test_chainbench.py      (from the root of a checkout)
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 2
WORKLOADS = ("handshake_full", "handshake_resumed", "rpc_64b", "stream_bulk")
PARTIES = ("mctls.client.busy_us_per_op", "mctls.middlebox.busy_us_per_op",
           "mctls.server.busy_us_per_op")


def run(workload, seed, trace):
    cmd = [sys.executable, str(ROOT / "chainbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    lines = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                           cwd=ROOT).stdout.splitlines()
    printed, exact = {}, None
    for line in lines[:-1]:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            printed[name] = (float(value), unit)
        elif line.startswith("exact "):
            exact = json.loads(line[len("exact "):])
    return json.loads(lines[-1]), printed, exact


class ChainBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.runs = {name: {"seed1": run(name, 1, 0), "seed2": run(name, 2, 0),
                           "traced": run(name, 1, 1)}
                    for name in WORKLOADS}

    def test_listed_workloads_exist(self):
        for w in self.spec["workloads"]:
            self.assertIn(w["name"], WORKLOADS)

    def test_every_metric_printed_with_unit(self):
        for workload, runs in self.runs.items():
            for key, group in (("seed1", "end_to_end"), ("seed2", "end_to_end"),
                               ("traced", "per_layer")):
                with self.subTest(workload=workload, run=key):
                    result, printed, _ = runs[key]
                    self.assertEqual(sorted(result),
                                     ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    names = {m["name"] for m in self.spec[group]}
                    self.assertEqual(set(result["metrics"]), names)
                    for m in self.spec[group]:
                        self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
                        self.assertIn(m["name"], printed)
                        self.assertEqual(printed[m["name"]][1], m["unit"])

    def test_exact_counts_repeat(self):
        for workload, runs in self.runs.items():
            with self.subTest(workload=workload):
                exact = runs["seed1"][2]
                self.assertTrue(exact)
                self.assertEqual(runs["seed2"][2], exact)
                self.assertEqual(runs["traced"][2], exact)
                traced = runs["traced"][0]["metrics"]
                for name, value in exact.items():
                    self.assertEqual(traced[name]["value"], value, name)

    def test_outcomes_per_workload(self):
        exact = {w: r["seed1"][2] for w, r in self.runs.items()}
        self.assertEqual(exact["handshake_resumed"]["mctls.resumption.resumed_share"], 1)
        self.assertEqual(exact["handshake_resumed"]["mctls.middlebox.rejoin_share"], 1)
        self.assertGreater(exact["handshake_full"]["mctls.handshake.secret_comp_per_op"], 0)
        self.assertEqual(exact["rpc_64b"]["mctls.middlebox.rewritten_per_op"], 1)
        self.assertEqual(exact["stream_bulk"]["mctls.middlebox.read_per_op"], 1)

    def test_unattributed_within_five_percent(self):
        for workload, runs in self.runs.items():
            with self.subTest(workload=workload):
                m = {k: v["value"] for k, v in runs["traced"][0]["metrics"].items()}
                unattributed = m["driver.unattributed_us_per_op"]
                op_us = sum(m[p] for p in PARTIES) + unattributed
                self.assertGreater(op_us, 0)
                self.assertGreaterEqual(unattributed, 0)
                self.assertLessEqual(unattributed, 0.05 * op_us)


if __name__ == "__main__":
    unittest.main()
