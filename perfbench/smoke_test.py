#!/usr/bin/env python3
"""Smoke test of the benchmark, through the one command (perfbench/run.py).

Runs every workload of BENCHMARK.json at tiny size, untraced and traced, and
checks that every metric is printed with its unit, that the workloads
separate their layers, that a wrong expected checksum counts as failed
operations, and that an armed INFERTURBO_* environment is refused.

    python3 perfbench/smoke_test.py      (or: python3 perfbench/run.py --test)
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(workload, trace, *extra, env=None):
    args = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "0.3", "--trace", trace, "--size", "tiny"]
    return subprocess.run(args + list(extra), cwd=ROOT, capture_output=True, text=True,
                          timeout=300, env=env)


def result(out):
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


class Smoke(unittest.TestCase):
    def test_every_metric_printed_with_its_unit(self):
        layers = {}
        for workload in WORKLOADS:
            for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    out = bench(workload, trace)
                    self.assertEqual(out.returncode, 0, out.stderr[-2000:])
                    res, text = result(out)
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"], text)
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in BENCH[key]}
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, unit in want.items():
                        line = r"(?m)^%s = \S+ %s \(" % (re.escape(name), re.escape(unit))
                        self.assertRegex(text, line)
                    self.assertRegex(text, r"nproc \d+ threads \d+")
                    if trace == "1":
                        layers[workload] = {k: v["value"] for k, v in res["metrics"].items()}
        # The workloads separate their layers.
        for workload, m in layers.items():
            out_of_core = workload == "pregel_outofcore"
            self.assertEqual(m["spill.bytes"] > 0, out_of_core, workload)
            self.assertEqual(m["recovery.checkpoints"] > 0, out_of_core, workload)
            self.assertEqual(m["transport.calls"], 3, workload)
        self.assertEqual(layers["pregel_inskew"]["plan.mirrors"], 0)
        self.assertEqual(layers["pregel_inskew"]["plan.hubs"], 0)
        for workload in ("mapreduce_outskew_xproc", "pregel_outofcore"):
            self.assertGreater(layers[workload]["plan.mirrors"], 0, workload)
            self.assertGreater(layers[workload]["plan.hubs"], 0, workload)
        self.assertGreater(layers["mapreduce_outskew_xproc"]["transport.wire_bytes"], 0)
        self.assertGreater(layers["serve_snapshots"]["serve.batches"], 0)

    def test_wrong_checksum_counts_as_failure(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                out = bench(workload, "0", "--expect-checksum", "0")
                self.assertEqual(out.returncode, 0, out.stderr[-2000:])
                res, text = result(out)
                self.assertFalse(res["correct"])
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(res["failed"], res["attempted"])
                self.assertIn("fail_share = 1 ", text)

    def test_armed_environment_is_refused(self):
        env = dict(os.environ, INFERTURBO_THREADS="1")
        out = bench(WORKLOADS[0], "0", env=env)
        self.assertNotEqual(out.returncode, 0)
        self.assertIn("INFERTURBO_THREADS", out.stderr)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
