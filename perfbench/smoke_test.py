#!/usr/bin/env python3
"""The benchmark's own test: every workload at reduced size (--smoke).

Run from the root of a checkout:

    python3 perfbench/smoke_test.py

For each workload it runs the benchmark untraced and traced, and checks:
the result line has exactly the contract's keys; every metric that
BENCHMARK.json declares for that mode is emitted, with its unit and a
finite value, and no other; every job matched its reference; the traced
run produced the same outputs and engine counts as the untraced run; and
the exported Chrome trace is well formed (every span's parent exists).
"""
import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
SEED = 7


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--smoke"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    return proc


class SmokeTest(unittest.TestCase):
    def check_result(self, workload, trace):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr[-2000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        declared = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
        return result, proc.stderr

    def check_trace_file(self, workload):
        path = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                            "perfbench", "traces",
                            f"{workload}-seed{SEED}.json")
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        ids = {e["args"]["id"] for e in events}
        names = {e["name"] for e in events}
        self.assertTrue({"job", "map-task", "reduce-task", "collect",
                         "values"} <= names, names)
        for e in events:
            self.assertEqual(e["ph"], "X")
            self.assertGreaterEqual(e["dur"], 0)
            self.assertGreaterEqual(e["args"]["self_us"], 0)
            if e["name"] == "job":
                self.assertEqual(e["args"]["parent"], 0)
            else:
                self.assertIn(e["args"]["parent"], ids, e)

    def test_workloads(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                e2e, _ = self.check_result(w["name"], 0)
                self.assertEqual(e2e["metrics"]["correct_job_ratio"]["value"],
                                 1)
                layers, log = self.check_result(w["name"], 1)
                self.assertIn("traced vs untraced): same", log)
                self.assertGreater(layers["metrics"]["api.map_records"]["value"],
                                   0)
                self.check_trace_file(w["name"])


if __name__ == "__main__":
    os.chdir(ROOT)
    unittest.main()
