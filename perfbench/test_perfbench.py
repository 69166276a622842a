#!/usr/bin/env python3
"""Smoke tests of the end-to-end SQL benchmark.

Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

Builds the benchmark (as run.py does), then runs every workload at tiny
sizes (--smoke) and checks that:
  * every metric BENCHMARK.json names is reported with its unit, and no
    other, untraced and traced;
  * every answer check passed;
  * the serial workloads repeat their registry counts exactly for a fixed
    seed, and replay an identical stream (same stream hash);
  * outside a full checkout the benchmark exits non-zero without a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
# The measured workloads, plus concurrent, which runs but is not measured
# (see README).
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["concurrent"]
SERIAL = ["zoom", "multi_attr", "htap"]
# Registry counts that must repeat exactly on a serial workload.
EXACT = re.compile(r"^(crack\.|io\.|select\.|agg\.pushdown_rows|merge\.|"
                   r"vacuum\.|wal\.appends|wal\.bytes_appended|txn\.commits)")


def smoke(workload, trace, seed=7):
    out = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--smoke",
         "--out", os.path.join(run.BUILD, "out")],
        capture_output=True, text=True, timeout=300)
    lines = out.stdout.strip().splitlines()
    return out.returncode, lines, json.loads(lines[-1])


def descriptor(lines, prefix):
    """The `# <prefix> ...` line of a run's output, as a dict."""
    for line in lines:
        if line.startswith("# " + prefix + " "):
            return dict(kv.split("=", 1) for kv in line.split()[2:]
                        if "=" in kv)
    raise AssertionError("no '# %s' line" % prefix)


class SmokeTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("benchmark build failed")
        os.makedirs(os.path.join(run.BUILD, "out"), exist_ok=True)

    def check_result(self, result, metrics):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        want = {m["name"]: m["unit"] for m in metrics}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines, result = smoke(workload, 0)
                self.assertEqual(code, 0)
                self.check_result(result, SPEC["end_to_end"])
                for value in result["metrics"].values():
                    self.assertGreater(value["value"], 0)
                machine = descriptor(lines, "machine")
                self.assertIn(machine["simd"],
                              ["scalar", "predicated", "avx2", "neon"])

    def test_per_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, _, result = smoke(workload, 1)
                self.assertEqual(code, 0)
                self.check_result(result, SPEC["per_layer"])

    def test_serial_counts_repeat(self):
        for workload in SERIAL:
            with self.subTest(workload=workload):
                _, first, _ = smoke(workload, 1)
                _, second, _ = smoke(workload, 1)
                self.assertEqual(descriptor(first, "stream")["hash"],
                                 descriptor(second, "stream")["hash"])
                a = descriptor(first, "counts")
                b = descriptor(second, "counts")
                exact = sorted(k for k in a if EXACT.match(k))
                self.assertIn("crack.cracks", exact)
                self.assertIn("wal.appends", exact)
                self.assertEqual({k: a[k] for k in exact},
                                 {k: b[k] for k in exact})

    def test_seed_changes_stream(self):
        _, a, _ = smoke("htap", 0, seed=1)
        _, b, _ = smoke("htap", 0, seed=2)
        self.assertNotEqual(descriptor(a, "stream")["hash"],
                            descriptor(b, "stream")["hash"])

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory(dir=run.BUILD) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "zoom",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
