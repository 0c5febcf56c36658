#!/usr/bin/env python3
"""Self-tests of the benchmark driver.

    python3 perfbench/test_perfbench.py            # every workload
    python3 perfbench/test_perfbench.py -k chip    # one workload

Run from the root of a checkout; the first test builds perfbench/.
Checks, per workload, that a traced run (the TimedScheme proxy and the
timed wire client included) ends in exactly the digest of the untraced
run, that both runs are correct, and that each prints exactly the metric
names BENCHMARK.json declares. Also checks that the benchmark refuses to
run when only BENCHMARK.json and perfbench/ are present.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def bench(workload, trace, cwd=ROOT, seed=3):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"][0], json.loads(lines[-1])


class TracedRunsMatchUntraced(unittest.TestCase):
    def check(self, workload):
        plain = bench(workload, 0)
        self.assertEqual(plain.returncode, 0, plain.stderr[-2000:])
        traced = bench(workload, 1)
        self.assertEqual(traced.returncode, 0, traced.stderr[-2000:])
        (pd, pr), (td, tr) = parse(plain), parse(traced)
        for result in (pr, tr):
            self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
        self.assertGreater(td["traced_units"], 0)
        self.assertEqual(pd["digest"], td["digest"])
        self.assertEqual(sorted(pr["metrics"]), sorted(m["name"] for m in SPEC["end_to_end"]))
        self.assertEqual(sorted(tr["metrics"]), sorted(m["name"] for m in SPEC["per_layer"]))

    def test_service_mcf(self):
        self.check("service-mcf")

    def test_wire_gcc(self):
        self.check("wire-gcc")

    def test_paper_grid(self):
        self.check("paper-grid")

    def test_chip_hybrid(self):
        self.check("chip-hybrid")


class RefusesWithoutSources(unittest.TestCase):
    def test_benchmark_alone_fails(self):
        alone = os.path.join(ROOT, ".bench_build", "alone")
        shutil.rmtree(alone, ignore_errors=True)
        os.makedirs(alone)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
        shutil.copytree(HERE, os.path.join(alone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = bench("chip-hybrid", 0, cwd=alone)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(alone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
