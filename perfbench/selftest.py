"""Self-tests of the benchmark: its output checker and its layer wrappers.

    python3 perfbench/selftest.py

Run from the root of a hierpart checkout.  Takes about a minute: it sets up
the rebalance workload and makes short traced runs of three workloads.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from check import assignment_problems, report_problems  # noqa: E402
from workloads import WORKLOADS, prepare  # noqa: E402


def run_bench(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


class CheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        work_root = os.path.join(BENCH_DIR, ".work")
        os.makedirs(work_root, exist_ok=True)
        cls.work_dir = tempfile.mkdtemp(prefix="selftest-", dir=work_root)
        cls.inputs = prepare(WORKLOADS["tet_rebalance_p32"], 3, cls.work_dir,
                             SRC)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work_dir, ignore_errors=True)

    def test_start_assignment_passes(self):
        self.assertEqual(assignment_problems(dict(self.inputs.before),
                                             self.inputs), [])

    def test_dropped_element_is_rejected(self):
        tampered = dict(self.inputs.before)
        del tampered[min(tampered)]
        problems = assignment_problems(tampered, self.inputs)
        self.assertTrue(any("misses 1 elements" in p for p in problems),
                        problems)

    def test_element_moved_out_of_its_group_is_rejected(self):
        tampered = dict(self.inputs.before)
        tree = self.inputs.tree
        element = min(e for e, r in tampered.items()
                      if tree.group_index(r, 0) == 0)
        tampered[element] = tree.group_size(0)  # first rank of node 1
        problems = assignment_problems(tampered, self.inputs)
        self.assertTrue(any("left their level-0 group" in p for p in problems),
                        problems)

    def test_internode_bytes_below_node_level_are_rejected(self):
        report = {"traffic": {"phases": [
            {"phase": "bootstrap", "internode_bytes": 10},
            {"phase": "level2", "internode_bytes": 4},
        ]}}
        self.assertEqual(len(report_problems(report)), 1)


class WrapperTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            cls.spec = json.load(fh)

    def traced(self, workload: str) -> dict:
        result = run_bench(workload, trace=1)
        self.assertTrue(result["correct"])
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in self.spec["per_layer"]])
        return {k: v["value"] for k, v in result["metrics"].items()}

    def test_rcb_calls_seen(self):
        m = self.traced("tri_rcb_p32")
        self.assertGreater(m["partition.rcb.calls"], 0)
        self.assertEqual(m["partition.graph_partition.calls"], 0)
        self.assertGreater(m["mesh.centroids.cpu_s"], 0)
        self.assertEqual(m["formats.save_part.calls"], 32)
        with open(os.path.join(BENCH_DIR, "out",
                               "tri_rcb_p32.trace.json")) as fh:
            events = json.load(fh)["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        ids = {e["args"]["id"] for e in spans}
        self.assertTrue(spans)
        self.assertTrue(all(e["args"]["parent"] in ids | {0} for e in spans))
        self.assertIn("cli.main", {e["name"] for e in spans})

    def test_graph_partition_calls_seen(self):
        m = self.traced("tri_graph_p32")
        self.assertGreater(m["partition.graph_partition.calls"], 0)
        self.assertEqual(m["partition.rcb.calls"], 0)

    def test_rebalance_calls_seen(self):
        m = self.traced("tet_rebalance_p32")
        self.assertGreater(m["balance.rebalance.calls"], 0)
        self.assertGreater(m["mesh.exchange_keyed_values.calls"], 0)
        self.assertGreater(m["phase.rebalance_level0.messages"], 0)

    def test_untraced_result_has_the_end_to_end_metrics(self):
        result = run_bench("tet_approach1_p64", trace=0)
        self.assertTrue(result["correct"])
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in self.spec["end_to_end"]])
        self.assertTrue(all(v["value"] > 0
                            for v in result["metrics"].values()))


if __name__ == "__main__":
    unittest.main()
