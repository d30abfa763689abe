"""Self-tests of the benchmark:  python3 perfbench/selftest.py  (from the checkout root).

Covers the self-time arithmetic on synthetic nested spans, seed-purity of
the generated request streams, the metric names against BENCHMARK.json,
a tiny-tree smoke run of every workload through real server processes
(plain and traced), and the refusal to run without the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from spans import Span, covered, self_ms  # noqa: E402
from workloads import SPECS, generate  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _span(sid: int, parent: int, start: float, end: float, name: str = "x", pid: int = 1) -> Span:
    return Span(pid, name, sid, parent, None, start, end)


class SelfTime(unittest.TestCase):
    def test_covered_merges_overlaps_and_clips(self) -> None:
        self.assertAlmostEqual(covered([(1, 3), (2, 4), (6, 7)], 0, 10), 4.0)
        self.assertAlmostEqual(covered([(-1, 2), (9, 12)], 0, 10), 3.0)
        self.assertEqual(covered([], 0, 10), 0.0)

    def test_nested_spans(self) -> None:
        # root 0..10 s; children 1..3 and 2..5 overlap (cover 1..5);
        # grandchild 1.5..2.5 counts against its own parent only.
        spans = [
            _span(1, 0, 0.0, 10.0),
            _span(2, 1, 1.0, 3.0),
            _span(3, 1, 2.0, 5.0),
            _span(4, 2, 1.5, 2.5),
        ]
        own = self_ms(spans)
        self.assertAlmostEqual(own[(1, 1)], 6000.0)
        self.assertAlmostEqual(own[(1, 2)], 1000.0)
        self.assertAlmostEqual(own[(1, 3)], 3000.0)
        self.assertAlmostEqual(own[(1, 4)], 1000.0)

    def test_processes_do_not_mix(self) -> None:
        spans = [_span(1, 0, 0.0, 4.0, pid=1), _span(2, 1, 1.0, 2.0, pid=2)]
        self.assertAlmostEqual(self_ms(spans)[(1, 1)], 4000.0)


class Inputs(unittest.TestCase):
    def test_seed_pure(self) -> None:
        for name in SPECS:
            a = generate(name, 7, 2.0, 1.0, scale=0.2)
            b = generate(name, 7, 2.0, 1.0, scale=0.2)
            c = generate(name, 8, 2.0, 1.0, scale=0.2)
            self.assertEqual(a.digest(), b.digest(), name)
            self.assertNotEqual(a.digest(), c.digest(), name)

    def test_streams_disjoint(self) -> None:
        inputs = generate("frontier-dup", 3, 3.0, 1.0, scale=0.2)
        open_ids = {r.rid for r in inputs.open_requests}
        self.assertFalse(open_ids & {r.rid for r in inputs.saturation})


class Names(unittest.TestCase):
    def test_benchmark_json_matches_runner(self) -> None:
        self.assertLessEqual({w["name"] for w in BENCHMARK["workloads"]}, set(SPECS))
        self.assertEqual({m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}, run.PER_LAYER)


class Smoke(unittest.TestCase):
    def _run(self, name: str, trace: int) -> dict:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "5", "--seconds", "3",
               "--trace", str(trace), "--smoke"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_every_workload(self) -> None:
        for name in SPECS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    result = self._run(name, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], result)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)

    def test_refuses_without_sources(self) -> None:
        bare = ROOT / ".perfbench" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "frontier-dup", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
