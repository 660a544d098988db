"""Smoke test of the benchmark itself, at tiny sizes (n = 5).

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

It checks that every metric named in BENCHMARK.json is printed with its
unit, traced and untraced, that the correctness gate rejects altered
output and counts it as failed, and that the benchmark refuses to run
without the package's sources.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import record  # noqa: E402
import run  # noqa: E402
from workloads import Workload, gate, select  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = [
    ("sweeps", ["verify-theorem", "--n", "6", "--epsilon", "1/10", "--jobs", "1"]),
    ("sweeps", ["excon", "--n", "6", "--jobs", "2"]),
    ("sweeps", ["dvir", "--n", "5", "--mode", "both"]),
    ("small", ["classes", "--n", "5"]),
    ("small", ["char-value", "--n", "5", "--char", "3,1,1+", "--class", "5+"]),
    ("small", ["product", "--n", "5", "--a", "3,1,1", "--b", "5+", "--mode", "engine"]),
    ("small", ["contains", "--n", "5", "--a", "2,2,1", "--b", "3,1,1", "--g", "5-", "--mode", "both"]),
    ("small", ["covering", "--n", "5", "--class", "3,1,1", "--mode", "both"]),
]


def tiny_catalogue() -> list[dict]:
    entries = []
    for group, argv in TINY:
        argv = [*argv, "--format", "json"]
        entries.append({"group": group, "kind": argv[0], "n": 5, "bin": 0, "argv": argv,
                        "sha256": record.stdout_digest(argv)})
    return entries


def tiny_workload(group: str) -> Workload:
    return Workload(f"tiny-{group}", (5,), 5, "commands", "commands_per_s",
                    lambda rng, catalogue: select(catalogue, group), len)


def printed(result: dict) -> str:
    out = io.StringIO()
    run.report(result, out)
    return out.getvalue()


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.catalogue = tiny_catalogue()

    def measure(self, group: str, trace: int) -> dict:
        return run.run_workload(tiny_workload(group), self.catalogue, 1, 0, trace, ROOT)

    def assert_metrics_printed(self, result: dict, declared: list[dict]) -> None:
        text = printed(result)
        line = run.result_line([result])
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(line["metrics"]), {m["name"] for m in declared})
        for metric in declared:
            self.assertRegex(text, rf"\] {metric['name']} = -?[0-9.e+-]+ {metric['unit']}\b")
            self.assertEqual(line["metrics"][metric["name"]]["unit"], metric["unit"])
        self.assertIn("failed_frac = 0/", text)
        self.assertTrue(line["correct"], text)

    def test_end_to_end_metrics_printed_with_units(self):
        for group in ("sweeps", "small"):
            result = self.measure(group, trace=0)
            self.assert_metrics_printed(result, BENCHMARK["end_to_end"])
            self.assertIn("nproc=", printed(result))

    def test_per_layer_metrics_printed_with_units(self):
        for group in ("sweeps", "small"):
            result = self.measure(group, trace=1)
            self.assert_metrics_printed(result, BENCHMARK["per_layer"])
            self.assertIn("trace=True", printed(result))

    def test_gate_rejects_altered_stdout(self):
        entry = self.catalogue[0]
        good = subprocess.run([sys.executable, "-m", "classprod.cli", *entry["argv"]],
                              cwd=ROOT, env=run.Runner(ROOT).env, capture_output=True).stdout
        self.assertIsNone(gate(entry, 0, good))
        altered = good.replace(b'"covered"', b'"covered" ', 1)
        self.assertIsNotNone(gate(entry, 0, altered))
        self.assertIsNotNone(gate(entry, 1, good))

    def test_mismatch_counts_as_failed(self):
        catalogue = [dict(e, sha256="0" * 64) if e["kind"] == "classes" else e
                     for e in self.catalogue]
        result = run.run_workload(tiny_workload("small"), catalogue, 1, 0, 0, ROOT)
        self.assertEqual(result["failed"], 1)
        self.assertFalse(run.result_line([result])["correct"])

    def test_refuses_to_run_without_sources(self):
        bare = ROOT / run.RESULTS_DIR / "smoke-bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "queries", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
