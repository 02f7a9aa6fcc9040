"""Self-test of the benchmark at the tiny size: BENCHMARK.json's schema,
the result line of every workload in both modes, the correctness checks
fed with bad outputs, and the refusal to run without the program source.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600,
    )
    return proc


class TestSchema(unittest.TestCase):
    def test_benchmark_json(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual(SPEC["paths"], ["perfbench"])
        self.assertIsInstance(SPEC["run_seconds"], int)
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"])
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in SPEC["end_to_end"]))


class TestResultLines(unittest.TestCase):
    """Every workload at the tiny size, untraced and traced."""

    results = {}

    @classmethod
    def setUpClass(cls):
        for name in workloads.WORKLOADS:
            for trace in (0, 1):
                proc = run_bench(name, trace)
                assert proc.returncode == 0, proc.stderr
                cls.results[name, trace] = json.loads(proc.stdout.splitlines()[-1])

    def test_keys_units_and_values(self):
        for (name, trace), result in self.results.items():
            declared = SPEC["per_layer" if trace else "end_to_end"]
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(list(result["metrics"]), [m["name"] for m in declared])
            for m in declared:
                value = result["metrics"][m["name"]]
                self.assertEqual(value["unit"], m["unit"])
                self.assertTrue(math.isfinite(value["value"]), (name, m["name"]))
                if not trace:
                    self.assertGreater(value["value"], 0, (name, m["name"]))

    def test_checks_pass_on_the_program(self):
        # desk_cv at the tiny size trains one epoch, too few to beat a
        # constant predictor, so only its row count is asserted
        for trace in (0, 1):
            for name in ("paper_step", "featurize"):
                result = self.results[name, trace]
                self.assertEqual((result["correct"], result["failed"]), (True, 0), name)
            self.assertEqual(self.results["desk_cv", trace]["attempted"], 2)

    def test_traced_counts(self):
        calls = "load_wav.calls_per_recording"
        self.assertEqual(self.results["featurize", 1]["metrics"][calls]["value"], 1.0)
        self.assertEqual(self.results["desk_cv", 1]["metrics"][calls]["value"], 2.0)
        paper = self.results["paper_step", 1]["metrics"]
        self.assertGreater(paper["BiGRU.fwd_ms.crnn"]["value"], 0)
        self.assertEqual(paper["load_wav.ms_per_rec"]["value"], 0)


class TestChecks(unittest.TestCase):
    def test_history(self):
        self.assertTrue(workloads.check_history([(1, 1.3, float("nan"))]))
        self.assertFalse(workloads.check_history([(1, float("nan"), 0.0)]))
        self.assertFalse(workloads.check_history([]))

    def test_probs(self):
        good = {"a": np.array([0.25, 0.25, 0.25, 0.25]), "b": np.array([1.0, 0, 0, 0])}
        self.assertTrue(workloads.check_probs(good, 2))
        self.assertFalse(workloads.check_probs(good, 3))
        off = dict(good, b=np.array([1.0, 1e-4, 0, 0]))
        self.assertFalse(workloads.check_probs(off, 2))
        neg = dict(good, b=np.array([1.5, -0.5, 0, 0]))
        self.assertFalse(workloads.check_probs(neg, 2))

    def test_features(self):
        spec = np.linspace(-3.0, 2.0, 64 * 10).reshape(64, 10)
        feats = {"r_c00": SimpleNamespace(spec=spec)}
        digest = [["r_c00"] + workloads.spectrogram_digest(spec)]
        self.assertTrue(workloads.check_features(feats, [10], digest))
        # a change the size of a resampler rewrite (~1e-10) passes
        nudged = {"r_c00": SimpleNamespace(spec=spec + 1e-10)}
        self.assertTrue(workloads.check_features(nudged, [10], digest))
        broken = {"r_c00": SimpleNamespace(spec=spec * (1 + 1e-4))}
        self.assertFalse(workloads.check_features(broken, [10], digest))
        self.assertFalse(workloads.check_features(feats, [11], digest))
        self.assertFalse(workloads.check_features({}, [], digest))

    def test_expected_frames(self):
        # a 2.5 s cycle tiles 3 times to 7.5 s: (120000 - 1024) // 256 + 1
        self.assertEqual(workloads.expected_frames("0.3 2.8 0 0\n", 400000), [465])
        # a cycle clipped by the end of the audio
        self.assertEqual(workloads.expected_frames("0.0 10.0 0 0\n", 160000), [622])

    def test_report(self):
        def row(task, score):
            return SimpleNamespace(task=task, setting="0.5s", icbhi_score=score)

        good = SimpleNamespace(rows=[row("Task1_4class", 0.8), row("Task1_2class", 0.9)])
        self.assertEqual(workloads.check_report(good, 0.5), [True, True])
        chance = SimpleNamespace(rows=[row("Task1_4class", 0.5), row("Task1_2class", 0.9)])
        self.assertEqual(workloads.check_report(chance, 0.5), [False, True])
        missing = SimpleNamespace(rows=[row("Task1_4class", 0.8)])
        self.assertEqual(workloads.check_report(missing, 0.5), [True, False])


class TestBareDirectory(unittest.TestCase):
    def test_refuses_without_program_source(self):
        bare = Path(tempfile.mkdtemp(dir=ROOT / ".bench_out"))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("featurize", 0, cwd=bare, script=bare / "perfbench" / "run.py")
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    unittest.main(verbosity=2)
