"""Self-test of the benchmark harness itself, at desk size (about a minute).

    python3 perfbench/selftest.py

Runs every workload with ``--tiny`` for one repetition, tracing off and on,
each in a fresh process as the benchmark is run.  Asserts that every metric
BENCHMARK.json names is emitted with its unit, and that a forced bad output
makes the run fail: ``failed`` above zero, ``correct`` false, exit code 1.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench_args(workload: str, trace: int) -> list[str]:
    return ["--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", str(trace), "--tiny"]


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


class HarnessTest(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            wanted = {m["name"]: m["unit"] for m in SPEC[section]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    proc = subprocess.run(
                        [sys.executable, str(HERE / "run.py"), *bench_args(workload, trace)],
                        cwd=ROOT, capture_output=True, text=True, timeout=300)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    result = last_json(proc.stdout)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, wanted)
                    for name, v in result["metrics"].items():
                        self.assertIsInstance(v["value"], (int, float), name)
                    if trace == 0:
                        for name, v in result["metrics"].items():
                            self.assertGreater(v["value"], 0, name)

    def test_forced_bad_output_raises_error_rate(self):
        sys.path[:0] = [str(ROOT / "src"), str(HERE)]
        import run
        import workloads as W
        from voxformer import cli, train

        real_training = train.run_training

        def training_without_done(run_cfg, data_dir, out_dir):
            rows = real_training(run_cfg, data_dir, out_dir)
            path = Path(out_dir) / train.METRICS_NAME
            path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
            return rows

        def eval_printing_wrong_accuracy(args):
            print(json.dumps({"accuracy": -1.0, "n": 0, "confusion": {}}))
            return 0

        faults = {"train": lambda: mock.patch.object(train, "run_training", training_without_done),
                  "eval": lambda: mock.patch.dict(cli.COMMANDS, eval=eval_printing_wrong_accuracy)}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                with faults[W.WORKLOADS[workload].task]():
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = run.main(bench_args(workload, 0))
                result = last_json(out.getvalue())
                self.assertEqual(code, 1)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertIn("check failed:", out.getvalue())


if __name__ == "__main__":
    unittest.main()
