"""Smoke self-test of the benchmark itself (about half a minute).

    python3 perfbench/selftest.py

Checks that every workload runs a few ops in both modes, that the metric
names and units the runner emits are exactly those in ``BENCHMARK.json``,
that failures are counted once per input, and that each workload's checker
flags a deliberately corrupted result (corrupted here, after the library
returned a correct one).
"""

import itertools
import json
import math
import sys
import unittest
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402

run.cap_blas_threads()

import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _first_passing(workload, seed=3, kind=None):
    """A spec of the workload (of the given probe kind) with its good result."""
    for spec in workload.specs(seed):
        if kind is not None and spec[0] != kind:
            continue
        result = workload.run(spec)
        if workload.check(spec, result) is None:
            return spec, result
    raise AssertionError("unreachable: specs are endless")


class WorkloadsRun(unittest.TestCase):
    def test_every_workload_emits_every_metric(self):
        end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(workloads.WORKLOADS))
        for name in workloads.WORKLOADS:
            for trace, expected in ((False, end_to_end), (True, per_layer)):
                with self.subTest(workload=name, trace=trace):
                    metrics, log, _ = run.run_workload(
                        name, seed=5, seconds=60.0, trace=trace,
                        setup_repeats=1, max_ops=3)
                    self.assertEqual(log.attempted, 3)
                    self.assertEqual(log.unchecked, 0)
                    self.assertEqual({k: u for k, (_, u) in metrics.items()},
                                     expected)
                    for key, (value, _) in metrics.items():
                        self.assertTrue(math.isfinite(value), key)


class PanelStub:
    """Cycles through inputs 0-3: input 1 always raises, input 2 fails its
    check on its second visit only."""

    panel_size = 4

    def __init__(self):
        self.visits = Counter()

    def specs(self, seed):
        return itertools.cycle(range(self.panel_size))

    def run(self, spec):
        if spec == 1:
            raise ValueError("always")
        return spec

    def check(self, spec, result):
        self.visits[spec] += 1
        return "second visit" if spec == 2 and self.visits[spec] == 2 else None

    def points(self, spec, result):
        return 1


class FailureAccounting(unittest.TestCase):
    def test_panel_runs_in_full_past_the_deadline(self):
        log = run.run_ops(PanelStub(), seed=0, seconds=0.0)
        self.assertEqual((log.attempted, len(log.latencies)), (4, 4))
        self.assertEqual((log.failed, dict(log.errors)), (1, {"untyped": 1}))

    def test_an_input_fails_once_whichever_of_its_ops_failed(self):
        log = run.run_ops(PanelStub(), seed=0, seconds=60.0, max_ops=12)
        self.assertEqual((log.attempted, len(log.latencies)), (4, 12))
        self.assertEqual((log.failed, log.passed), (2, 2))
        self.assertEqual(dict(log.errors), {"untyped": 1, "check": 1})


class CheckersFlagCorruption(unittest.TestCase):
    def test_twomode_grid(self):
        workload = workloads.WORKLOADS["twomode_grid"]
        spec = (1.0, 1.0, 0.5, False)
        zeta, r, q = workload.run(spec)
        self.assertIsNone(workload.check(spec, (zeta, r, q)))
        self.assertIsNotNone(workload.check(spec, (zeta, r * 0.999, q)))
        self.assertIsNotNone(workload.check(spec, (0.0, r, q)))
        self.assertIsNotNone(workload.check(spec, (zeta, r, math.nan)))

    def test_scalar_routes(self):
        workload = workloads.WORKLOADS["scalar_routes"]
        for kind in workloads.KINDS:
            spec, good = _first_passing(workload, kind=kind)
            corruptions = {"closed": 1e-7, "sld": 1e-7, "fd": 1e-3}
            if "single_mode_form" in good:
                corruptions["single_mode_form"] = 1e-7
            for key, rel in corruptions.items():
                with self.subTest(kind=kind, route=key):
                    bad = dict(good, **{key: good[key] * (1.0 + rel)})
                    self.assertIsNotNone(workload.check(spec, bad))
            self.assertIsNotNone(workload.check(spec, dict(good, fd=math.inf)))

    def test_cli_readme(self):
        workload = workloads.WORKLOADS["cli_readme"]
        spec = next(workload.specs(0))
        good = workload.run(spec)
        self.assertIsNone(workload.check(spec, good))
        for i in range(len(good)):
            command, code, stdout = good[i]
            flipped = stdout[:-2] + bytes([stdout[-2] ^ 1]) + stdout[-1:]
            for bad_row in ((command, code, flipped), (command, 2, stdout)):
                bad = list(good)
                bad[i] = bad_row
                with self.subTest(command=command, code=bad_row[1]):
                    self.assertIsNotNone(workload.check(spec, bad))


if __name__ == "__main__":
    unittest.main()
