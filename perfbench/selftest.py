"""Tests of the benchmark itself (about four minutes: four traced runs).

    python3 perfbench/selftest.py

Kept out of the repository's pytest collection on purpose: the traced runs
are far slower than the unit tests.
"""

from __future__ import annotations

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from jobs import DEFAULT_SEED, WORKLOADS, surface_texts  # noqa: E402
from run import END_TO_END, measure  # noqa: E402
from tracer import LAYER_METRICS, TARGETS  # noqa: E402

# the workload that must call each traced function (see README.md)
EXERCISED = {
    "audit": ["polyring.mul", "polyring.add", "polyring.resultant", "polyring.gcd_univariate",
              "polyring.poly_substitute", "polyring.str", "genericity.audit",
              "genericity.pair_check", "genericity.shear", "cli.load_surface", "cli.emit",
              "jetbuilder.jet_term_base", "linalg.row_echelon", "injectivity.matrix",
              "injectivity.analyze", "sampling.generic_surface"],
    "solve": ["jetbuilder.expand_lambda", "jetbuilder.build_jet", "divisibility.assemble",
              "divisibility.kernel_basis", "divisibility.build_section", "linalg.nullspace",
              "polyring.monomial_quotient", "surfacecharts.restrict", "surfacecharts.transfer",
              "surfacecharts.derivative_transfer"],
}
COUNT_UNITS = ("count", "bits", "bytes")
_runs: dict[str, list[tuple[dict, dict]]] = {}


def traced(workload: str) -> list[tuple[dict, dict]]:
    """Two traced runs of the workload at the default seed, made once."""
    if workload not in _runs:
        _runs[workload] = [measure(workload, DEFAULT_SEED, 1, trace=True) for _ in range(2)]
    return _runs[workload]


def value(result: dict, name: str):
    return result["metrics"][name]["value"]


class GeneratorTest(unittest.TestCase):
    def test_deterministic_per_seed(self):
        for workload, (surfaces, _) in WORKLOADS.items():
            if surfaces:
                self.assertEqual(surface_texts(workload, 5), surface_texts(workload, 5))
                self.assertNotEqual(surface_texts(workload, 5), surface_texts(workload, 6))


class DeclarationTest(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as f:
            declared = json.load(f)
        self.assertEqual([w["name"] for w in declared["workloads"]], list(WORKLOADS))
        for key, metrics in (("end_to_end", END_TO_END), ("per_layer", LAYER_METRICS)):
            self.assertEqual([(m["name"], m["unit"]) for m in declared[key]], list(metrics))


class TracedRunTest(unittest.TestCase):
    def test_runs_are_correct(self):
        for workload in WORKLOADS:
            for result, summary in traced(workload):
                self.assertTrue(result["correct"], summary["failures"])
                self.assertEqual(set(result["metrics"]), {name for name, _ in LAYER_METRICS})

    def test_every_wrapper_is_exercised(self):
        self.assertEqual(sorted(n for names in EXERCISED.values() for n in names),
                         sorted(TARGETS))
        for workload, names in EXERCISED.items():
            result, _ = traced(workload)[0]
            for name in names:
                self.assertGreater(value(result, f"{name}.calls"), 0, (workload, name))

    def test_force_bypasses_the_audit(self):
        result, _ = traced("solve")[0]
        for name, _ in LAYER_METRICS:
            if name.startswith("genericity.") and name.endswith(".calls"):
                self.assertEqual(value(result, name), 0, name)

    def test_counts_repeat_exactly(self):
        for workload in WORKLOADS:
            (first, _), (second, _) = traced(workload)
            for name, unit in LAYER_METRICS:
                if unit in COUNT_UNITS or name.endswith("_ratio") and name != "trace.overhead_ratio":
                    self.assertEqual(value(first, name), value(second, name), (workload, name))

    def test_self_time_within_wall_time(self):
        for workload in WORKLOADS:
            for result, summary in traced(workload):
                self_s = sum(value(result, name) for name, _ in LAYER_METRICS
                             if name.endswith(".self_s"))
                self.assertGreater(self_s, 0)
                self.assertLessEqual(self_s, summary["traced_s"])

    def test_no_errors_through_wrappers(self):
        for workload in WORKLOADS:
            result, _ = traced(workload)[0]
            for name, _ in LAYER_METRICS:
                if name.endswith(".errors"):
                    self.assertEqual(value(result, name), 0, (workload, name))


if __name__ == "__main__":
    unittest.main()
