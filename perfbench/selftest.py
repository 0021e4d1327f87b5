"""Self-tests of the benchmark: its checks reject wrong outputs.

Each checker test hands a checker a deliberately wrong output and
asserts it is rejected, after asserting the genuine output passes.
The smoke tests run every workload once at minimal length in both
modes and compare the printed metrics with ``BENCHMARK.json``.

Run from the root of a checkout::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import dataclasses
import json
import pathlib
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

from checks import (  # noqa: E402
    check_fleet,
    check_legal_and_fits,
    check_portfolio,
    check_scenarios,
    check_served_result,
)
from common import CheckFailed, work_dir  # noqa: E402
from repro.analysis.export import result_to_dict  # noqa: E402
from repro.apps import build_app  # noqa: E402
from repro.core.assignment import GreedyAssigner, Objective  # noqa: E402
from repro.core.mhla import Mhla  # noqa: E402
from repro.memory.presets import embedded_3layer  # noqa: E402


def _explored(app: str = "qsdpcm"):
    tool = Mhla(build_app(app), embedded_3layer())
    return tool.ctx, tool.explore()


def _with_report(result, scenario: str, **changes):
    """*result* with fields of one scenario's cost report replaced."""
    scenarios = dict(result.scenarios)
    old = scenarios[scenario]
    scenarios[scenario] = dataclasses.replace(
        old, report=dataclasses.replace(old.report, **changes)
    )
    return dataclasses.replace(result, scenarios=scenarios)


class CheckerRejectsWrongOutput(unittest.TestCase):
    def test_mhla_te_energy_differing_from_mhla(self):
        ctx, result = _explored()
        check_scenarios("genuine", result, Objective.EDP, ctx)
        energy = result.scenario("mhla_te").energy_nj
        wrong = _with_report(result, "mhla_te", energy_nj=energy * 1.001)
        with self.assertRaisesRegex(CheckFailed, "energies differ"):
            check_scenarios("wrong", wrong, Objective.EDP, ctx)

    def test_assignment_over_capacity(self):
        ctx, result = _explored()
        assignment = result.scenario("mhla").assignment
        check_legal_and_fits("genuine", ctx, assignment)
        smallest = min(
            ctx.platform.hierarchy.layers[1:], key=lambda l: l.capacity_bytes
        )
        biggest = max(ctx.program.arrays.values(), key=lambda a: a.bytes)
        self.assertGreater(biggest.bytes, smallest.capacity_bytes)
        # no copies, so only the capacity, not chain legality, is wrong
        wrong = ctx.out_of_box_assignment().with_home(
            biggest.name, smallest.name
        )
        with self.assertRaisesRegex(CheckFailed, "capacity"):
            check_legal_and_fits("wrong", ctx, wrong)

    def test_portfolio_value_above_greedy(self):
        ctx, _result = _explored()
        assignment, trace = GreedyAssigner(ctx, objective=Objective.EDP).run()
        value = trace.final_value
        check_portfolio("genuine", ctx, Objective.EDP, assignment, value, value)
        with self.assertRaisesRegex(CheckFailed, "above greedy"):
            check_portfolio(
                "wrong", ctx, Objective.EDP, assignment, value * 1.01, value
            )

    def test_fleet_evaluated_above_unique_cells(self):
        keys = ["a" * 64, "b" * 64]
        rows = [{"key": key, "status": "done"} for key in keys]
        check_fleet(keys, [rows, rows[::-1]], [2, 0])
        with self.assertRaisesRegex(CheckFailed, "evaluated 3 cells"):
            check_fleet(keys, [rows, rows[::-1]], [2, 1])

    def test_result_cycles_differing_from_reference(self):
        _ctx, result = _explored()
        reference = result_to_dict(result)
        check_served_result("k" * 64, copy.deepcopy(reference), reference)
        wrong = copy.deepcopy(reference)
        wrong["scenarios"]["mhla_te"]["cycles"] += 1
        with self.assertRaisesRegex(CheckFailed, "cycles"):
            check_served_result("k" * 64, wrong, reference)


def _run_bench(cwd: pathlib.Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0.01", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


class Smoke(unittest.TestCase):
    """Every workload, one round, both modes, against BENCHMARK.json."""

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_every_workload_prints_its_metrics(self):
        for workload in (w["name"] for w in self.spec["workloads"]):
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    done = _run_bench(ROOT, workload, trace)
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = json.loads(done.stdout.splitlines()[-1])
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed", "metrics"}
                    )
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    expected = {m["name"]: m["unit"] for m in self.spec[kind]}
                    got = {n: m["unit"] for n, m in result["metrics"].items()}
                    self.assertEqual(got, expected)

    def test_fails_without_the_program(self):
        with work_dir() as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(
                BENCH_DIR, bare / "perfbench",
                ignore=shutil.ignore_patterns(".work", "__pycache__"),
            )
            done = _run_bench(bare, "explore", 0)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
