"""Workload ``explore``: the exploration pipeline in-process, serial.

One round runs three phases, each operation timed on its own:

* **sweep** — the paper grid (9 apps x 2 platforms x 3 objectives,
  greedy) plus a seeded synthetic suite, cell by cell through
  ``ParallelSweepRunner(jobs=1)``;
* **search** — the portfolio at a fixed node budget and search seed on
  3 paper apps, the greedy-suboptimal seeds and a seeded synthetic
  draw, each case on its ``generate_case`` platform and objective;
* **simulate** — ``repro simulate`` for each paper app: explore on the
  default platform, then simulate ``mhla`` and ``mhla_te``.

Every model layer works here and no service layer does.
"""

from __future__ import annotations

import subprocess
import sys
import time
from dataclasses import dataclass

from checks import check_portfolio, check_scenarios, check_simulation
from common import BENCH_DIR, SRC, geomean, median, paper_ratios, require
from layers import MEMBERS, LayerTimer, per_layer_metrics, traced
from repro.analysis.export import result_to_dict
from repro.analysis.sweep import ParallelSweepRunner, full_grid, synthetic_grid
from repro.apps import all_app_names, build_app
from repro.core.assignment import GreedyAssigner, Objective
from repro.core.context import AnalysisContext
from repro.core.mhla import Mhla
from repro.memory.presets import embedded_3layer
from repro.search import PortfolioRunner, SearchBudget
from repro.sim import simulate
from repro.synth import case_seed, generate_case

SYNTH_SWEEP_APPS = 40
"""Generated apps in the sweep (each on both grid platforms, EDP)."""
PORTFOLIO_APPS = ("voice_coder", "jpeg_dct", "edge_detection")
GAP_SEEDS = (47, 112, 135, 144, 151, 171, 183)
"""Cases where an oracle scan proved greedy suboptimal."""
SYNTH_PORTFOLIO_CASES = 4
PORTFOLIO_BUDGET = 800
SEARCH_SEED = 0
SETUP_PROBES = 5


@dataclass(frozen=True)
class Inputs:
    cells: tuple
    cases: tuple  # ("app", name) or ("synth", CaseSpec)
    sim_apps: tuple


def make_inputs(seed: int) -> Inputs:
    """The round's operations; the seed draws the synthetic suites."""
    synthetic = tuple(
        ("synth", generate_case(case_seed(seed, SYNTH_SWEEP_APPS + index)))
        for index in range(SYNTH_PORTFOLIO_CASES)
    )
    return Inputs(
        cells=full_grid() + synthetic_grid(SYNTH_SWEEP_APPS, seed=seed),
        cases=tuple(("app", name) for name in PORTFOLIO_APPS)
        + tuple(("synth", generate_case(s)) for s in GAP_SEEDS)
        + synthetic,
        sim_apps=all_app_names(),
    )


def _case_label(case) -> str:
    kind, what = case
    return what if kind == "app" else f"synth/{what.seed}"


def _build_case(case):
    kind, what = case
    if kind == "app":
        return build_app(what), embedded_3layer(), Objective.EDP
    return what.build()


def run_round(inputs: Inputs) -> dict:
    """One round; returns per-operation times and every output."""
    runner = ParallelSweepRunner(jobs=1)
    times = {"sweep": [], "search": [], "simulate": []}
    sweep = []
    for cell in inputs.cells:
        started = time.perf_counter()
        (outcome,) = runner.run((cell,))
        times["sweep"].append(time.perf_counter() - started)
        sweep.append(outcome)
    search = []
    for case in inputs.cases:
        started = time.perf_counter()
        program, platform, objective = _build_case(case)
        ctx = AnalysisContext(program, platform)
        portfolio = PortfolioRunner(
            ctx,
            objective=objective,
            budget=SearchBudget(nodes=PORTFOLIO_BUDGET),
            seed=SEARCH_SEED,
        )
        assignment, trace = portfolio.run()
        times["search"].append(time.perf_counter() - started)
        search.append((case, ctx, objective, assignment, trace, portfolio.outcomes))
    sims = []
    for app in inputs.sim_apps:
        started = time.perf_counter()
        tool = Mhla(build_app(app), embedded_3layer())
        result = tool.explore()
        stats = {
            name: simulate(
                tool.ctx,
                result.scenario(name).assignment,
                result.scenario(name).te,
            )
            for name in ("mhla", "mhla_te")
        }
        times["simulate"].append(time.perf_counter() - started)
        sims.append((app, result, stats))
    return {"times": times, "sweep": sweep, "search": search, "sims": sims}


def digest(output: dict) -> tuple:
    """Every result value of a round, for round-to-round determinism."""
    return (
        tuple(
            (o.error, o.result and tuple(
                (s.cycles, s.energy_nj) for s in o.result.scenarios.values()
            ))
            for o in output["sweep"]
        ),
        tuple(
            (trace.final_value, assignment.selected_uids(),
             tuple(sorted(assignment.array_home.items())))
            for _case, _ctx, _obj, assignment, trace, _outs in output["search"]
        ),
        tuple(
            (stats["mhla"].cycles, stats["mhla_te"].cycles)
            for _app, _result, stats in output["sims"]
        ),
    )


def check_round(output: dict) -> None:
    """Check every output of a round against the method's properties.

    Stores the independently computed greedy value of each search case
    under ``output["greedy"]``.
    """
    contexts = {}
    for outcome in output["sweep"]:
        if not outcome.ok:
            continue
        cell = outcome.cell
        recipe = (cell.app, cell.platform)
        if recipe not in contexts:
            contexts[recipe] = AnalysisContext(
                build_app(cell.app), cell.platform.build()
            )
        check_scenarios(
            f"{cell.app}/{cell.platform.name}/{cell.objective.value}",
            outcome.result,
            cell.objective,
            contexts[recipe],
        )
    output["greedy"] = []
    for case, ctx, objective, assignment, trace, outcomes in output["search"]:
        _greedy, greedy_trace = GreedyAssigner(ctx, objective=objective).run()
        output["greedy"].append(greedy_trace.final_value)
        check_portfolio(
            _case_label(case), ctx, objective, assignment,
            trace.final_value, greedy_trace.final_value,
        )
        require(
            sum(outcome.winner for outcome in outcomes) <= 1,
            f"{_case_label(case)}: more than one portfolio winner",
        )
    for app, result, stats in output["sims"]:
        check_simulation(
            app,
            result.scenario("ideal").cycles,
            stats["mhla_te"].cycles,
            stats["mhla"].cycles,
        )


def setup_seconds(seed: int) -> list[float]:
    """Fresh-interpreter import plus input generation, several times."""
    probe = (
        f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH_DIR)!r}]; "
        f"import explore; explore.make_inputs({seed})"
    )
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", probe], check=True)
        samples.append(time.perf_counter() - started)
    return samples


def _rounds(inputs: Inputs, seconds: float, first: dict | None):
    """Whole rounds until *seconds* pass.

    The first round ever run is checked in full and kept; every later
    round must reproduce its results exactly and keeps only its times,
    so memory stays flat however long the run.
    """
    rounds = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        started = time.perf_counter()
        output = run_round(inputs)
        wall_s = time.perf_counter() - started
        if first is None:
            check_round(output)
            first = output
        else:
            require(
                digest(output) == digest(first),
                "a repeated round produced different results",
            )
        rounds.append({"times": output["times"], "wall_s": wall_s})
    return rounds, first


def run(seed: int, seconds: float, trace: bool) -> dict:
    inputs = make_inputs(seed)
    setup = [] if trace else setup_seconds(seed)
    run_round(inputs)  # warm-up: lazy imports and first-touch caches
    rounds, first = _rounds(inputs, seconds / 2 if trace else seconds, None)
    ops = sum(len(v) for v in first["times"].values())
    failed = sum(not o.ok for o in first["sweep"])
    report = {
        "rounds": len(rounds),
        "ops_per_round": ops,
        **{
            f"{phase}_s": median(sum(r["times"][phase]) for r in rounds)
            for phase in ("sweep", "search", "simulate")
        },
    }
    report["text"] = [
        f"  {len(rounds)} rounds of {ops} operations; phase medians: "
        + ", ".join(
            f"{phase} {report[f'{phase}_s']:.3f} s"
            for phase in ("sweep", "search", "simulate")
        )
    ]
    if not trace:
        paper = [
            result_to_dict(o.result)
            for o in first["sweep"][: len(full_grid())] if o.ok
        ]
        metrics = {
            "setup_s": median(setup),
            "ops_per_s": ops / _robust_round_s(rounds),
            # the paper-grid cells: the one operation kind whose inputs
            # do not depend on the seed
            "op_p50_ms": median(
                t for r in rounds for t in r["times"]["sweep"][: len(full_grid())]
            ) * 1e3,
            **paper_ratios(paper),
        }
        return {"metrics": metrics, "attempted": ops * len(rounds),
                "failed": failed * len(rounds), "report": report}

    timer = LayerTimer()
    with traced(timer):
        traced_rounds, _ = _rounds(inputs, seconds / 2, first)
    extra = _round_counts(first)
    self_s, _calls = timer.snapshot()
    fills = extra["sim.fills"] * len(traced_rounds)
    extra["sim.host_us_per_fill"] = (
        self_s.get("sim.simulate", 0.0) / fills * 1e6 if fills else 0.0
    )
    extra["trace.overhead_ratio"] = median(
        r["wall_s"] for r in traced_rounds
    ) / median(r["wall_s"] for r in rounds)
    total = len(rounds) + len(traced_rounds)
    return {
        "metrics": per_layer_metrics(timer, len(traced_rounds), extra),
        "attempted": ops * total,
        "failed": failed * total,
        "report": report,
    }


def _robust_round_s(rounds) -> float:
    """A round's time rebuilt from each operation's median across rounds.

    Every round runs the same operations in the same order, so taking
    each operation's median before summing filters out a stall that
    hits one round without discarding whole rounds.
    """
    return sum(
        median(r["times"][phase][i] for r in rounds)
        for phase in rounds[0]["times"]
        for i in range(len(rounds[0]["times"][phase]))
    )


def _round_counts(output: dict) -> dict:
    """Per-round counters from the search traces and simulator stats.

    Every round reproduces the first exactly, so the first round's
    counts are every round's.
    """
    extra = {
        f"search.{member}.{field}": 0
        for member in MEMBERS
        for field in ("nodes", "wins")
    }
    moves = hits = lookups = 0
    for outcome in output["sweep"]:
        if outcome.ok:
            stats = outcome.result.scenario("mhla").trace.stats
            moves += stats.moves_evaluated
            hits += stats.cache_hits
            lookups += stats.cache_hits + stats.cache_misses
    for *_, outcomes in output["search"]:
        for outcome in outcomes:
            extra[f"search.{outcome.strategy}.nodes"] += outcome.nodes
            extra[f"search.{outcome.strategy}.wins"] += outcome.winner
    extra["search.value_ratio"] = geomean(
        trace.final_value / greedy
        for (*_, trace, _outcomes), greedy in zip(output["search"], output["greedy"])
    )
    extra["core.assignment.moves"] = moves
    extra["core.incremental.hit_ratio"] = hits / lookups if lookups else 0.0
    sims = [sim for *_, stats in output["sims"] for sim in stats.values()]
    extra["sim.fills"] = sum(sim.fills_executed for sim in sims)
    extra["sim.writebacks"] = sum(sim.writebacks_executed for sim in sims)
    return extra
