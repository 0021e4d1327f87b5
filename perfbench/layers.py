"""Per-layer timing by wrapping each module's public entry points.

The benchmark measures layers from its own files: :func:`traced`
replaces a fixed list of functions and methods of the program with
timing wrappers for the duration of a ``with`` block and restores the
originals afterwards.  Nothing under ``src/`` changes.

A wrapper records, per layer, the number of calls and the *self* time:
its own wall time minus the time spent in nested wrapped calls on the
same thread, so the self times of one round add up to at most the
round's wall time and a layer is never charged for the layers it
calls.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import threading
import time
from collections import defaultdict


class LayerTimer:
    """Thread-safe accumulator of per-layer calls and self time."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()

    def snapshot(self) -> tuple[dict, dict]:
        with self._lock:
            return dict(self.self_s), dict(self.calls)

    def wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            stack.append(0.0)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with self._lock:
                    self.self_s[layer] += elapsed - nested
                    self.calls[layer] += 1

        return timed


TARGETS = (
    # (layer, module, qualified name)
    ("ir.build_app", "repro.apps.registry", "build_app"),
    ("ir.build_app", "repro.synth.spec", "CaseSpec.build"),
    ("core.context.build", "repro.core.context", "AnalysisContext.__init__"),
    ("core.assignment.greedy", "repro.core.assignment", "GreedyAssigner.run"),
    ("core.te.run", "repro.core.te", "TimeExtensionEngine.run"),
    ("core.costs.estimate", "repro.core.costs", "estimate_cost"),
    ("search.portfolio.run", "repro.search.portfolio", "PortfolioRunner.run"),
    ("core.frontier.score", "repro.search.state", "SearchState.score_frontier"),
    ("sim.simulate", "repro.sim.engine", "Simulator.run"),
    ("analysis.sweep.run", "repro.analysis.sweep", "ParallelSweepRunner.run"),
    ("analysis.export.from_state", "repro.analysis.export", "result_from_state"),
    ("analysis.export.to_dict", "repro.analysis.export", "result_to_dict"),
    ("service.store.get_result", "repro.service.store", "ResultStore.get_result"),
    ("service.store.try_claim", "repro.service.store", "ResultStore.try_claim"),
    ("service.store.put", "repro.service.store", "ResultStore.put"),
    ("service.queue.result", "repro.service.queue", "ExplorationService.result"),
    ("service.queue.flush", "repro.service.queue", "ExplorationService.flush"),
    ("service.rpc.dispatch", "repro.service.rpc", "JsonRpcFrontend.dispatch"),
    ("service.rpc.encode", "repro.service.rpc", "encode_response"),
)


def _patch_function(module, name: str, wrapper, undo: list) -> None:
    """Rebind a module-level function everywhere it was imported.

    ``from repro.core.costs import estimate_cost`` copies the binding
    into the importing module, so every ``repro.*`` module holding the
    original object gets the wrapper.
    """
    original = getattr(module, name)
    for other in list(sys.modules.values()):
        if getattr(other, "__name__", "").startswith("repro") and (
            getattr(other, name, None) is original
        ):
            setattr(other, name, wrapper)
            undo.append((other, name, original))


@contextlib.contextmanager
def traced(timer: LayerTimer):
    """Install the timing wrappers of :data:`TARGETS` for the block."""
    undo: list[tuple[object, str, object]] = []
    try:
        for layer, module_name, qualname in TARGETS:
            module = importlib.import_module(module_name)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, timer.wrap(layer, original))
                undo.append((owner, attr, original))
            else:
                original = getattr(module, qualname)
                _patch_function(
                    module, qualname, timer.wrap(layer, original), undo
                )
        yield timer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


MEMBERS = ("exact", "beam", "annealing", "tabu", "restart")

# (metric name, unit, how it is computed).  "self"/"calls" are per round
# of the workload; "per_call" is the mean self time of one call in
# microseconds; "extra" values are measured by the workload itself.
PER_LAYER = (
    ("ir.build_app_s", "s", "self", "ir.build_app"),
    ("core.context.build_s", "s", "self", "core.context.build"),
    ("core.assignment.greedy_s", "s", "self", "core.assignment.greedy"),
    ("core.assignment.moves", "count", "extra", None),
    ("core.incremental.hit_ratio", "ratio", "extra", None),
    ("core.te.run_s", "s", "self", "core.te.run"),
    ("core.costs.estimate_s", "s", "self", "core.costs.estimate"),
    ("core.costs.estimate_calls", "count", "calls", "core.costs.estimate"),
    ("search.portfolio.run_s", "s", "self", "search.portfolio.run"),
    *(
        (f"search.{member}.{field}", "count", "extra", None)
        for member in MEMBERS
        for field in ("nodes", "wins")
    ),
    ("search.value_ratio", "ratio", "extra", None),
    ("core.frontier.score_calls", "count", "calls", "core.frontier.score"),
    ("sim.simulate_s", "s", "self", "sim.simulate"),
    ("sim.fills", "count", "extra", None),
    ("sim.writebacks", "count", "extra", None),
    ("sim.host_us_per_fill", "us", "extra", None),
    ("analysis.sweep.run_s", "s", "self", "analysis.sweep.run"),
    ("service.rpc.parse_us", "us", "extra", None),
    ("service.rpc.dispatch_us", "us", "per_call", "service.rpc.dispatch"),
    ("service.queue.result_us", "us", "per_call", "service.queue.result"),
    ("service.store.get_result_us", "us", "per_call", "service.store.get_result"),
    ("analysis.export.from_state_us", "us", "per_call", "analysis.export.from_state"),
    ("analysis.export.to_dict_us", "us", "per_call", "analysis.export.to_dict"),
    ("service.rpc.encode_us", "us", "per_call", "service.rpc.encode"),
    ("service.server.rpc_mean_us", "us", "extra", None),
    ("service.server.wire_us", "us", "extra", None),
    ("service.server.result_p99_ms", "ms", "extra", None),
    ("service.store.open_s", "s", "extra", None),
    ("service.store.try_claim_us", "us", "extra", None),
    ("service.store.put_us", "us", "extra", None),
    ("service.queue.flush_s", "s", "extra", None),
    ("service.queue.claims_won_min", "count", "extra", None),
    ("service.queue.claims_won_max", "count", "extra", None),
    ("service.queue.claims_yielded", "count", "extra", None),
    ("service.queue.resolved_remote", "count", "extra", None),
    ("service.queue.evaluated", "count", "extra", None),
    ("trace.overhead_ratio", "ratio", "extra", None),
)


def per_layer_metrics(timer: LayerTimer, rounds: int, extra: dict) -> dict:
    """Every per-layer metric, 0 for a layer the workload never entered."""
    self_s, calls = timer.snapshot()
    metrics = {}
    for name, unit, kind, layer in PER_LAYER:
        if kind == "self":
            value = self_s.get(layer, 0.0) / rounds
        elif kind == "calls":
            value = calls.get(layer, 0) / rounds
        elif kind == "per_call":
            count = calls.get(layer, 0)
            value = self_s.get(layer, 0.0) / count * 1e6 if count else 0.0
        else:
            value = extra.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
    unknown = set(extra) - {name for name, *_ in PER_LAYER}
    if unknown:
        raise KeyError(f"unknown per-layer metrics {sorted(unknown)}")
    return metrics
