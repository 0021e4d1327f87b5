"""The store's write side: two services fill one empty cache directory.

Part of the traced ``serve-warm`` run.  Two ``ExplorationService``s,
each with its own ``ResultStore`` and server id, share one fresh
directory and run the same cold grid (the paper grid plus the first
:data:`SYNTH_APPS` synthetic apps of the served grid) in two threads,
in opposite orders, :data:`BATCHES` batches each.  Their claims race
through the store's leased ``claim`` records as between two
``repro serve`` processes, on one interpreter lock.  This is the write
side of the ``service.store`` layer (``try_claim``, ``put``, release,
sibling polling) that the warm server only reads.

``ExplorationService.flush`` leases every key of a batch before
evaluating any, so the service that claims first can take most of a
batch while its sibling only waits.  The claim split of every fill is
reported.
"""

from __future__ import annotations

import shutil
import time
from concurrent.futures import ThreadPoolExecutor

from checks import check_fleet, check_served_result
from common import median, require
from layers import LayerTimer, traced
from repro.analysis.export import result_to_dict
from repro.analysis.sweep import full_grid, synthetic_grid
from repro.service import ExplorationService, ResultStore
from repro.service.keys import cell_key

SYNTH_APPS = 40
"""Generated apps in the cold grid (each on both grid platforms)."""
SERVICES = 2
BATCHES = 4
"""Batches per service per fill: the grid in contiguous chunks."""
FILLS = 2
"""Traced fills per run."""


def fleet_orders(seed: int):
    """The cold grid's cells and each service's batches.

    The first service walks the grid front to back, the second back to
    front, each in :data:`BATCHES` chunks run one after another.
    """
    cells = full_grid() + synthetic_grid(SYNTH_APPS, seed=seed)
    bounds = [len(cells) * i // BATCHES for i in range(BATCHES + 1)]
    chunks = [cells[a:b] for a, b in zip(bounds, bounds[1:])]
    return cells, (chunks, [chunk[::-1] for chunk in chunks[::-1]])


def _one_fill(cache, orders, keys, reference) -> dict:
    services = [
        ExplorationService(store=ResultStore(cache, server_id=f"fleet-{i}"))
        for i in range(SERVICES)
    ]

    def run_batches(service, order) -> list:
        return [outcome for chunk in order for outcome in service.run(chunk)]

    started = time.perf_counter()
    with ThreadPoolExecutor(SERVICES) as pool:
        futures = [
            pool.submit(run_batches, service, order)
            for service, order in zip(services, orders)
        ]
        outcomes = [future.result() for future in futures]
    elapsed = time.perf_counter() - started
    rows = [
        [
            {"key": cell_key(o.cell), "status": "done" if o.ok else "failed"}
            for o in per_service
        ]
        for per_service in outcomes
    ]
    check_fleet(keys, rows, [s.stats.evaluated for s in services])
    store = ResultStore(cache)
    for key in keys:
        result = store.get_result(key)
        require(result is not None, f"{key[:12]}: no stored result")
        check_served_result(key, result_to_dict(result), reference[key])
    shutil.rmtree(cache)
    return {
        "elapsed": elapsed,
        "stats": [
            {field: getattr(s.stats, field) for field in (
                "claims_won", "claims_yielded", "resolved_remote", "evaluated",
            )}
            for s in services
        ],
    }


def fleet_layers(work, seed: int, reference: dict) -> dict:
    """:data:`FILLS` traced fills; their per-layer metrics and report.

    *reference* maps each cell key to the cache-free evaluation of the
    cell (``result_to_dict``); it must cover the cold grid.
    """
    cells, orders = fleet_orders(seed)
    keys = [cell_key(cell) for cell in cells]
    timer = LayerTimer()
    fills = []
    with traced(timer):
        for number in range(FILLS):
            fills.append(
                _one_fill(work / f"fleet-{number}", orders, keys, reference)
            )
    self_s, calls = timer.snapshot()
    splits = [[s["claims_won"] for s in fill["stats"]] for fill in fills]

    def per_call_us(layer: str) -> float:
        count = calls.get(layer, 0)
        return self_s.get(layer, 0.0) / count * 1e6 if count else 0.0

    def per_fill(field: str) -> float:
        return sum(sum(s[field] for s in fill["stats"]) for fill in fills) / FILLS

    extra = {
        "service.store.try_claim_us": per_call_us("service.store.try_claim"),
        "service.store.put_us": per_call_us("service.store.put"),
        "service.queue.flush_s": self_s.get("service.queue.flush", 0.0) / FILLS,
        "service.queue.claims_won_min": sum(min(s) for s in splits) / FILLS,
        "service.queue.claims_won_max": sum(max(s) for s in splits) / FILLS,
        "service.queue.claims_yielded": per_fill("claims_yielded"),
        "service.queue.resolved_remote": per_fill("resolved_remote"),
        "service.queue.evaluated": per_fill("evaluated"),
    }
    text = [
        f"  fleet: {FILLS} traced fills of {len(cells)} cells by {SERVICES} "
        f"services, median {median(f['elapsed'] for f in fills):.3f} s; "
        "claims won per service: " + " ".join(f"{a}/{b}" for a, b in splits)
    ]
    return {
        "extra": extra,
        "operations": len(cells) * FILLS,
        "fills": [
            {"elapsed_s": fill["elapsed"], "claims_won": split}
            for fill, split in zip(fills, splits)
        ],
        "text": text,
    }
