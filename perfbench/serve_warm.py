"""Workload ``serve-warm``: one ``repro serve`` answering from a warm cache.

Before timing, the paper grid and a seeded synthetic suite are
evaluated in-process without any cache (the reference), and the
results are written into a fresh cache directory.  A server started on
that directory is then driven closed loop over 2 connections.  One
round of the request mix asks ``result`` for every cached cell once
and adds ``submit`` and ``poll`` requests for seeded random cells, all
in a seeded order; every request hits the cache, so the store read
path, ``service.rpc``, ``analysis.export`` and the transport do all
the work and no cell is evaluated.

The traced run adds the store's write side: two in-process services
fill an empty directory with part of the same grid (``fleet.py``).
"""

from __future__ import annotations

import json
import os
import random
import shutil
import time

from checks import check_served_result
from common import (
    call,
    drive,
    median,
    metric_sums,
    paper_ratios,
    percentile,
    pinned,
    require,
    servers,
    work_dir,
)
from fleet import fleet_layers
from layers import LayerTimer, per_layer_metrics, traced
from repro.analysis.export import result_to_dict
from repro.analysis.sweep import ParallelSweepRunner, full_grid, synthetic_grid
from repro.service import ExplorationService, ResultStore
from repro.service.keys import cell_key
from repro.service import rpc

SYNTH_APPS = 150
"""Generated apps in the filled cache (each on both grid platforms)."""
EXTRA_SHARE = 0.1
"""Per kind, ``submit`` and ``poll`` requests as a share of ``result``s."""
CONNECTIONS = 2
SERVER_STARTS = 5


def cell_params(cell) -> dict:
    """The RPC cell object of a sweep cell."""
    return {
        "app": cell.app,
        "platform": {
            "kind": cell.platform.kind,
            "l1_bytes": cell.platform.l1_bytes,
            "l2_bytes": cell.platform.l2_bytes,
        },
        "objective": cell.objective.value,
    }


def make_inputs(seed: int):
    """Cells of the filled cache and one round of request lines."""
    cells = full_grid() + synthetic_grid(SYNTH_APPS, seed=seed)
    keys = [cell_key(cell) for cell in cells]
    rng = random.Random(seed)
    extra = round(EXTRA_SHARE * len(cells))
    requests = [("result", index) for index in range(len(cells))]
    requests += [("submit", rng.randrange(len(cells))) for _ in range(extra)]
    requests += [("poll", rng.randrange(len(cells))) for _ in range(extra)]
    rng.shuffle(requests)
    lines = []
    for number, (method, index) in enumerate(requests):
        params = (
            cell_params(cells[index]) if method == "submit"
            else {"key": keys[index]}
        )
        lines.append(json.dumps(
            {"jsonrpc": "2.0", "id": number, "method": method, "params": params},
            separators=(",", ":"),
        ).encode() + b"\n")
    return cells, keys, requests, lines


def check_responses(responses, requests, keys, reference) -> None:
    """Every response is error-free and agrees with the reference."""
    for raw, (method, index) in zip(responses, requests):
        response = json.loads(raw)
        require("error" not in response, f"{method} failed: {response}")
        result = response["result"]
        require(
            result["key"] == keys[index] and result["status"] == "done",
            f"{method} answered {result['key'][:12]}/{result['status']} "
            f"for {keys[index][:12]}",
        )
        if method == "result":
            check_served_result(keys[index], result["result"], reference[index])


def _fill(cache_dir, cells, keys) -> list[dict]:
    """Evaluate every cell cache-free, store it; return the references."""
    outcomes = ParallelSweepRunner(jobs=1).run(cells)
    store = ResultStore(cache_dir)
    reference = []
    for outcome, key in zip(outcomes, keys):
        result = outcome.require()
        store.put_result(key, result)
        reference.append(result_to_dict(result))
    return reference


def _socket_rounds(address, lines, seconds, check):
    """Whole rounds of the mix until *seconds* pass.

    Line *i* goes to connection ``i % CONNECTIONS``.  Each round's
    responses, back in line order, go to ``check(responses)`` between
    rounds and are then dropped, so memory stays flat however long the
    run; each round keeps ``(elapsed_s, latencies)``, the latencies in
    line order.
    """
    plan = [(address, lines[c::CONNECTIONS]) for c in range(CONNECTIONS)]

    def in_line_order(per_connection):
        return [
            per_connection[i % CONNECTIONS][i // CONNECTIONS]
            for i in range(len(lines))
        ]

    rounds = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        elapsed, latencies, responses = drive(plan)
        check(in_line_order(responses))
        rounds.append((elapsed, in_line_order(latencies)))
    return rounds


class ResponseChecker:
    """Checks every response of every round against the reference.

    A response byte-identical to the one already checked for the same
    request line passes without a second decode; any other response is
    checked in full.  ``first`` keeps the first round's responses.
    """

    def __init__(self, requests, keys, reference):
        self.requests = requests
        self.keys = keys
        self.reference = reference
        self.first: list[bytes] | None = None

    def __call__(self, responses) -> None:
        if self.first is None:
            check_responses(responses, self.requests, self.keys, self.reference)
            self.first = responses
            return
        for line, (raw, checked) in enumerate(zip(responses, self.first)):
            if raw != checked:
                check_responses(
                    [raw], [self.requests[line]], self.keys, self.reference
                )


def _robust_round_s(rounds) -> float:
    """A round's time rebuilt from each request's median latency.

    Every round sends the same lines on the same connections, so each
    connection's share of a round is the sum of its requests' median
    latencies across rounds, and the round lasts as long as its slower
    connection.  Like ``explore``, this filters out a stall that hits
    one round without discarding whole rounds.
    """
    per_line = [
        median(latencies[i] for _e, latencies in rounds)
        for i in range(len(rounds[0][1]))
    ]
    return max(sum(per_line[c::CONNECTIONS]) for c in range(CONNECTIONS))


def run(seed: int, seconds: float, trace: bool) -> dict:
    cells, keys, requests, lines = make_inputs(seed)
    result_index = [i for i, (method, _) in enumerate(requests) if method == "result"]
    with work_dir() as work:
        cache = work / "cache"
        reference = _fill(cache, cells, keys)
        # The server and this client share one CPU: on a 2-vCPU guest,
        # request/response hand-offs across CPUs made a run's
        # throughput swing by 2x from one server start to the next.
        cpus = {max(os.sched_getaffinity(0))}
        ready = []
        with pinned(cpus):
            for _ in range(SERVER_STARTS - 1):
                with servers(cache, 1, cpus) as (server,):
                    ready.append(server.ready_s)
            with servers(cache, 1, cpus) as (server,):
                ready.append(server.ready_s)
                checker = ResponseChecker(requests, keys, reference)
                _socket_rounds(server.address, lines, 0, checker)  # warm-up
                evaluated = call(server.address, "stats")["evaluated"]
                before = call(server.address, "metrics")["text"]
                rounds = _socket_rounds(
                    server.address, lines, seconds / 2 if trace else seconds,
                    checker,
                )
                after = call(server.address, "metrics")["text"]
                require(
                    call(server.address, "stats")["evaluated"] == evaluated,
                    "the warm server evaluated cells during the timed phase",
                )
        result_latencies = [
            latencies[i] for _e, latencies in rounds for i in result_index
        ]
        report = {"rounds": len(rounds), "requests_per_round": len(lines),
                  "cached_cells": len(cells), "text": []}
        if not trace:
            served = {
                requests[i][1]: json.loads(checker.first[i])["result"]["result"]
                for i in result_index
            }
            metrics = {
                "setup_s": median(ready),
                "ops_per_s": len(lines) / _robust_round_s(rounds),
                "op_p50_ms": median(result_latencies) * 1e3,
                **paper_ratios(served[i] for i in range(len(full_grid()))),
            }
            return {"metrics": metrics, "attempted": len(lines) * len(rounds),
                    "failed": 0, "report": report}

        server_sum = [a - b for a, b in zip(
            metric_sums(after, "repro_rpc_request_seconds"),
            metric_sums(before, "repro_rpc_request_seconds"),
        )]
        client_mean = median(
            sum(latencies) / len(latencies) for _e, latencies in rounds
        )
        server_mean = server_sum[0] / server_sum[1]
        extra = {
            "service.server.rpc_mean_us": server_mean * 1e6,
            "service.server.wire_us": (client_mean - server_mean) * 1e6,
            "service.server.result_p99_ms": percentile(result_latencies, 0.99) * 1e3,
        }
        replay = _replay(work, cache, lines, requests, keys, reference, seconds / 2)
        extra.update(replay["extra"])
        fleet = fleet_layers(work, seed, dict(zip(keys, reference)))
        extra.update(fleet["extra"])
        report["text"] = stage_table(replay, extra) + fleet["text"]
        report["fills"] = fleet["fills"]
        attempted = len(lines) * (len(rounds) + replay["rounds"])
        attempted += fleet["operations"]
        return {
            "metrics": per_layer_metrics(
                replay["timer"], replay["traced_rounds"], extra
            ),
            "attempted": attempted,
            "failed": 0,
            "report": report,
        }


def _replay(work, cache, lines, requests, keys, reference, seconds):
    """The same request mix in-process on a copy of the cache.

    Half the time untraced, half traced: per-stage times come from the
    traced half, the tracing overhead from comparing the two.
    """
    copy = work / "replay"
    shutil.copytree(cache, copy)
    opens = []
    for _ in range(SERVER_STARTS):
        started = time.perf_counter()
        store = ResultStore(copy)
        opens.append(time.perf_counter() - started)
    frontend = rpc.JsonRpcFrontend(ExplorationService(store=store))
    texts = [line.decode() for line in lines]
    parse = [0.0]

    def one_round() -> float:
        started = time.perf_counter()
        for text in texts:
            parse_started = time.perf_counter()
            json.loads(text)
            parse[0] += time.perf_counter() - parse_started
            response, _shutdown = frontend.dispatch(text)
            rpc.encode_response(response)  # looked up late: wrapped when traced
        return time.perf_counter() - started

    def timed_rounds(budget: float) -> list[float]:
        walls = []
        deadline = time.perf_counter() + budget
        while not walls or time.perf_counter() < deadline:
            walls.append(one_round())
        return walls

    responses = [
        rpc.encode_response(frontend.dispatch(text)[0]).encode() for text in texts
    ]
    check_responses(responses, requests, keys, reference)
    untraced = timed_rounds(seconds / 2)
    timer = LayerTimer()
    parse[0] = 0.0
    with traced(timer):
        traced_walls = timed_rounds(seconds / 2)
    requests_replayed = len(traced_walls) * len(lines)
    return {
        "timer": timer,
        "rounds": len(traced_walls) + len(untraced),
        "traced_rounds": len(traced_walls),
        "requests": requests_replayed,
        "extra": {
            "service.rpc.parse_us": parse[0] / requests_replayed * 1e6,
            "service.store.open_s": median(opens),
            "trace.overhead_ratio": median(traced_walls) / median(untraced),
        },
    }


STAGES = (
    ("dispatch", "service.rpc.dispatch"),
    ("service.result", "service.queue.result"),
    ("store lookup", "service.store.get_result"),
    ("decode", "analysis.export.from_state"),
    ("export", "analysis.export.to_dict"),
    ("encode", "service.rpc.encode"),
)


def stage_table(replay, extra) -> list[str]:
    """The warm-request stage table, microseconds per request."""
    self_s, _calls = replay["timer"].snapshot()
    per_request = {
        stage: self_s.get(layer, 0.0) / replay["requests"] * 1e6
        for stage, layer in STAGES
    }
    parse_us = extra["service.rpc.parse_us"]
    per_request["dispatch"] -= parse_us  # dispatch parses the line itself
    rows = [("parse", parse_us), *per_request.items(),
            ("wire", extra["service.server.wire_us"])]
    lines = ["  warm-request stages (us per request, mixed methods):"]
    lines += [f"    {stage:16s} {value:10.1f}" for stage, value in rows]
    return lines
