"""Shared plumbing of the benchmark: paths, statistics, servers, sockets.

Everything here is workload-agnostic.  The workloads themselves live in
``explore.py``, ``serve_warm.py`` and ``fleet.py``; the program
under test is imported from ``src/`` of the checkout the benchmark runs
in, never from an installed copy.
"""

from __future__ import annotations

import contextlib
import math
import os
import pathlib
import platform
import re
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SERVER_START_TIMEOUT_S = 60.0
SERVER_STOP_TIMEOUT_S = 30.0


class CheckFailed(AssertionError):
    """An output of the program violated a property the method must have."""


def require(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` with *message* unless *condition* holds.

    A plain ``assert`` would vanish under ``python -O``; the checks are
    the benchmark's correctness gate and must always run.
    """
    if not condition:
        raise CheckFailed(message)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in 0..1) of *values*."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def paper_ratios(results) -> dict:
    """Figure 2/3 headline over ``result_to_dict`` payloads.

    Geomeans of ``mhla_te`` over ``oob`` cycles and of ``mhla`` over
    ``oob`` energy.
    """
    scenarios = [result["scenarios"] for result in results]
    return {
        "mhla_te_cycles_ratio": geomean(
            s["mhla_te"]["cycles"] / s["oob"]["cycles"] for s in scenarios
        ),
        "mhla_energy_ratio": geomean(
            s["mhla"]["energy_nj"] / s["oob"]["energy_nj"] for s in scenarios
        ),
    }


def host_fingerprint() -> dict:
    """What a result file needs to be compared like for like."""
    cpu_model = "unknown"
    with contextlib.suppress(OSError):
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu_model,
    }


# ----------------------------------------------------------------------
# scratch space inside the checkout
# ----------------------------------------------------------------------


@contextlib.contextmanager
def work_dir():
    """A fresh directory under ``perfbench/.work`` removed on exit."""
    base = BENCH_DIR / ".work"
    base.mkdir(exist_ok=True)
    path = pathlib.Path(tempfile.mkdtemp(dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()  # only when no concurrent run still uses it


def program_env() -> dict:
    """Environment for child processes running the program from ``src/``.

    ``REPRO_*`` variables (trace logs, profiling) are dropped so a
    caller's shell cannot switch on instrumentation the untraced
    numbers must not pay for.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


# ----------------------------------------------------------------------
# `repro serve` processes
# ----------------------------------------------------------------------


class Server:
    """One ``repro serve --listen 127.0.0.1:0 --cache DIR`` child process.

    The constructor only spawns; :meth:`wait_ready` awaits the
    ``listening on`` banner, so several servers can start in parallel.
    ``ready_s`` is the wall time from spawn to banner: the server's
    set-up time, which includes opening the cache directory.
    """

    def __init__(self, cache_dir: pathlib.Path, cpus: set[int] | None = None):
        self._started = time.perf_counter()
        self.address: tuple[str, int] | None = None
        self.ready_s = 0.0
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--listen", "127.0.0.1:0", "--cache", str(cache_dir)],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            stdin=subprocess.DEVNULL,
            text=True,
            env=program_env(),
            cwd=cache_dir.parent,
        )
        if cpus is not None:
            # before the interpreter has started any thread, so every
            # thread the server creates inherits the mask
            os.sched_setaffinity(self.proc.pid, cpus)

    def wait_ready(self) -> "Server":
        selector = selectors.DefaultSelector()
        selector.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            if not selector.select(SERVER_START_TIMEOUT_S):
                raise RuntimeError("repro serve did not start in time")
        finally:
            selector.close()
        banner = self.proc.stdout.readline()
        match = re.match(r"listening on (.+):(\d+)", banner)
        if match is None:
            raise RuntimeError(f"unexpected repro serve banner {banner!r}")
        self.ready_s = time.perf_counter() - self._started
        self.address = (match.group(1), int(match.group(2)))
        return self

    def stop(self) -> None:
        """SIGTERM (graceful drain) and wait; SIGKILL if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=SERVER_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


@contextlib.contextmanager
def servers(cache_dir: pathlib.Path, count: int, cpus: set[int] | None = None):
    """*count* servers on one cache directory, spawned concurrently."""
    started: list[Server] = []
    try:
        for _ in range(count):
            started.append(Server(cache_dir, cpus))
        for server in started:
            server.wait_ready()
        yield started
    finally:
        for server in started:
            server.stop()


@contextlib.contextmanager
def pinned(cpus: set[int]):
    """Run this process on *cpus* only, for the block."""
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)


def call(address, method: str, params: dict | None = None):
    """One request on a fresh connection; the ``result`` or an error."""
    from repro.service import ServiceClient

    with ServiceClient(address, timeout=SERVER_START_TIMEOUT_S) as client:
        return client.call(method, params)


def metric_sums(text: str, name: str) -> tuple[float, float]:
    """``(sum, count)`` of histogram *name* in a Prometheus text page."""
    values = {}
    for suffix in ("_sum", "_count"):
        match = re.search(rf"^{name}{suffix}(?:{{[^}}]*}})? (\S+)$", text, re.M)
        values[suffix] = float(match.group(1)) if match else 0.0
    return values["_sum"], values["_count"]


# ----------------------------------------------------------------------
# closed-loop socket client
# ----------------------------------------------------------------------


def drive(plan):
    """Closed-loop requests: one connection per ``(address, lines)`` pair.

    Each connection sends its own lines in order with at most one
    outstanding, so a slow answer delays only that connection's next
    request.  Returns ``(elapsed_s, latencies_s, responses)``, each of
    the last two a list per connection in *plan* order.
    """
    selector = selectors.DefaultSelector()
    latencies = [[0.0] * len(lines) for _address, lines in plan]
    responses = [[b""] * len(lines) for _address, lines in plan]
    socks = []
    state = {}

    def send(sock) -> None:
        conn, index, _sent, _raw = state[sock]
        state[sock] = [conn, index, time.perf_counter(), b""]
        sock.sendall(plan[conn][1][index])

    try:
        for address, _lines in plan:
            socks.append(socket.create_connection(address))
        started = time.perf_counter()
        outstanding = 0
        for conn, sock in enumerate(socks):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            selector.register(sock, selectors.EVENT_READ)
            state[sock] = [conn, 0, 0.0, b""]
            if plan[conn][1]:
                send(sock)
                outstanding += 1
        while outstanding:
            ready = selector.select(SERVER_START_TIMEOUT_S)
            if not ready:
                raise RuntimeError("server stopped answering")
            for key, _events in ready:
                sock = key.fileobj
                chunk = sock.recv(1 << 20)
                if not chunk:
                    raise RuntimeError("server closed the connection")
                slot = state[sock]
                slot[3] += chunk
                if not slot[3].endswith(b"\n"):
                    continue
                conn, index, sent, raw = slot
                latencies[conn][index] = time.perf_counter() - sent
                responses[conn][index] = raw
                if index + 1 < len(plan[conn][1]):
                    slot[1] = index + 1
                    send(sock)
                else:
                    outstanding -= 1
        return time.perf_counter() - started, latencies, responses
    finally:
        selector.close()
        for sock in socks:
            sock.close()
