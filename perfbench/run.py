"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload explore --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` measures the per-layer metrics (timing wrappers, server
``stats``/``metrics``) and the tracing overhead.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--out FILE`` also writes the full report,
stamped with the host fingerprint, to FILE; nothing else is written
outside the run's scratch directory.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import signal
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

WORKLOADS = ("explore", "serve-warm")
UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "mhla_te_cycles_ratio": "ratio",
    "mhla_energy_ratio": "ratio",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=pathlib.Path, default=None)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro").is_dir():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    # a terminated run still unwinds, so every server it started is stopped
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))

    from common import CheckFailed, host_fingerprint

    module = __import__(args.workload.replace("-", "_"))
    try:
        outcome = module.run(args.seed, args.seconds, bool(args.trace))
    except CheckFailed as error:
        print(f"check failed: {error}", file=sys.stderr)
        print(json.dumps(
            {"correct": False, "attempted": 1, "failed": 0, "metrics": {}}
        ))
        return 1
    metrics = outcome["metrics"]
    if not args.trace:
        metrics = {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in metrics.items()
        }
    report = outcome.get("report", {})
    host = host_fingerprint()
    print(
        f"workload {args.workload}, seed {args.seed}, trace {args.trace}; "
        f"host: {host['nproc']} cpus, {host['cpu_model']}, "
        f"Python {host['python']}"
    )
    for line in report.pop("text", ()):
        print(line)
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:>14.6g} {metric['unit']}")
    result = {
        "correct": True,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }
    if args.out is not None:
        stamped = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "host": host,
            **result,
            "report": report,
        }
        args.out.write_text(json.dumps(stamped, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
