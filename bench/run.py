"""Benchmark entry point for ribbonknots.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: realize-verify, cover-homology, killed-meridian (see
bench/README.md).  Each run starts fresh worker processes with a fixed
``PYTHONHASHSEED``.  Load is a closed loop: one client, one thread, ops
back to back through ``ribbonknots.cli.main``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
op list once untraced and once traced and prints the per-layer metrics.
A table goes to stdout first; the last stdout line is one JSON object.
Exit status: 0 when every output was correct, 1 when some op failed its
check, 2 when the benchmark could not run at all (nothing is printed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from calibrate import REFERENCE_S  # noqa: E402
from spans import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_ONLY_RUNS = 4  # plus the measured process: five set-up samples
TRACE_UNTRACED_SHARE = 0.35  # of --seconds, for the untraced half of a traced run
DEADLINE_S = 170.0
HASH_SEED = "0"
# Per-layer names that come from the run rather than from the spans.
RUN_SHARES = [("trace.overhead_share", "share"), ("fail_share", "share"),
              ("inconclusive_share", "share")]


class WorkerFailed(Exception):
    pass


def spawn(mode: str, workload: str, seed: int, budget: float, deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    started = time.monotonic()
    argv = [sys.executable, str(BENCH / "worker.py"), mode, workload, str(seed),
            repr(budget), repr(started)]
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} worker exceeded the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def per_op_seconds(result: dict, key: str = "times") -> list[float]:
    """Each op's median time over the passes of one worker: scaled to the
    reference speed (``times``) or as read from the clock (``raw_times``)."""
    return [statistics.median(t) for t in result[key]]


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile: the mean of the values ranked within
    len/50 of the nearest rank, which moves less from run to run than one
    order statistic.  At q = 90 and >= 100 values, at least ten values lie
    beyond the nearest rank."""
    ordered = sorted(values)
    rank = math.ceil(q / 100 * len(ordered)) - 1
    w = len(ordered) // 50
    return statistics.mean(ordered[max(0, rank - w):rank + w + 1])


def end_to_end(setups: list[dict], main: dict) -> tuple[dict, list]:
    """The bounded metrics, and the other rows of the printed table."""
    ops = per_op_seconds(main)
    raw = per_op_seconds(main, "raw_times")
    passes = len(main["times"][0])
    n = len(ops)
    setup = [r["setup_s"] * REFERENCE_S / r["setup_kernel_s"] for r in setups]
    metrics = {
        "setup_s": (statistics.median(setup), "s", f"{len(setups)} set-ups"),
        "op_s.p50": (percentile(ops, 50), "s", f"{n} ops x {passes} passes"),
        "op_s.p90": (percentile(ops, 90), "s", f"{n} ops x {passes} passes"),
        "ops_per_s": (n / sum(ops), "1/s", f"{n} ops"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB", "1 process"),
    }
    extra = [
        ("raw setup_s", statistics.median(r["setup_s"] for r in setups), "s", "clock time"),
        ("raw op_s.p50", percentile(raw, 50), "s", "clock time"),
        ("raw op_s.p90", percentile(raw, 90), "s", "clock time"),
        ("raw ops_per_s", n / sum(raw), "1/s", "clock time"),
        ("kernel_s", main["kernel_s"], "s", f"median; reference {REFERENCE_S}"),
        ("fail_share", main["failed"] / main["attempted"], "share",
         f"{main['failed']}/{main['attempted']} ops"),
        ("inconclusive_share", main["inconclusive"] / main["attempted"], "share",
         f"{main['inconclusive']}/{main['attempted']} ops"),
    ]
    return metrics, extra


def print_table(rows) -> None:
    for name, value, unit, samples in rows:
        print(f"{name:52} {value:>16.6g} {unit:8} {samples}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    try:
        if args.trace:
            untraced = spawn("time", args.workload, args.seed,
                             TRACE_UNTRACED_SHARE * args.seconds, deadline)
            traced = spawn("trace", args.workload, args.seed,
                           (1 - TRACE_UNTRACED_SHARE) * args.seconds, deadline)
        else:
            setups = [spawn("setup", args.workload, args.seed, 0.0, deadline)
                      for _ in range(SETUP_ONLY_RUNS)]
            main_run = spawn("time", args.workload, args.seed, args.seconds, deadline)
    except WorkerFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    if args.trace:
        base = sum(per_op_seconds(untraced))
        overhead = (sum(per_op_seconds(traced)) - base) / base
        layers = dict(traced["layers"])
        layers["trace.overhead_share"] = overhead
        layers["fail_share"] = traced["failed"] / traced["attempted"]
        layers["inconclusive_share"] = traced["inconclusive"] / traced["attempted"]
        units = dict(PER_LAYER + RUN_SHARES)
        print_table((name, value, units[name], "per pass") for name, value in layers.items())
        print(f"spans written to {traced['trace_file']}")
        metrics = {name: {"value": value, "unit": units[name]} for name, value in layers.items()}
        runs = [untraced, traced]
    else:
        setups.append(main_run)
        e2e, extra = end_to_end(setups, main_run)
        print_table([(name, *row) for name, row in e2e.items()] + extra)
        metrics = {name: {"value": v, "unit": u} for name, (v, u, _) in e2e.items()}
        runs = [main_run]

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for line in r["failures"]:
            print(f"FAILED {line}", file=sys.stderr)
    if runs[0]["golden_checked"]:
        print("golden outputs compared (default seed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
