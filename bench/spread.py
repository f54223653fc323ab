"""Run-to-run spread of the end-to-end metrics, the basis of the bounds in
BENCHMARK.json.

    python3 bench/spread.py --workload realize-verify --seeds 1-10 [--seconds 20]

Runs ``bench/run.py`` once per seed, one run at a time, and prints for each
metric its median, its quartile spread as a share of the median
(``statistics.quantiles(values, n=4)``), a third of its bound and whether
the spread is within that third.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        row = {name: m["value"] for name, m in result["metrics"].items()}
        print(f"seed {seed}: " + "  ".join(f"{k}={v:.5g}" for k, v in row.items()), flush=True)
        for name, value in row.items():
            values.setdefault(name, []).append(value)

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    print(f"{'metric':16} {'median':>12} {'spread':>8} {'bound/3':>8}")
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med
        third = bounds[name] / 3
        print(f"{name:16} {med:12.6g} {spread:8.4f} {third:8.4f} "
              f"{'ok' if spread < third else 'WIDE'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
