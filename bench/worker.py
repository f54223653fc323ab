"""One benchmark process: set up one workload, then time it or trace it.

Started by ``bench/run.py`` (with a fixed ``PYTHONHASHSEED``) as

    python3 bench/worker.py <mode> <workload> <seed> <budget_s> <spawn_time>

where ``mode`` is ``setup`` (set up, run the warm-up op, stop), ``time``,
``trace``, or ``record`` (run each op once and write its outputs to
``bench/golden/<workload>.json``, for the default seed at a commit whose
outputs are the reference).  The program is imported from ``src/`` of
the checkout and driven only through ``ribbonknots.cli.main(argv)`` on
the generated files.  The result is one JSON line on stdout.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
GOLDEN_DIR = BENCH / "golden"
WORK_DIR = ROOT / ".bench_work"


def import_program():
    """Import ``ribbonknots`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ribbonknots.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"ribbonknots imported from {cli.__file__}, not {src}")
    return cli


class Runner:
    """Runs ops through the CLI in process, capturing its output."""

    def __init__(self, cli) -> None:
        self.cli = cli

    def call(self, argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def execute(self, op: dict) -> list:
        if op["kind"] != "realize-verify":
            return [self.call(op["argv"])]
        first = self.call(op["realize"])
        text = first[1]
        if op["mutant"] and first[0] == 0:
            text = workloads.mutate(text, op["mutant"])
        Path(op["pres"]).write_text(text)
        return [first, self.call(op["verify"])]


def check(op: dict, calls: list) -> tuple[str | None, bool]:
    kind = op["kind"]
    if kind == "realize-verify":
        return oracle.check_realize_verify(op, calls)
    if kind == "covers":
        return oracle.check_covers(op, calls)
    if kind == "tc":
        return oracle.check_tc(op, calls)
    return oracle.check_ac(op, calls, Path(op["pres"]).read_text())


def write_inputs(w: workloads.Workload, runner: Runner) -> None:
    """Write the generated files into the current directory, then the
    files made by the program's own ``realize`` from them."""
    for name, text in w.files.items():
        Path(name).write_text(text)
    for argv, name, suffix in w.derived:
        code, out, err = runner.call(argv)
        if code != 0:
            raise RuntimeError(f"input generation {argv} exited {code}: {err.strip()}")
        Path(name).write_text(out + suffix)


def load_golden(w: workloads.Workload) -> list | None:
    path = GOLDEN_DIR / f"{w.name}.json"
    if w.seed != DEFAULT_SEED or not path.exists():
        return None
    return json.loads(path.read_text())["ops"]


def measure(mode: str, name: str, seed: int, budget: float, spawn: float) -> dict:
    cli = import_program()
    runner = Runner(cli)
    w = workloads.build(name, seed, ROOT / "src" / "ribbonknots" / "corpus")
    golden = load_golden(w)
    WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK_DIR)
    os.chdir(workdir)
    try:
        write_inputs(w, runner)
        problem, _ = check(w.warmup, runner.execute(w.warmup))
        if problem:
            raise RuntimeError(f"warm-up op failed: {problem}")
        gc.collect()
        setup_s = time.monotonic() - spawn
        result = {"setup_s": setup_s,
                  "setup_kernel_s": statistics.median(calibrate.sample() for _ in range(7))}
        if mode == "setup":
            return result
        if mode == "record":
            return record_golden(w, runner)
        tracer = None
        if mode == "trace":
            import spans

            tracer = spans.Tracer()
            tracer.install()
        result.update(run_passes(w, runner, budget, golden, tracer))
        if tracer is not None:
            tracer.uninstall()
            passes = len(result["times"][0])
            op_seconds = sum(statistics.median(t) for t in result["raw_times"])
            layers = tracer.rollup(passes, op_seconds)
            scale = calibrate.REFERENCE_S / result["kernel_s"]
            units = dict(spans.PER_LAYER)
            result["layers"] = {metric: value * scale if units[metric] == "s" else value
                                for metric, value in layers.items()}
            trace_path = WORK_DIR / f"trace-{name}-{seed}.jsonl"
            tracer.write_jsonl(trace_path)
            result["trace_file"] = str(trace_path.relative_to(ROOT))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return result
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)


def record_golden(w: workloads.Workload, runner: Runner) -> dict:
    ops = []
    for i, op in enumerate(w.ops):
        calls = runner.execute(op)
        problem, _ = check(op, calls)
        if problem:
            raise RuntimeError(f"op {i} fails its check, not recording: {problem}")
        ops.append(calls)
    GOLDEN_DIR.mkdir(exist_ok=True)
    path = GOLDEN_DIR / f"{w.name}.json"
    path.write_text(json.dumps({"workload": w.name, "seed": w.seed, "ops": ops}, indent=0) + "\n")
    return {"recorded": len(ops), "file": str(path.relative_to(ROOT))}


def run_passes(w, runner: Runner, budget: float, golden, tracer) -> dict:
    """Whole passes over the op list until the next pass would overrun
    ``budget`` seconds (always at least one pass).

    A calibration kernel sample is taken before every op.  Each op's time
    is scaled by ``REFERENCE_S`` over the median of the 17 samples around
    it, so a change in the machine's speed during the run does not show
    as a change in the program's speed."""
    executed: list[tuple[int, float]] = []  # (op index, raw seconds)
    kernel: list[float] = []  # kernel[j] is taken just before execution j
    failures: list[str] = []
    attempted = failed = inconclusive = 0
    started = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for i, op in enumerate(w.ops):
            gc.collect()
            kernel.append(calibrate.sample())
            if tracer is not None:
                tracer.begin_op(i)
            t0 = time.perf_counter()
            try:
                calls = runner.execute(op)
            except Exception as exc:  # a traceback is a failed op, not a crash
                calls, problem = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            executed.append((i, t1 - t0))
            attempted += 1
            if calls is not None:
                problem, budget_hit = check(op, calls)
                inconclusive += budget_hit
                if problem is None and golden is not None:
                    recorded = golden[i] if i < len(golden) else None
                    if not oracle.matches_golden(op["kind"], calls, recorded):
                        problem = "output differs from the golden file"
            if problem is not None:
                failed += 1
                if len(failures) < 10:
                    failures.append(f"op {i} {op['kind']}: {problem}")
        now = time.perf_counter()
        if now - started + (now - pass_start) > budget:
            break
    kernel.append(calibrate.sample())
    times: list[list[float]] = [[] for _ in w.ops]
    raw_times: list[list[float]] = [[] for _ in w.ops]
    for j, (i, seconds) in enumerate(executed):
        local = statistics.median(kernel[max(0, j - 8):j + 9])
        times[i].append(seconds * calibrate.REFERENCE_S / local)
        raw_times[i].append(seconds)
    return {
        "times": times,
        "raw_times": raw_times,
        "kernel_s": statistics.median(kernel),
        "attempted": attempted,
        "failed": failed,
        "inconclusive": inconclusive,
        "failures": failures,
        "golden_checked": golden is not None,
    }


def main(argv: list[str]) -> int:
    mode, name, seed, budget, spawn = argv
    result = measure(mode, name, int(seed), float(budget), float(spawn))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
