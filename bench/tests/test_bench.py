"""Self-tests of the benchmark.  They are not part of the package's
tier-1 suite; run them with

    python3 -m pytest -q bench/tests

The worker-process tests run whole passes and take a few minutes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

CORPUS = ROOT / "src" / "ribbonknots" / "corpus"
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_worker(mode: str, workload: str, seed: int, hash_seed: str = "0") -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), mode, workload, str(seed), "0",
         repr(time.monotonic())],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def cli():
    return worker.import_program()


def test_same_seed_gives_identical_inputs(cli, tmp_path, monkeypatch):
    for name in workloads.WORKLOADS:
        builds = [workloads.build(name, 3, CORPUS) for _ in range(2)]
        assert dataclasses.asdict(builds[0]) == dataclasses.asdict(builds[1])
        trees = []
        for k, w in enumerate(builds):
            d = tmp_path / f"{name}-{k}"
            d.mkdir()
            monkeypatch.chdir(d)
            worker.write_inputs(w, worker.Runner(cli))
            trees.append({p.name: p.read_bytes() for p in sorted(d.iterdir())})
        assert trees[0] == trees[1]
        assert workloads.build(name, 4, CORPUS).ops != builds[0].ops


def test_op_lists_leave_ten_samples_beyond_p90():
    for name in workloads.WORKLOADS:
        assert len(workloads.build(name, 0, CORPUS).ops) >= 100


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_second_seed_passes_checks_and_bypass_counts_hold(workload):
    result = run_worker("trace", workload, 7)
    assert result["failed"] == 0, result["failures"]
    layers = result["layers"]
    calls = {k: v for k, v in layers.items() if k.endswith(".calls")}
    if workload != "realize-verify":
        assert calls["fox.alexander_polynomial.calls"] == 0
        assert layers["fox.alexander_matrix.s"] == 0
    if workload != "killed-meridian":
        assert all(v == 0 for k, v in calls.items() if k.startswith("acmoves."))
    else:
        assert calls["intlinalg.smith_normal_form.calls"] == 0
        assert calls["acmoves.ac_trivialize_search.calls"] > 0


@pytest.mark.parametrize("hash_seed", ["1", "2"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_golden_outputs_do_not_depend_on_hash_seed(workload, hash_seed):
    result = run_worker("time", workload, worker.DEFAULT_SEED, hash_seed)
    assert result["golden_checked"]
    assert result["failed"] == 0, result["failures"]


def test_metric_names_and_benchmark_file_agree():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in config["end_to_end"] + config["per_layer"]]
    names += [w["name"] for w in config["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    assert [w["name"] for w in config["workloads"]] == list(workloads.WORKLOADS)
    main = {"times": [[0.1], [0.2]], "raw_times": [[0.1], [0.2]], "kernel_s": 0.004,
            "peak_rss_mb": 20.0, "failed": 0, "attempted": 2, "inconclusive": 1,
            "setup_s": 0.3, "setup_kernel_s": 0.004}
    e2e, _ = run.end_to_end([main], main)
    assert [m["name"] for m in config["end_to_end"]] == list(e2e)
    per_layer = [(m["name"], m["unit"]) for m in config["per_layer"]]
    assert per_layer == spans.PER_LAYER + run.RUN_SHARES


def test_poly_text_matches_program_formatting(cli):
    from ribbonknots.laurent import from_coeffs, normalize_unit

    rng = random.Random(5)
    for _ in range(200):
        coeffs = [rng.randint(-3, 3) for _ in range(rng.randint(1, 8))]
        if not any(coeffs):
            continue
        ours = oracle.poly_text(oracle.unit_normal(coeffs))
        assert ours == str(normalize_unit(from_coeffs(coeffs)))


def test_wirtinger_letters_match_realize(cli):
    from ribbonknots.constructions import realize_cyclic
    from ribbonknots.laurent import from_coeffs

    rng = random.Random(6)
    for letters in (30, 100, 300):
        b = workloads.random_b(rng, letters, negative_constant=letters == 100)
        rel = realize_cyclic(from_coeffs(workloads.alpha_from_b(b))).wirtinger_presentation.relators[0]
        assert len(rel) == oracle.wirtinger_letters(b)


def test_mutants_lose_infinite_cyclic_abelianization(cli):
    from ribbonknots.presentations import abelianization, parse_presentation

    rng = random.Random(8)
    for summands in (1, 1, 2, 3):
        polys = [workloads.alpha_from_b(workloads.random_b(rng, 40, False)) for _ in range(summands)]
        kind = "cyclic" if summands == 1 else "sum"
        code, text, _ = worker.Runner(cli).call(
            ["realize", kind, "--coeffs=" + ";".join(map(workloads.coeff_list, polys)),
             "--emit", "wirtinger"])
        assert code == 0
        for _ in range(10):
            mutant = workloads.mutate(text, [rng.random(), rng.random()])
            assert str(abelianization(parse_presentation(mutant))) != "Z"


def test_move_replay_accepts_found_lists_and_rejects_tampering(cli):
    pres = (CORPUS / "spun_trefoil.pres").read_text()
    code, moves, err = worker.Runner(cli).call(
        ["ac-search", str(CORPUS / "spun_trefoil.pres"), "--kill", "t",
         "--max-len", "32", "--max-depth", "2"])
    assert code == 0 and err.startswith("found")
    gens, rels = oracle.parse_presentation(pres)
    rels.append([("t", 1)])
    assert oracle.replay_moves(gens, rels, moves) is None
    tampered = "\n".join(moves.splitlines()[1:])
    assert oracle.replay_moves(gens, rels, tampered) is not None


def test_golden_allows_only_inconclusive_to_conclusive():
    overflow = [[2, "overflow limit=10000\n", ""]]
    closed = [[0, "closed index=1\n", ""]]
    assert oracle.matches_golden("tc", closed, overflow)
    assert not oracle.matches_golden("tc", overflow, closed)
    rows = "abelianization  PASS          Z\n"
    old = [[0, "# wirtinger\n", ""], [2, rows + "weight-1        INCONCLUSIVE  inconclusive\n", ""]]
    new = [[0, "# wirtinger\n", ""], [0, rows + "weight-1        PASS          certified\n", ""]]
    assert oracle.matches_golden("realize-verify", new, old)
    assert not oracle.matches_golden("realize-verify", old, new)
    changed = [[0, "# wirtinger\n", ""], [0, "abelianization  PASS          Z \n"
                                          "weight-1        PASS          certified\n", ""]]
    assert not oracle.matches_golden("realize-verify", changed, old)
