"""Golden CLI snapshots: exact stdout, stderr, exit code and written
files for every README/corpus invocation.

Each case runs ``cli.main`` in process, in a fresh directory holding the
bundled corpus and the extra inputs below, so every path in argv and in
messages is relative.  Re-record only when an output change is intended:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from ribbonknots import cli

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "cli.json"
CORPUS = HERE.parent / "src" / "ribbonknots" / "corpus"

# Extra input files, written next to the corpus copies.
INPUTS = {
    "bad.mat": "1 1\n1\n",
    "ragged.mat": "2 2\n1 2\n3\n",
    "badword.pres": "gens x\nrel x^a\n",
    "unknown.pres": "gens x\nrel y\n",
    "z5.pres": "gens x\nrel x^5\n",
    "free.pres": "gens x y\n",
    "notwirt.pres": "gens x y\nrel x y\nrel y\n",
    "mut.pres": "gens t u\nrel u^-1 t u t^2 u^-1 t^-2\n",
    "bad.tz": "elim b t 7\n",
    "rank3.mat": "3 3\n0 1 0\n0 0 1\n1 1 0\n",
    "d0.pres": "gens t u\nrel u\nrel u^2\n",
    "nonsq.mat": "2 3\n1 0 0\n0 1 0\n",
    "header.mat": "2\n",
    "short.mat": "2 2\n1 0\n",
    "negative.mat": "0 -2\n",
    "nopoly.module": "module cyclic 0 1 -1 1\n",
    "short.module": "module cyclic\n",
    "intro.tz": "intro\n",
    "elim.tz": "elim u t z 0\n",
}

PAIRS = ("spun_trefoil", "trotter_2", "lemma4_companion", "lemma3_companion")
PRES = PAIRS + ("yoshikawa",)
REALIZE = {
    "cyclic": ("--coeffs", "1,-1,1"),
    "sum": ("--coeffs", "1,-1,1;2,-1"),
    "trotter": ("-m", "trotter_2.mat"),
    "lemma4": ("-m", "lemma4_companion.mat"),
    "lemma3": ("-m", "lemma3_companion.mat"),
}


def _cases() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}
    for kind, data in REALIZE.items():
        for emit in ("hnn", "wirtinger", "both"):
            cases[f"realize-{kind}-{emit}"] = ["realize", kind, *data, "--emit", emit]
        emit = "hnn" if kind == "lemma3" else "both"
        cases[f"realize-{kind}-dot"] = ["realize", kind, *data, "--emit", emit, "--dot", "out.dot"]
    for kind in ("trotter", "lemma4"):
        cases[f"realize-{kind}-rank3"] = ["realize", kind, "-m", "rank3.mat", "--dot", "out.dot"]
    cases["realize-lemma3-rank3"] = ["realize", "lemma3", "-m", "rank3.mat", "--emit", "hnn"]
    cases["realize-cyclic-non-fg"] = ["realize", "cyclic", "--coeffs", "2,-3,2", "--dot", "out.dot"]
    cases["realize-cyclic-negative"] = ["realize", "cyclic", "--coeffs=-1,1,1"]
    cases["realize-sum-negative"] = ["realize", "sum", "--coeffs=-1,1,1;3,-4,2;1"]
    for name in PRES:
        cases[f"alex-{name}"] = ["alex", f"{name}.pres"]
        cases[f"lot-{name}"] = ["lot", f"{name}.pres"]
    cases["lot-dot"] = ["lot", "spun_trefoil.pres", "--dot", "out.dot"]
    cases["lot-not-wirtinger"] = ["lot", "notwirt.pres"]
    for name in PAIRS:
        cases[f"covers-{name}"] = ["covers", f"{name}.pres", "-N", "2,3,6"]
        cases[f"covers-{name}-module"] = [
            "covers", f"{name}.pres", "-N", "2,3,6", "--module", f"{name}.module"
        ]
        cases[f"verify-{name}"] = [
            "verify", f"{name}.pres", "--module", f"{name}.module", "-N", "2,3,6",
            "--meridian", "t", "--max-cosets", "100",
        ]
    # N=2 agrees; N=3 gives Z + Z/7 against Z + Z/2 + Z/2, so exit 1.
    cases["covers-mismatch"] = [
        "covers", "trotter_2.pres", "-N", "2,3", "--module", "spun_trefoil.module"
    ]
    cases["verify-mutant"] = [
        "verify", "mut.pres", "--module", "spun_trefoil.module", "-N", "2,3",
        "--meridian", "t", "--max-cosets", "100",
    ]
    # H_1 = Z/5: every row after the abelianization is skipped.
    cases["verify-not-z"] = [
        "verify", "z5.pres", "--module", "spun_trefoil.module", "-N", "2", "--meridian", "x",
    ]
    # H_1 = Z but deficiency 0: no Alexander polynomial, and the covers disagree.
    cases["verify-deficiency"] = [
        "verify", "d0.pres", "--module", "spun_trefoil.module", "-N", "2", "--meridian", "t",
    ]
    cases["tc-subgroup"] = ["tc", "spun_trefoil.pres", "--subgroup", "t", "--max-cosets", "1000"]
    cases["tc-z5"] = ["tc", "z5.pres", "--max-cosets", "50"]
    cases["tc-overflow"] = ["tc", "free.pres", "--max-cosets", "10"]
    ac = ["ac-search", "spun_trefoil.pres", "--kill", "t", "--max-len", "32", "--max-depth", "12"]
    cases["ac-search-emit-moves"] = ac + ["--emit-moves", "moves.txt"]
    cases["ac-search-stdout"] = ac
    cases["tietze-yoshikawa"] = ["tietze", "yoshikawa.pres", "--script", "yoshikawa.tz"]
    # Input errors: exit 3 with a one-line message.
    cases["err-missing-file"] = ["alex", "missing.pres"]
    cases["err-bad-orders"] = ["covers", "spun_trefoil.pres", "-N", "x"]
    cases["err-zero-order"] = ["covers", "spun_trefoil.pres", "-N", "0"]
    cases["err-cyclic-no-coeffs"] = ["realize", "cyclic"]
    cases["err-trotter-no-matrix"] = ["realize", "trotter"]
    cases["err-bad-coeffs"] = ["realize", "cyclic", "--coeffs", "1,x"]
    cases["err-augmentation"] = ["realize", "cyclic", "--coeffs", "1,1"]
    cases["err-trotter-inadmissible"] = ["realize", "trotter", "-m", "bad.mat"]
    cases["err-nonsquare-matrix"] = ["realize", "trotter", "-m", "nonsq.mat"]
    cases["err-lemma4-inadmissible"] = ["realize", "lemma4", "-m", "bad.mat"]
    cases["err-lemma3-inadmissible"] = ["realize", "lemma3", "-m", "bad.mat"]
    cases["err-matrix-header"] = ["realize", "trotter", "-m", "header.mat"]
    cases["err-matrix-rows"] = ["realize", "trotter", "-m", "short.mat"]
    cases["err-matrix-negative"] = ["realize", "trotter", "-m", "negative.mat"]
    cases["err-module-line"] = [
        "covers", "spun_trefoil.pres", "-N", "2", "--module", "nopoly.module"
    ]
    cases["err-module-short"] = [
        "covers", "spun_trefoil.pres", "-N", "2", "--module", "short.module"
    ]
    cases["err-ragged-matrix"] = ["realize", "lemma4", "-m", "ragged.mat"]
    cases["err-bad-word"] = ["alex", "badword.pres"]
    cases["err-unknown-generator"] = ["alex", "unknown.pres"]
    cases["err-verify-meridian"] = [
        "verify", "spun_trefoil.pres", "--module", "spun_trefoil.module", "-N", "2",
        "--meridian", "z",
    ]
    cases["err-ac-deficiency"] = ["ac-search", "z5.pres", "--kill", "x", "--max-len", "8", "--max-depth", "2"]
    cases["err-tietze-index"] = ["tietze", "yoshikawa.pres", "--script", "bad.tz"]
    cases["err-tietze-intro"] = ["tietze", "spun_trefoil.pres", "--script", "intro.tz"]
    cases["err-tietze-unknown"] = ["tietze", "spun_trefoil.pres", "--script", "elim.tz"]
    return cases


CASES = _cases()


def run_case(argv: list[str], workdir: Path) -> dict:
    """Run one CLI invocation in ``workdir`` and collect everything it
    produced."""
    for src in CORPUS.iterdir():
        shutil.copy(src, workdir / src.name)
    for name, text in INPUTS.items():
        (workdir / name).write_text(text)
    before = set(os.listdir(workdir))
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    files = {
        name: (workdir / name).read_text()
        for name in sorted(set(os.listdir(workdir)) - before)
    }
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "files": files}


def _load() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    expected = _load()[name]
    assert run_case(CASES[name], tmp_path) == expected


def test_golden_covers_every_case():
    assert sorted(_load()) == sorted(CASES)


def record() -> None:
    golden = {}
    for name, argv in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            golden[name] = run_case(argv, Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    record()
