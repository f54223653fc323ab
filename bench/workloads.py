"""Seeded inputs for the three benchmark workloads.

``build(name, seed, corpus_dir)`` returns plain data: the input files to
write, the ``realize`` calls whose output becomes further input files, a
warm-up op and the timed op list.  The same seed always gives the same
data; string seeds make ``random.Random`` independent of the hash seed.

Why each workload exists and which layer it stresses is documented in
``bench/README.md``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path

from oracle import letters_to_text, parse_letters, wirtinger_letters

WORKLOADS = ("realize-verify", "cover-homology", "killed-meridian")

VERIFY_ORDERS = (2, 3)
VERIFY_MAX_COSETS = 100
TC_MAX_COSETS = 10_000
AC_MAX_LEN, AC_MAX_DEPTH = 32, 2
CORPUS_CASES = ("spun_trefoil", "trotter_2", "lemma4_companion", "lemma3_companion")

# Per-op cost varies by 20-60% between random inputs of one size, and the
# benchmark's spread is taken across seeds, so every size below holds many
# ops.  The op counts also place the median op and the 90th-percentile op
# inside a wide group of ops of similar cost, not on the edge between two
# sizes, where a small shift in cost would move the percentile a lot.

# Relator-length ladder for realize -> verify: (target letters, cyclic ops).
# Fox cost grows much faster than linearly in the length, so the heavy
# rungs hold fewer ops.  No rung sits near 220 letters, whose cost would
# overlap the 9-summand sums that hold the 90th percentile.
RV_LADDER = ((30, 24), (45, 24), (70, 24), (100, 20), (150, 16), (300, 6), (450, 2))
# (summands, ops); more than 4 summands -> Bareiss det_lambda.
RV_SUMS = ((2, 4), (3, 4), (4, 4), (5, 4), (6, 4), (7, 4), (8, 4), (9, 24))
RV_SUMMAND_LETTERS = 30

# Every cover order from 2 to 64 for the spun trefoil; 6 | N makes its
# module side singular.  These ops are the same for every seed and their
# cost rises smoothly with N, which keeps the median op steady.
SPUN_ORDERS = range(2, 65)
# (construction, rank, {N: matrices}).  Trotter covers cost up to 6x more
# for one random M than for another at N >= 32, so Trotter stops at N = 24
# and the lemma4/lemma3 families (about 25% apart) carry N up to 64.
_LOW = {2: 2, 3: 2, 4: 2, 6: 2, 8: 2, 12: 2, 16: 3}
COVER_FAMILIES = (
    ("trotter", 2, {**_LOW, 24: 4}),
    ("trotter", 3, {**_LOW, 24: 4}),
    ("lemma4", 2, {**_LOW, 24: 3, 32: 4, 48: 6, 64: 8}),
    ("lemma3", 2, {**_LOW, 24: 3, 32: 4, 48: 6, 64: 8}),
    ("lemma4", 3, {**_LOW, 24: 4, 32: 4}),
    ("lemma3", 3, {**_LOW, 24: 4, 32: 4}),
)

# Killed-meridian Todd-Coxeter ladder: (target letters, ops).  The
# 100-letter rung holds the median op; the 90th percentile falls among
# the AC searches that end in their depth budget.
TC_LADDER = ((30, 16), (45, 16), (70, 14), (100, 50), (140, 6), (190, 6), (260, 4), (400, 2))
TC_SUMS = ((2, 2), (3, 2), (4, 2))  # (summands, ops)
TC_SUMMAND_LETTERS = 30
# AC search runs on every rank-2 lemma4 matrix with entries in [-3, 3]
# (36 of them); the seed only orders them.  Their search cost ranges from
# 5 ms (found at once) to 0.6 s (depth budget), so a random sample of the
# class would swing the run's total by far more than the other ops do.
AC_ENTRY_RANGE = 3


@dataclass
class Workload:
    name: str
    seed: int
    files: dict = field(default_factory=dict)
    derived: list = field(default_factory=list)  # (realize argv, file, suffix)
    warmup: dict = field(default_factory=dict)
    ops: list = field(default_factory=list)


def build(name: str, seed: int, corpus_dir: Path) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    rng = random.Random(f"{name}:{seed}")
    w = Workload(name, seed)
    {
        "realize-verify": _realize_verify,
        "cover-homology": _cover_homology,
        "killed-meridian": _killed_meridian,
    }[name](w, rng, corpus_dir)
    return w


# ---------------------------------------------------------------------------
# Polynomials and matrices


def alpha_from_b(b: list[int]) -> list[int]:
    """Coefficients of ``alpha = 1 + (t - 1) * beta`` for beta = b."""
    return [1 - b[0]] + [b[i - 1] - b[i] for i in range(1, len(b))] + [b[-1]]


def random_b(rng: random.Random, letters: int, negative_constant: bool) -> list[int]:
    """beta coefficients whose Wirtinger relator has about ``letters``
    letters (within 5%), by a short random search on sum |b_i|."""
    total = max(1, round(letters / 4))
    best = None
    for _ in range(400):
        b = []
        while sum(abs(x) for x in b) < total:
            b.append(rng.choice((1, 1, 2)) * rng.choice((-1, 1)))
        if negative_constant:
            b[0] = 2  # alpha_0 = 1 - b_0 = -1
        got = wirtinger_letters(b)
        if best is None or abs(got - letters) < abs(best[0] - letters):
            best = (got, b)
        if abs(got - letters) <= 0.05 * letters:
            return b
        total = max(1, total + (1 if got < letters else -1))
    return best[1]


def coeff_list(coeffs: list[int]) -> str:
    return ",".join(map(str, coeffs))


def poly_line(coeffs: list[int]) -> str:
    return "poly 0 " + " ".join(map(str, coeffs))


def det(m: list[list[int]]) -> int:
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


def shifted(m: list[list[int]], d: int) -> list[list[int]]:
    """m + d * I."""
    return [[x + (d if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(m)]


def random_matrix(rng: random.Random, kind: str, r: int) -> list[list[int]]:
    """An admissible matrix for ``realize <kind>``:
    trotter: entries in [-2, 2], det M != 0 != det(M - I);
    lemma4: M and I + M unimodular; lemma3: T and T - I unimodular."""
    while True:
        if kind == "trotter":
            m = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(r)]
            if det(m) and det(shifted(m, -1)):
                return m
            continue
        m = [[int(i == j) for j in range(r)] for i in range(r)]
        for _ in range(rng.randint(2, 3 * r)):
            i, j = rng.sample(range(r), 2)
            c = rng.choice((-1, 1))
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        if rng.random() < 0.5:
            m = [list(row) for row in zip(*m)]
        partner = shifted(m, 1 if kind == "lemma4" else -1)
        if max(abs(x) for row in m for x in row) <= 3 and abs(det(partner)) == 1:
            return m


def lemma4_class(r: int, bound: int) -> list[list[list[int]]]:
    """Every r x r matrix with entries in [-bound, bound] admissible for
    lemma4 (M and I + M unimodular), in lexicographic order."""
    out = []
    for entries in itertools.product(range(-bound, bound + 1), repeat=r * r):
        m = [list(entries[i * r:(i + 1) * r]) for i in range(r)]
        if abs(det(m)) == 1 and abs(det(shifted(m, 1))) == 1:
            out.append(m)
    return out


def matrix_text(m: list[list[int]]) -> str:
    return f"{len(m)} {len(m)}\n" + "".join(" ".join(map(str, row)) + "\n" for row in m)


# ---------------------------------------------------------------------------
# realize -> verify


def _verify_op(w: Workload, k: int, polys: list[list[int]], mutant) -> dict:
    construction = "cyclic" if len(polys) == 1 else "sum"
    module = f"rv{k}.module"
    w.files.setdefault(module, f"module {construction} " + ";".join(map(poly_line, polys)) + "\n")
    pres = f"rv{k}m.pres" if mutant else f"rv{k}.pres"
    orders = ",".join(map(str, VERIFY_ORDERS))
    return {
        "kind": "realize-verify",
        "realize": ["realize", construction, "--coeffs=" + ";".join(map(coeff_list, polys)),
                    "--emit", "wirtinger"],
        "pres": pres,
        "verify": ["verify", pres, "--module", module, "-N", orders, "--meridian", "t",
                   "--max-cosets", str(VERIFY_MAX_COSETS)],
        "polys": polys,
        "orders": list(VERIFY_ORDERS),
        "mutant": mutant,
    }


def _realize_verify(w: Workload, rng: random.Random, corpus_dir: Path) -> None:
    cases: list[list[list[int]]] = []
    for letters, count in RV_LADDER:
        for i in range(count):
            cases.append([alpha_from_b(random_b(rng, letters, negative_constant=i % 4 == 0))])
    for summands, count in RV_SUMS:
        for _ in range(count):
            cases.append([
                alpha_from_b(random_b(rng, RV_SUMMAND_LETTERS, rng.random() < 0.25))
                for _ in range(summands)
            ])
    ops = [_verify_op(w, k, polys, None) for k, polys in enumerate(cases)]
    # About one op in four verifies a one-syllable mutant of a positive case.
    for k in rng.sample(range(len(cases)), len(cases) // 3):
        ops.append(_verify_op(w, k, cases[k], [rng.random(), rng.random()]))
    rng.shuffle(ops)
    w.ops = ops
    w.warmup = _verify_op(w, len(cases), [[1, -1, 1]], None)


def mutate(text: str, picks: list[float]) -> str:
    """Swap the generator of one exponent-(+-1) syllable of one relator
    for the relator's other generator.  In a cyclic or sum Wirtinger form
    every relator has exponent sums (t: 1, u_k: -1); the swap makes them
    0 or 2 times that, so the abelianization is no longer Z."""
    lines = text.splitlines()
    rel_rows = [i for i, ln in enumerate(lines) if ln.startswith("rel ")]
    row = rel_rows[int(picks[0] * len(rel_rows))]
    tokens = lines[row].split()[1:]
    names = sorted({tok.partition("^")[0] for tok in tokens})
    unit = [i for i, tok in enumerate(tokens) if tok.partition("^")[2] in ("", "-1")]
    i = unit[int(picks[1] * len(unit))]
    name, _, exp = tokens[i].partition("^")
    other = names[1] if name == names[0] else names[0]
    tokens[i] = other + ("^" + exp if exp else "")
    lines[row] = "rel " + letters_to_text(parse_letters(" ".join(tokens)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# cover homology


def _cover_homology(w: Workload, rng: random.Random, corpus_dir: Path) -> None:
    w.files["spun.pres"] = (corpus_dir / "spun_trefoil.pres").read_text()
    w.files["spun.module"] = (corpus_dir / "spun_trefoil.module").read_text()
    ops = [_covers_op("spun", n) for n in SPUN_ORDERS]
    module_kind = {"trotter": "trotter", "lemma4": "tminus1", "lemma3": "taction"}
    k = 0
    for kind, r, per_n in COVER_FAMILIES:
        for n, count in per_n.items():
            for _ in range(count):
                stem = f"c{k}"
                k += 1
                w.files[f"{stem}.mat"] = matrix_text(random_matrix(rng, kind, r))
                w.files[f"{stem}.module"] = f"module {module_kind[kind]} {stem}.mat\n"
                emit = "hnn" if kind == "lemma3" else "wirtinger"
                w.derived.append(
                    (["realize", kind, "-m", f"{stem}.mat", "--emit", emit], f"{stem}.pres", "")
                )
                ops.append(_covers_op(stem, n))
    rng.shuffle(ops)
    w.ops = ops
    w.warmup = _covers_op("spun", 2)


def _covers_op(stem: str, n: int) -> dict:
    return {
        "kind": "covers",
        "argv": ["covers", f"{stem}.pres", "-N", str(n), "--module", f"{stem}.module"],
        "orders": [n],
    }


# ---------------------------------------------------------------------------
# killed meridian


def _killed_meridian(w: Workload, rng: random.Random, corpus_dir: Path) -> None:
    ops = []
    forms = []
    for letters, count in TC_LADDER:
        for i in range(count):
            forms.append([alpha_from_b(random_b(rng, letters, i % 4 == 0))])
    for summands, count in TC_SUMS:
        for _ in range(count):
            forms.append([alpha_from_b(random_b(rng, TC_SUMMAND_LETTERS, False))
                          for _ in range(summands)])
    for k, polys in enumerate(forms):
        construction = "cyclic" if len(polys) == 1 else "sum"
        argv = ["realize", construction, "--coeffs=" + ";".join(map(coeff_list, polys)),
                "--emit", "wirtinger"]
        w.derived.append((argv, f"k{k}.pres", "rel t\n"))
        ops.append(_tc_op(f"k{k}.pres"))

    for name in CORPUS_CASES:
        w.files[f"{name}.pres"] = (corpus_dir / f"{name}.pres").read_text()
        ops.append(_ac_op(f"{name}.pres"))
    for k, m in enumerate(lemma4_class(2, AC_ENTRY_RANGE)):
        w.files[f"a{k}.mat"] = matrix_text(m)
        w.derived.append(
            (["realize", "lemma4", "-m", f"a{k}.mat", "--emit", "wirtinger"], f"a{k}.pres", "")
        )
        ops.append(_ac_op(f"a{k}.pres"))
    rng.shuffle(ops)
    w.ops = ops
    w.files["spun_killed.pres"] = (corpus_dir / "spun_trefoil.pres").read_text() + "rel t\n"
    w.warmup = _tc_op("spun_killed.pres")


def _tc_op(pres: str) -> dict:
    return {"kind": "tc", "argv": ["tc", pres, "--max-cosets", str(TC_MAX_COSETS)],
            "max_cosets": TC_MAX_COSETS}


def _ac_op(pres: str) -> dict:
    return {
        "kind": "ac",
        "argv": ["ac-search", pres, "--kill", "t", "--max-len", str(AC_MAX_LEN),
                 "--max-depth", str(AC_MAX_DEPTH)],
        "pres": pres,
        "kill": "t",
    }
