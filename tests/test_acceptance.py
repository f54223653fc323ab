"""Acceptance criteria, one test per criterion.

Each test prints a single ``ACCEPTANCE <n>: PASS`` line on success;
a failure surfaces as an ordinary pytest failure for that criterion.
"""

import random
import time

from ribbonknots import cli
from ribbonknots.acmoves import (
    ACPresentation,
    Conjugate,
    Found,
    Invert,
    Multiply,
    ac_trivialize_search,
    apply_moves,
    kill_meridian,
    verify_move_sequence,
)
from ribbonknots.cosets import weight_one_certificate
from ribbonknots.constructions import (
    lift_glnz,
    realize_cyclic,
    realize_lemma3_group,
    realize_lemma4,
    realize_trotter,
)
from ribbonknots.covers import cover_homology, module_cover_homology
from ribbonknots.fox import alexander_polynomial
from ribbonknots.intlinalg import (
    AbelianGroupInvariants,
    matrix,
    smith_normal_form,
)
from ribbonknots.laurent import det_lambda, from_coeffs, normalize_unit
from ribbonknots.presentations import (
    LOG,
    Presentation,
    abelianization,
    apply_tietze_script,
    deficiency,
    expand_length1,
    format_presentation,
    is_wirtinger,
    parse_presentation,
    parse_tietze_script,
    weight_vector,
)
from ribbonknots.words import gen, normalize
from reference import (
    cokernel_of,
    compare_realization,
    det_int,
    diagonal_of,
    eq_up_to_unit,
    exponent_sums,
    fundamental_identity_holds,
    is_ascending_hnn_shape,
    matmul,
    random_unimodular,
)

Z = AbelianGroupInvariants(1)


def test_criterion_1_spun_trefoil_pipeline():
    start = time.monotonic()
    res = realize_cyclic(from_coeffs([1, -1, 1]))
    w = res.wirtinger_presentation
    assert len(w.generators) == 2 and len(w.relators) == 1
    assert isinstance(is_wirtinger(w), LOG)
    assert eq_up_to_unit(alexander_polynomial(w), from_coeffs([1, -1, 1]))
    expected = {
        2: AbelianGroupInvariants(1, (3,)),
        3: AbelianGroupInvariants(1, (2, 2)),
        6: AbelianGroupInvariants(3),
    }
    for n, group, module in compare_realization(res, [2, 3, 6]):
        assert group == module == expected[n]
    assert weight_one_certificate(w, "t", 100) == "certified"
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"pipeline took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1: PASS - spun trefoil pipeline in {elapsed:.3f}s")


def test_criterion_2_trotter_randomized_suite():
    start = time.monotonic()
    rng = random.Random(2024)
    checked = 0
    while checked < 50:
        r = rng.randint(1, 3)
        m = matrix(
            [[rng.randint(-2, 2) for _ in range(r)] for _ in range(r)]
        )
        if det_int(m) == 0:
            continue
        mi = matrix(
            [[m[i, j] - (1 if i == j else 0) for j in range(r)] for i in range(r)]
        )
        if det_int(mi) == 0:
            continue
        res = realize_trotter(m)
        for p in (res.primary_presentation, res.wirtinger_presentation):
            assert deficiency(p) == 1
            assert abelianization(p) == Z
        log = is_wirtinger(res.wirtinger_presentation)
        assert isinstance(log, LOG)
        expanded = expand_length1(res.wirtinger_presentation)
        xlog = is_wirtinger(expanded)
        assert isinstance(xlog, LOG) and xlog.is_tree
        target = normalize_unit(det_lambda(res.module_spec.presentation_matrix()))
        assert eq_up_to_unit(
            alexander_polynomial(res.wirtinger_presentation), target
        )
        for n, group, module in compare_realization(res, [2, 3, 4]):
            assert group == module, (m.entries, n, group, module)
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 2: PASS - 50 random Trotter matrices in {elapsed:.1f}s")


def test_criterion_3_lemma4_suite():
    start = time.monotonic()
    rng = random.Random(2025)
    checked = 0
    while checked < 25:
        r = rng.randint(1, 3)
        m = random_unimodular(rng, r, rng.randint(0, 8))
        mi = matrix(
            [[m[i, j] + (1 if i == j else 0) for j in range(r)] for i in range(r)]
        )
        if abs(det_int(mi)) != 1:
            continue
        res = realize_lemma4(m)
        assert is_ascending_hnn_shape(res.primary_presentation)
        primary, wirt = res.primary_presentation, res.wirtinger_presentation
        w_primary, w_wirt = weight_vector(primary), weight_vector(wirt)
        for n in (2, 3):
            hom_primary = cover_homology(primary, n, w_primary)
            hom_wirt = cover_homology(wirt, n, w_wirt)
            oracle = module_cover_homology(res.module_spec, n)
            assert hom_primary == hom_wirt == oracle, (m.entries, n)
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 3: PASS - 25 ascending-HNN cases in {elapsed:.1f}s")


def test_criterion_4_lemma3_suite():
    rng = random.Random(2026)
    checked = 0
    while checked < 25:
        r = rng.randint(1, 3)
        t = random_unimodular(rng, r, rng.randint(0, 8))
        ti = matrix(
            [[t[i, j] - (1 if i == j else 0) for j in range(r)] for i in range(r)]
        )
        if abs(det_int(ti)) != 1:
            continue
        res = realize_lemma3_group(t)
        assert abelianization(res.primary_presentation) == Z
        weights = weight_vector(res.primary_presentation)
        for n in (2, 3):
            assert cover_homology(res.primary_presentation, n, weights) == module_cover_homology(
                res.module_spec, n
            ), (t.entries, n)
        checked += 1
    print("\nACCEPTANCE 4: PASS - 25 free-by-cyclic cases")


def test_criterion_5_glnz_and_snf():
    rng = random.Random(2027)
    for _ in range(100):
        n = rng.randint(1, 4)
        m = random_unimodular(rng, n, rng.randint(0, 12))
        mu, _ = lift_glnz(m)
        xs = [f"x{i}" for i in range(1, n + 1)]
        assert matrix([exponent_sums(w, xs) for w in mu]) == m
    for _ in range(200):
        n = rng.randint(1, 5)
        m = matrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        u, s, v = smith_normal_form(m)
        assert matmul(matmul(u, m), v) == s
        assert abs(det_int(u)) == 1 and abs(det_int(v)) == 1
        diag = diagonal_of(s)
        for a, b in zip(diag, diag[1:]):
            assert (a == 0 and b == 0) or b == 0 or b % a == 0
        prod = 1
        for d in diag:
            prod *= d
        assert prod == abs(det_int(m))
    print("\nACCEPTANCE 5: PASS - GL(n,Z) lift and SNF contracts")


def test_criterion_6_fox_fundamental_formula():
    rng = random.Random(2028)
    gens = ["a", "b", "c", "d"]
    for _ in range(1000):
        n_gens = rng.randint(1, 4)
        w = normalize(
            (rng.choice(gens[:n_gens]), rng.choice([-1, 1]))
            for _ in range(rng.randrange(31))
        )
        assert fundamental_identity_holds(w, gens[:n_gens])
    print("\nACCEPTANCE 6: PASS - 1000 fundamental-identity checks")


def test_criterion_7_ac_engine():
    rng = random.Random(2029)
    gens = ("a", "b", "c")
    applied = 0
    while applied < 500:
        rels = tuple(
            normalize(
                (rng.choice(gens), rng.choice([-1, 1])) for _ in range(rng.randrange(7))
            )
            for _ in range(3)
        )
        p = ACPresentation(gens, rels)
        before = cokernel_of(
            matrix([exponent_sums(r, gens) for r in p.relators], cols=3)
        )
        kind = rng.randrange(3)
        if kind == 0:
            move = Invert(rng.randrange(3))
        elif kind == 1:
            move = Conjugate(rng.randrange(3), rng.choice(gens), rng.choice([-1, 1]))
        else:
            i, j = rng.sample(range(3), 2)
            move = Multiply(i, j)
        q = apply_moves(p, [move])
        after = cokernel_of(
            matrix([exponent_sums(r, gens) for r in q.relators], cols=3)
        )
        assert before == after
        applied += 1

    p1 = ACPresentation(("x",), (gen("x"),))
    r1 = ac_trivialize_search(p1, 8, 1)
    assert isinstance(r1, Found) and verify_move_sequence(p1, r1.moves)

    from ribbonknots.words import parse_word

    p2 = ACPresentation(("x", "y"), (parse_word("x y"), gen("y")))
    r2 = ac_trivialize_search(p2, 16, 4)
    assert isinstance(r2, Found) and verify_move_sequence(p2, r2.moves)

    spun = parse_presentation("gens t u\nrel u^-1 t u t u^-1 t^-1")
    killed = kill_meridian(spun, "t")
    r3 = ac_trivialize_search(killed, 32, 12)
    assert isinstance(r3, Found) and verify_move_sequence(killed, r3.moves)

    for _ in range(3):
        assert ac_trivialize_search(killed, 32, 12) == r3
    print("\nACCEPTANCE 7: PASS - AC engine invariants, searches, determinism")


def test_criterion_8_yoshikawa(corpus):
    p = parse_presentation((corpus / "yoshikawa.pres").read_text())
    steps = parse_tietze_script((corpus / "yoshikawa.tz").read_text())
    q = apply_tietze_script(p, steps)
    assert len(q.generators) == 4 and len(q.relators) == 3
    assert isinstance(is_wirtinger(q), LOG)
    assert eq_up_to_unit(alexander_polynomial(p), alexander_polynomial(q))
    for n in (2, 3):
        assert cover_homology(p, n, weight_vector(p)) == cover_homology(q, n, weight_vector(q))
    print("\nACCEPTANCE 8: PASS - Yoshikawa case: 4 generators, Wirtinger, invariants stable")


def test_criterion_9_mutation_sensitivity(corpus, tmp_path, capsys):
    rng = random.Random(2030)
    cases = [
        ("spun_trefoil.pres", "spun_trefoil.module"),
        ("trotter_2.pres", "trotter_2.module"),
        ("lemma4_companion.pres", "lemma4_companion.module"),
        ("lemma3_companion.pres", "lemma3_companion.module"),
    ]
    loaded = []
    for pres_name, module_name in cases:
        p = parse_presentation((corpus / pres_name).read_text())
        loaded.append((p, module_name))

    flagged = 0
    total = 200
    done = 0
    while done < total:
        p, module_name = loaded[rng.randrange(len(loaded))]
        ri = rng.randrange(len(p.relators))
        syllables = list(p.relators[ri].syllables)
        si = rng.randrange(len(syllables))
        g, e = syllables[si]
        if rng.random() < 0.5:
            other = rng.choice([h for h in p.generators if h != g])
            syllables[si] = (other, e)
        else:
            delta = rng.choice([-1, 1])
            if e + delta == 0:
                continue
            syllables[si] = (g, e + delta)
        mutated_rel = normalize(syllables)
        if mutated_rel == p.relators[ri]:
            continue
        relators = list(p.relators)
        relators[ri] = mutated_rel
        q = Presentation(p.generators, tuple(relators))
        done += 1
        if _flagged(q, corpus, module_name):
            flagged += 1
    rate = flagged / total
    assert rate >= 0.90, f"only {rate:.0%} of mutations flagged"
    print(f"\nACCEPTANCE 9: PASS - {flagged}/{total} mutations flagged ({rate:.0%})")


def test_criterion_10_north_star_inputs_through_the_cli(tmp_path, capsys, corpus):
    # The named inputs, realized and checked through cli.main: verdicts
    # and exit codes, not times.
    def run(*argv: str) -> tuple[int, str]:
        code = cli.main([str(a) for a in argv])
        return code, capsys.readouterr().out

    (tmp_path / "t3.mat").write_text("3 3\n2 1 0\n0 2 1\n1 0 2\n")
    (tmp_path / "t3.module").write_text("module trotter t3.mat\n")
    code, pres = run("realize", "trotter", "-m", tmp_path / "t3.mat", "--emit", "wirtinger")
    assert code == 0
    (tmp_path / "t3.pres").write_text(pres)
    code, out = run("verify", tmp_path / "t3.pres", "--module", tmp_path / "t3.module",
                    "-N", "64", "--meridian", "t")
    assert code == 0, out
    verdicts = {line.split()[0]: line.split()[1] for line in out.splitlines()}
    assert set(verdicts) == {"abelianization", "wirtinger-lot", "alexander", "covers-N64", "weight-1"}
    assert set(verdicts.values()) == {"PASS"}, out
    code, out = run("verify", tmp_path / "t3.pres", "--module", tmp_path / "t3.module",
                    "-N", "64", "--meridian", "t", "--max-cosets", "100")
    assert code == 0, out
    # Past N = 64 on the modulus route: no end of M's pencil is unimodular.
    code, out = run("covers", tmp_path / "t3.pres", "-N", "512", "--module", tmp_path / "t3.module")
    assert code == 0 and out.startswith("N=512: group ") and out.rstrip().endswith(" [ok]"), out

    # The degree-40 cyclic form of test_fox.py::test_alexander_degree_40_cyclic.
    rng = random.Random(0)
    b = [rng.choice((-1, 1)) * rng.randint(6, 14) for _ in range(40)]
    coeffs = [1 - b[0]] + [b[i - 1] - b[i] for i in range(1, 40)] + [b[-1]]
    code, pres = run("realize", "cyclic", "--coeffs=" + ",".join(map(str, coeffs)),
                     "--emit", "wirtinger")
    assert code == 0
    (tmp_path / "d40.pres").write_text(pres)
    (tmp_path / "d40.module").write_text("module cyclic poly 0 " + " ".join(map(str, coeffs)) + "\n")
    for n in (32, 128):
        code, out = run("covers", tmp_path / "d40.pres", "-N", n, "--module", tmp_path / "d40.module")
        assert code == 0, out
        assert out.startswith(f"N={n}: group ") and out.rstrip().endswith(" [ok]"), out
        assert len(out.splitlines()) == 1
    for budget in ((), ("--max-cosets", "100")):
        code, out = run("verify", tmp_path / "d40.pres", "--module", tmp_path / "d40.module",
                        "-N", "2,3", "--meridian", "t", *budget)
        assert code == 0, out
    # Its expand_length1 form: 815 generators, one weight vector.
    expanded = expand_length1(parse_presentation(pres))
    (tmp_path / "d40x.pres").write_text(format_presentation(expanded))
    code, out = run("covers", tmp_path / "d40x.pres", "-N", "2", "--module", tmp_path / "d40.module")
    assert code == 0 and out.rstrip().endswith(" [ok]"), out
    # Its Alexander polynomial is a Tietze invariant: the same bytes.
    assert run("alex", tmp_path / "d40x.pres") == run("alex", tmp_path / "d40.pres")
    code, out = run("verify", tmp_path / "d40x.pres", "--module", tmp_path / "d40.module",
                    "-N", "2,3", "--meridian", "t", "--max-cosets", "100")
    verdicts = {line.split()[0]: line.split()[1] for line in out.splitlines()}
    assert [verdicts[k] for k in ("alexander", "covers-N2", "covers-N3")] == ["PASS"] * 3, out
    # The weight-1 certificate of 815 generators ends inconclusive at this budget.
    assert (code, verdicts["weight-1"]) in ((0, "PASS"), (2, "INCONCLUSIVE")), out

    # Each killed corpus meridian: found moves within three relator
    # multiplications, or budget where none are found there.
    expected = {"spun_trefoil": (0, "found moves=10"), "lemma4_companion": (0, "found moves=12"),
                "lemma3_companion": (0, "found moves=14"), "trotter_2": (2, "budget"),
                "yoshikawa": (2, "budget")}
    for name, outcome in expected.items():
        code = cli.main(["ac-search", str(corpus / f"{name}.pres"), "--kill", "t",
                         "--max-len", "32", "--max-depth", "3"])
        assert (code, capsys.readouterr().err.strip()) == outcome, name
    print("\nACCEPTANCE 10: PASS - 3x3 Trotter verify -N 64 and covers -N 512, degree-40 covers "
          "-N 32 and -N 128 and verify -N 2,3, expanded degree-40 covers -N 2, alex and "
          "verify -N 2,3, killed meridians ac-search")


def _flagged(q, corpus, module_name) -> bool:
    """Mirror of the verify checks: abelianization, Alexander polynomial,
    or cover homology mismatch for some N in {2, 3, 4}."""
    from ribbonknots.constructions import parse_module_spec

    spec = parse_module_spec(
        (corpus / module_name).read_text(), lambda rel: (corpus / rel).read_text()
    )
    if abelianization(q) != Z:
        return True
    target = normalize_unit(det_lambda(spec.presentation_matrix()))
    try:
        if not eq_up_to_unit(alexander_polynomial(q), target):
            return True
    except ValueError:
        return True
    weights = weight_vector(q)
    for n in (2, 3, 4):
        if cover_homology(q, n, weights) != module_cover_homology(spec, n):
            return True
    return False
