import random

import pytest

from ribbonknots.constructions import (
    AdmissibilityError,
    KnotModuleSpec,
    cyclic_module,
    lift_glnz,
    matrix_module,
    parse_module_spec,
    realize,
    realize_cyclic,
    realize_lemma3_group,
    realize_lemma4,
    realize_sum,
    realize_trotter,
    sum_module,
)
from ribbonknots.fox import alexander_polynomial
from ribbonknots.intlinalg import matrix, parse_matrix
from ribbonknots.laurent import det_lambda, from_coeffs, laurent, normalize_unit
from ribbonknots.presentations import abelianization, deficiency, is_wirtinger, LOG
from ribbonknots.words import gen, substitute
from reference import (
    eq_up_to_unit,
    exponent_sums,
    is_ascending_hnn_shape,
    lift_glnz_reference,
    random_unimodular,
)


def test_admissibility_checks():
    with pytest.raises(AdmissibilityError):
        cyclic_module(from_coeffs([1, 1]))  # augmentation 2
    with pytest.raises(AdmissibilityError):
        matrix_module("trotter", matrix([[1]]))  # det(M - I) = 0
    with pytest.raises(AdmissibilityError):
        matrix_module("trotter", matrix([[0]]))  # det(M) = 0
    with pytest.raises(AdmissibilityError):
        matrix_module("tminus1", matrix([[2]]))
    with pytest.raises(AdmissibilityError):
        matrix_module("taction", matrix([[1]]))  # det(T - I) = 0
    with pytest.raises(AdmissibilityError):
        sum_module([])


def test_presentation_matrices():
    spec = matrix_module("trotter", matrix([[2]]))
    assert spec.presentation_matrix().entries[0][0] == laurent({0: -1, 1: 2})
    spec = matrix_module("taction", matrix([[0, 1], [-1, 1]]))
    m = spec.presentation_matrix()
    assert m.entries[0][1] == laurent({0: -1})
    spec = cyclic_module(from_coeffs([1, -1, 1]))
    assert spec.presentation_matrix().entries[0][0] == from_coeffs([1, -1, 1])


def test_cyclic_realization_shape():
    res = realize_cyclic(from_coeffs([1, -1, 1]))
    assert res.fg_commutator is True
    w = res.wirtinger_presentation
    assert len(w.generators) == 2 and len(w.relators) == 1
    assert str(w.relators[0]) == "u^-1 t u t u^-1 t^-1"
    assert isinstance(is_wirtinger(w), LOG)
    assert eq_up_to_unit(alexander_polynomial(w), from_coeffs([1, -1, 1]))


def test_cyclic_fg_flag():
    assert realize_cyclic(from_coeffs([2, -3, 2])).fg_commutator is False
    assert realize_cyclic(from_coeffs([1, -1, 1])).fg_commutator is True


def test_trotter_realization():
    res = realize_trotter(matrix([[2]]))
    assert deficiency(res.primary_presentation) == 1
    assert deficiency(res.wirtinger_presentation) == 1
    assert str(abelianization(res.wirtinger_presentation)) == "Z"
    assert eq_up_to_unit(
        alexander_polynomial(res.wirtinger_presentation), from_coeffs([-1, 2])
    )


def test_sum_realization():
    res = realize_sum([from_coeffs([1, -1, 1]), from_coeffs([2, -1])])
    assert len(res.wirtinger_presentation.generators) == 3
    target = normalize_unit(det_lambda(res.module_spec.presentation_matrix()))
    assert eq_up_to_unit(alexander_polynomial(res.wirtinger_presentation), target)


def test_wirtinger_forms_are_star_lots_at_t():
    """Every Wirtinger form conjugates t to each other generator once:
    a LOT that is a tree whose edges all end at t."""
    rng = random.Random(14)

    def poly():
        rest = [rng.randint(-3, 3) for _ in range(rng.randint(1, 5))]
        rest[-1] = rest[-1] or 1
        return from_coeffs([1 - sum(rest), *rest])  # augmentation 1

    def square():
        r = rng.randint(1, 3)
        return matrix([[rng.randint(-3, 3) for _ in range(r)] for _ in range(r)])

    builders = {
        realize_cyclic: poly,
        realize_sum: lambda: [poly() for _ in range(rng.randint(2, 4))],
        realize_trotter: square,
        realize_lemma4: lambda: random_unimodular(rng, rng.randint(1, 3), rng.randrange(8)),
    }
    for build, draw in builders.items():
        realized = 0
        for _ in range(5000):
            try:
                p = build(draw()).wirtinger_presentation
            except AdmissibilityError:  # a singular or non-unimodular draw
                continue
            log = is_wirtinger(p)
            assert isinstance(log, LOG) and log.is_tree, p
            assert all("t" in (e.origin, e.terminus) for e in log.edges), p
            realized += 1
            if realized == 100:
                break
        assert realized == 100, build.__name__


def test_lift_glnz_abelianization_and_inverse():
    rng = random.Random(41)
    for _ in range(50):
        n = rng.randint(1, 4)
        m = random_unimodular(rng, n, rng.randrange(8))
        mu, nu = lift_glnz(m)
        xs = [f"x{i}" for i in range(1, n + 1)]
        assert matrix([exponent_sums(w, xs) for w in mu]) == m
        identity = tuple(gen(x) for x in xs)
        assert tuple(substitute(w, dict(zip(xs, nu))) for w in mu) == identity
        assert tuple(substitute(w, dict(zip(xs, mu))) for w in nu) == identity
    assert lift_glnz(matrix([[0, 1], [1, 0]]))[0] == (gen("x2"), gen("x1"))  # det -1
    # pivot 2, singular 2 x 2, zero column
    for bad in ([[2]], [[1, 2], [2, 4]], [[0, 1], [0, 1]]):
        with pytest.raises(ValueError, match="not unimodular"):
            lift_glnz(matrix(bad))
    with pytest.raises(ValueError, match=r"^only square matrices lie in GL\(n, Z\)$"):
        lift_glnz(matrix([[1, 2]]))


def test_lift_glnz_matches_reference(corpus):
    """The lift is not unique and its words are CLI output: it must be
    the reference's automorphism word for word."""
    rng = random.Random(42)
    cases = [parse_matrix((corpus / f"{name}.mat").read_text())
             for name in ("lemma4_companion", "lemma3_companion")]
    cases += [random_unimodular(rng, rng.randint(1, 5), rng.randrange(17)) for _ in range(1200)]
    for m in cases:
        assert lift_glnz(m) == lift_glnz_reference(m), m.entries


def test_lemma4_realization():
    m = matrix([[0, 1], [1, 1]])
    res = realize_lemma4(m)
    assert is_ascending_hnn_shape(res.primary_presentation)
    assert str(abelianization(res.primary_presentation)) == "Z"
    assert str(abelianization(res.wirtinger_presentation)) == "Z"
    assert isinstance(is_wirtinger(res.wirtinger_presentation), LOG)


def test_lemma3_realization():
    t = matrix([[0, 1], [-1, 1]])
    res = realize_lemma3_group(t)
    assert res.wirtinger_presentation is None
    assert str(abelianization(res.primary_presentation)) == "Z"
    assert res.verification_presentation() is res.primary_presentation


def test_realize_dispatch():
    # Every kind goes to its construction and comes back as the same spec.
    specs = [
        cyclic_module(from_coeffs([1, -1, 1])),
        sum_module([from_coeffs([1, -1, 1]), from_coeffs([2, -1])]),
        matrix_module("trotter", matrix([[2, 1], [0, 2]])),
        matrix_module("tminus1", matrix([[0, 1], [1, 1]])),
        matrix_module("taction", matrix([[0, 1], [-1, 1]])),
    ]
    assert [s.kind for s in specs] == ["cyclic", "sum", "trotter", "tminus1", "taction"]
    for spec in specs:
        assert realize(spec).module_spec == spec
    for f in (KnotModuleSpec.lambda_rows, realize):
        with pytest.raises(ValueError, match="^unknown module kind 'bogus'$"):
            f(KnotModuleSpec("bogus"))


def test_parse_module_spec(tmp_path):
    (tmp_path / "m.mat").write_text("1 1\n2\n")
    read = lambda rel: (tmp_path / rel).read_text()
    spec = parse_module_spec("module trotter m.mat\n", read)
    assert spec.kind == "trotter" and spec.matrix == matrix([[2]])
    spec = parse_module_spec("module cyclic poly 0 1 -1 1\n", read)
    assert spec.polys[0] == from_coeffs([1, -1, 1])
    spec = parse_module_spec("module sum poly 0 1 -1 1 ; poly 0 2 -1\n", read)
    assert len(spec.polys) == 2
    with pytest.raises(ValueError):
        parse_module_spec("module bogus x\n", read)
    for line in ("module cyclic", "modul cyclic poly 0 1 -1 1"):
        with pytest.raises(ValueError, match=f"^bad module line '{line}'$"):
            parse_module_spec(line + "\n", read)
    with pytest.raises(ValueError):
        parse_module_spec("", read)
