import random
from collections import Counter

import pytest

from ribbonknots.fox import alexander_matrix, alexander_polynomial
from ribbonknots.constructions import realize_cyclic
from ribbonknots.intlinalg import matrix
from ribbonknots.laurent import LaurentPoly, det_lambda, from_coeffs, laurent
from ribbonknots.presentations import parse_presentation, weight_vector
from ribbonknots.words import IDENTITY, gen, normalize, parse_word, product
from reference import (
    RING_ONE,
    RING_ZERO,
    abelianize_to_lambda,
    count_calls,
    cyclic_alpha,
    eq_up_to_unit,
    expanded_cyclic_form,
    fox_derivative,
    fundamental_identity_holds,
    ring_elem,
    word_elem,
)


def test_fox_base_cases():
    assert fox_derivative(gen("x"), "x") == RING_ONE
    assert fox_derivative(gen("y"), "x") == RING_ZERO
    assert fox_derivative(gen("x", -1), "x") == ring_elem({gen("x", -1): -1})
    assert fox_derivative(IDENTITY, "x") == RING_ZERO


def test_fox_product_rule():
    rng = random.Random(31)
    gens = ["x", "y", "z"]

    def rand_word():
        return normalize(
            (rng.choice(gens), rng.choice([-1, 1])) for _ in range(rng.randrange(10))
        )

    for _ in range(100):
        u, v = rand_word(), rand_word()
        for g in gens:
            lhs = fox_derivative(product(u, v), g)
            rhs = fox_derivative(u, g) + word_elem(u) * fox_derivative(v, g)
            assert lhs == rhs


def test_fundamental_identity_randomized():
    rng = random.Random(32)
    gens = ["a", "b", "c", "d"]
    for _ in range(200):
        w = normalize(
            (rng.choice(gens), rng.choice([-2, -1, 1, 2])) for _ in range(rng.randrange(12))
        )
        assert fundamental_identity_holds(w, gens)


def test_abelianize_to_lambda():
    e = fox_derivative(parse_word("x y x^-1 y^-1"), "x")
    p = abelianize_to_lambda(e, {"x": 1, "y": 1})
    assert p == laurent({0: 1, 1: -1})
    with pytest.raises(ValueError):
        abelianize_to_lambda(word_elem(gen("z")), {"x": 1})


def test_alexander_trefoil():
    p = parse_presentation("gens a b c\nrel a = b c b^-1\nrel b = c a c^-1")
    assert eq_up_to_unit(alexander_polynomial(p), from_coeffs([1, -1, 1]))
    # <a, b | a^2 b^-3> has weights (3, 2) and no weight +-1: the minor
    # that drops b is 1 + t^3 = (1 + t)(1 - t + t^2), divided by 1 + t.
    p = parse_presentation("gens a b\nrel a^2 b^-3")
    assert alexander_polynomial(p) == from_coeffs([1, -1, 1])


def test_alexander_matrix_shape_and_columns():
    p = parse_presentation("gens t u\nrel u^-1 t u t u^-1 t^-1")
    w = weight_vector(p)
    m = alexander_matrix(p, w)
    assert m.rows == 1 and m.cols == 2
    # column-choice independence across weight +-1 generators
    polys = [
        det_lambda(matrix([row[:j] + row[j + 1 :] for row in m.entries]))
        for j, wt in enumerate(w)
        if abs(wt) == 1
    ]
    assert len(polys) == 2
    for q in polys:
        assert eq_up_to_unit(alexander_polynomial(p), q)


def test_alexander_degree_40_cyclic():
    # A 1,630-letter Wirtinger relator; the group-ring Fox path took
    # over a minute on relators of this length.
    rng = random.Random(0)
    b = [rng.choice((-1, 1)) * rng.randint(6, 14) for _ in range(40)]
    alpha = from_coeffs([1 - b[0]] + [b[i - 1] - b[i] for i in range(1, 40)] + [b[-1]])
    p = realize_cyclic(alpha).wirtinger_presentation
    assert sum(len(r) for r in p.relators) > 1500
    assert eq_up_to_unit(alexander_polynomial(p), alpha)


def test_alexander_laurent_operations_grow_linearly_on_expanded_forms(monkeypatch):
    # On the expand_length1 forms of the cyclic realizations of degree
    # 5 -> 40 (432 -> 3,256 relator letters, 108 -> 814 square minors),
    # det_lambda pivots on lone entries and units: 1,179, 2,257, 4,501 and
    # 8,945 Laurent operations.  Peeling only lone entries and then running
    # Bareiss on the rest made 2.48 M at degree 5 and 17.4 M at degree 10.
    work = Counter()
    for name in ("__add__", "__sub__", "__mul__", "__neg__", "__floordiv__"):
        def counted(self, *other, _op=getattr(LaurentPoly, name)):
            work["ops"] += 1
            return _op(self, *other)
        monkeypatch.setattr(LaurentPoly, name, counted)
    ladder = []
    for d in (5, 10, 20, 40):
        p = expanded_cyclic_form(d)
        work.clear()
        assert eq_up_to_unit(alexander_polynomial(p), cyclic_alpha(d))
        letters = sum(len(r) for r in p.relators)
        ladder.append((letters, work["ops"]))
        assert work["ops"] <= 3 * letters, ladder
    for (l0, n0), (l1, n1) in zip(ladder, ladder[1:]):
        assert n1 <= 2.2 * n0 * l1 / l0, ladder


def test_alexander_matrix_builds_only_its_nonzero_cells(monkeypatch):
    # The expanded degree-40 form has 815 generators and 814 relators but
    # only 2,442 nonzero Fox cells; building every cell of the dense grid
    # made 663,410 laurent calls.
    p = expanded_cyclic_form(40)
    weights = weight_vector(p)
    calls, patched = count_calls(monkeypatch, laurent)
    assert "ribbonknots.fox" in patched
    m = alexander_matrix(p, weights)
    nonzero = sum(bool(entry.coeffs) for row in m.entries for entry in row)
    assert nonzero == 2442
    assert len(calls) <= nonzero


def test_alexander_unknot_and_errors():
    assert alexander_polynomial(parse_presentation("gens t")) == from_coeffs([1])
    with pytest.raises(ValueError):
        alexander_polynomial(parse_presentation("gens a b\nrel a b^-1\nrel a b^-1"))
    with pytest.raises(ValueError, match="every generator has weight 0"):
        alexander_polynomial(parse_presentation("gens a b\nrel a b^-1"), (0, 0))


def test_group_ring_arithmetic():
    x = word_elem(gen("x"))
    assert x - x == RING_ZERO
    assert (x + RING_ONE) * (x - RING_ONE) == word_elem(gen("x", 2)) - RING_ONE
