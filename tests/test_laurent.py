import random

import pytest

from ribbonknots.intlinalg import matrix
from ribbonknots.laurent import (
    LaurentPoly,
    ONE,
    ZERO,
    augmentation,
    det_lambda,
    format_poly_line,
    from_coeffs,
    laurent,
    normalize_unit,
    parse_coeffs,
    parse_poly_line,
)
from reference import eq_up_to_unit


def random_poly(rng, max_deg=4, max_coeff=5):
    return laurent(
        {
            k: rng.randint(-max_coeff, max_coeff)
            for k in range(rng.randint(-2, 0), rng.randint(0, max_deg))
        }
    )


def test_normalization_invariant():
    with pytest.raises(ValueError):
        LaurentPoly(0, (0, 1))
    with pytest.raises(ValueError):
        LaurentPoly(3, ())
    assert laurent({0: 0}) == ZERO
    assert laurent({-2: 3}).low == -2


def test_ring_axioms_randomized():
    rng = random.Random(5)
    for _ in range(200):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + ZERO == a and a * ONE == a
        assert a - a == ZERO


def test_augmentation_is_ring_map():
    rng = random.Random(6)
    for _ in range(100):
        a, b = random_poly(rng), random_poly(rng)
        assert augmentation(a * b) == augmentation(a) * augmentation(b)
        assert augmentation(a + b) == augmentation(a) + augmentation(b)


def test_div_exact_t_minus_1():
    t = from_coeffs([0, 1])
    tm1 = t - ONE
    assert (t * t - t) // tm1 == t
    rng = random.Random(8)
    for _ in range(100):
        q = random_poly(rng)
        assert (q * tm1) // tm1 == q
    with pytest.raises(ValueError):
        ONE // tm1


def test_unit_normalization():
    assert normalize_unit(laurent({3: -2, 4: 1})) == from_coeffs([2, -1])
    assert eq_up_to_unit(from_coeffs([1, -1, 1]), laurent({-1: -1, 0: 1, 1: -1}))
    assert not eq_up_to_unit(ONE, from_coeffs([1, 1]))


def test_div_exact():
    rng = random.Random(10)
    for _ in range(100):
        a, b = random_poly(rng), random_poly(rng)
        if b.is_zero():
            continue
        assert (a * b) // b == a
    with pytest.raises(ValueError):
        from_coeffs([1, 1]) // from_coeffs([2])


def test_det_lambda_small_and_bareiss_agree():
    # Oracle: sympy's determinant over Z[t] of the matrix times t^2, which
    # clears the negative powers (random_poly has low >= -2).
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    t = sympy.Symbol("t")
    ring = sympy.ZZ[t]

    def to_expr(p, shift):
        return sum((c * t ** (k + shift) for k, c in p.terms()), sympy.Integer(0))

    rng = random.Random(12)
    for n in (1, 2, 3, 4, 5, 6):
        for _ in range(6):
            rows = [[random_poly(rng, 2, 2) for _ in range(n)] for _ in range(n)]
            grid = [[ring.from_sympy(to_expr(e, 2)) for e in row] for row in rows]
            expect = ring.to_sympy(DomainMatrix(grid, (n, n), ring).det())
            got = to_expr(det_lambda(matrix(rows)), 2 * n)
            assert sympy.expand(got - expect) == 0


def test_det_identity_and_permutation():
    identity = [[ONE if i == j else ZERO for j in range(4)] for i in range(4)]
    assert det_lambda(matrix(identity)) == ONE
    m = matrix([[ZERO, ONE], [ONE, ZERO]])
    assert det_lambda(m) == -ONE


def test_det_lambda_diagonal_30():
    # Peeling takes one product per diagonal entry; no Bareiss division runs.
    rng = random.Random(30)
    ends = (-2, -1, 1, 2)
    diag = [
        from_coeffs(
            [rng.choice(ends), *(rng.randint(-3, 3) for _ in range(5)), rng.choice(ends)],
            low=rng.randint(-3, 3),
        )
        for _ in range(30)
    ]
    m = matrix([[p if i == j else ZERO for j in range(30)] for i, p in enumerate(diag)])
    expected = ONE
    for p in diag:
        expected = expected * p
    assert det_lambda(m) == expected


def test_det_lambda_empty_matrix_is_one():
    assert det_lambda(matrix([], cols=0)) == ONE
    with pytest.raises(ValueError, match="^determinant of a non-square matrix$"):
        det_lambda(matrix([[ONE, ONE]]))


def test_poly_line_roundtrip():
    for p in (ZERO, ONE, laurent({-2: 3, 1: -4})):
        assert parse_poly_line(format_poly_line(p)) == p
    assert parse_coeffs("1,-1,1") == from_coeffs([1, -1, 1])
    with pytest.raises(ValueError):
        parse_poly_line("poly")
    with pytest.raises(ValueError):
        parse_coeffs("1,x")
