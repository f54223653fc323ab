import random

import pytest

from ribbonknots.intlinalg import (
    AbelianGroupInvariants,
    cokernel_invariants,
    matrix,
    parse_matrix,
    smith_normal_form,
)
from reference import (
    det_int,
    diagonal_of,
    factor_glnz,
    matmul,
    random_unimodular,
    replay_elementary,
)


def random_matrix(rng, rows, cols, bound=9):
    return matrix([[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)])


def test_det_int_basics():
    assert det_int(matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 1
    assert det_int(matrix([[2, 0], [0, 3]])) == 6
    assert det_int(matrix([[1, 2], [2, 4]])) == 0
    assert det_int(matrix([], cols=0)) == 1


def test_det_int_multiplicative():
    rng = random.Random(21)
    for _ in range(50):
        n = rng.randint(1, 4)
        a, b = random_matrix(rng, n, n, 5), random_matrix(rng, n, n, 5)
        assert det_int(matmul(a, b)) == det_int(a) * det_int(b)


def test_elementary_inverses():
    """The operations of ``reference.factor_glnz``, the factorization
    that ``constructions.lift_glnz`` is compared with, undo in reverse."""
    rng = random.Random(22)
    for _ in range(50):
        n = rng.randint(2, 4)
        m = random_unimodular(rng, n, rng.randrange(11))
        ops = factor_glnz(m)
        undo = tuple(op.inverse() for op in reversed(ops))
        identity = matrix([[int(i == j) for j in range(n)] for i in range(n)])
        assert replay_elementary(tuple(ops) + undo, n) == identity


def test_factor_glnz_replay_exact():
    """``reference.factor_glnz`` replays to its input."""
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(1, 4)
        m = random_unimodular(rng, n, rng.randrange(11))
        assert replay_elementary(factor_glnz(m), n) == m
    with pytest.raises(ValueError):
        factor_glnz(matrix([[2]]))


def test_snf_contract():
    rng = random.Random(24)
    for _ in range(100):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = random_matrix(rng, rows, cols)
        u, s, v = smith_normal_form(m)
        assert matmul(matmul(u, m), v) == s
        assert abs(det_int(u)) == 1 and abs(det_int(v)) == 1
        diag = diagonal_of(s)
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            assert b == 0 or (a != 0 and b % a == 0) or (a == 0 and b == 0)
        # off-diagonal zero
        for i in range(s.rows):
            for j in range(s.cols):
                if i != j:
                    assert s[i, j] == 0
        if rows == cols:
            prod = 1
            for d in diag:
                prod *= d
            assert prod == abs(det_int(m))


def test_snf_deterministic():
    rng = random.Random(25)
    m = random_matrix(rng, 4, 4)
    assert smith_normal_form(m) == smith_normal_form(m)


def test_cokernel_invariants():
    assert cokernel_invariants([{0: 2}, {1: 3}], 2) == AbelianGroupInvariants(0, (6,))
    assert cokernel_invariants([{0: 0, 1: 0}], 2) == AbelianGroupInvariants(2)
    assert cokernel_invariants([], 3) == AbelianGroupInvariants(3)
    # zero values and empty rows are allowed
    rows = [{0: 4, 1: 0, 2: 6}, {}, {1: 0, 2: 2}]
    assert cokernel_invariants(rows, 3) == AbelianGroupInvariants(1, (2, 4))
    assert str(AbelianGroupInvariants(1, (3,))) == "Z + Z/3"
    assert str(AbelianGroupInvariants(0)) == "0"
    # negative units: [[-1, 4], [2, -2]] has determinant -6
    assert cokernel_invariants([{0: -1, 1: 4}, {0: 2, 1: -2}], 2) == AbelianGroupInvariants(0, (6,))
    assert cokernel_invariants([{0: -1, 2: -1}, {1: -1}], 3) == AbelianGroupInvariants(1)
    # duplicate and negated rows cancel to empty
    rows = [{0: 1, 1: 2}, {0: 1, 1: 2}, {0: -1, 1: -2}, {1: 4}]
    assert cokernel_invariants(rows, 2) == AbelianGroupInvariants(0, (4,))
    # an all-unit identity, with and without signs
    assert cokernel_invariants([{i: 1} for i in range(5)], 5) == AbelianGroupInvariants(0)
    assert cokernel_invariants([{i: (-1) ** i} for i in range(5)], 6) == AbelianGroupInvariants(1)
    # no unit at all: every pivot reduces its row
    assert cokernel_invariants([{0: 2, 1: 4}, {0: 6, 1: 3}], 2) == AbelianGroupInvariants(0, (18,))
    rows = [{0: 2}, {1: 4}, {2: 6}]
    assert cokernel_invariants(rows, 3) == AbelianGroupInvariants(0, (2, 2, 12))


def test_invariants_validation():
    with pytest.raises(ValueError):
        AbelianGroupInvariants(0, (3, 2))
    with pytest.raises(ValueError):
        AbelianGroupInvariants(0, (1,))


def test_matrix_file_roundtrip():
    m = matrix([[1, -2], [0, 7]])
    with pytest.raises(ValueError, match="^ragged matrix$"):
        matrix([[1], [1, 2]])
    with pytest.raises(ValueError, match="^empty matrix needs an explicit column count$"):
        matrix([])
    assert parse_matrix("2 2\n1 -2\n0 7\n") == m
    assert parse_matrix("# c\n2 2\n1 -2 # tail\n0 7\n") == m
    with pytest.raises(ValueError):
        parse_matrix("1 2\n1\n")
    with pytest.raises(ValueError):
        parse_matrix("")
    for header in ("0 -2", "-1 2"):
        with pytest.raises(ValueError, match=f"^bad matrix header '{header}'$"):
            parse_matrix(header + "\n")
