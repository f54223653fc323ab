"""Exact arithmetic over Z[t, t^-1]: Laurent polynomials and determinants.

Coefficients are arbitrary-precision integers.  A polynomial is stored
as its lowest exponent plus the coefficient run; the zero polynomial has
an empty run.  Everything here is immutable and pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .intlinalg import Matrix, bareiss_det
from .words import parse_int


@dataclass(frozen=True)
class LaurentPoly:
    """Sum of ``coeffs[i] * t**(low + i)`` with nonzero end coefficients."""

    low: int = 0
    coeffs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.coeffs and (self.coeffs[0] == 0 or self.coeffs[-1] == 0):
            raise ValueError("coefficient run not normalized")
        if not self.coeffs and self.low:
            raise ValueError("the zero polynomial has low exponent 0")

    def is_zero(self) -> bool:
        return not self.coeffs

    def terms(self) -> Iterable[tuple[int, int]]:
        """Yield (exponent, coefficient) pairs with nonzero coefficient."""
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.low + i, c

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms())
        for k, c in other.terms():
            out[k] = out.get(k, 0) + c
        return laurent(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + -other

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero() or other.is_zero():
            return ZERO
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ca in enumerate(self.coeffs):
            if ca:
                for j, cb in enumerate(other.coeffs):
                    out[i + j] += ca * cb
        return from_coeffs(out, self.low + other.low)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.low, tuple(-c for c in self.coeffs))

    def __floordiv__(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient by synthetic division of the coefficient runs,
        top first; raises ValueError when ``other`` does not divide ``self``."""
        b = other.coeffs
        if not b:
            raise ZeroDivisionError("division by the zero polynomial")
        rem, m = list(self.coeffs), len(b) - 1
        quot = [0] * max(len(rem) - m, 0)
        for k in reversed(range(len(quot))):
            quot[k], r = divmod(rem[k + m], b[-1])
            if r:
                raise ValueError("inexact polynomial division")
            for j in range(m):
                rem[k + j] -= quot[k] * b[j]
        if any(rem[:m]):
            raise ValueError("inexact polynomial division")
        return LaurentPoly(self.low - other.low, tuple(quot)) if quot else ZERO

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k, c in self.terms():
            if k == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}t" if k == 1 else f"{mag}t^{k}"
            parts.append(("- " if c < 0 else "+ ") + term)
        head = parts[0].replace("+ ", "").replace("- ", "-")
        return " ".join([head] + parts[1:])


ZERO = LaurentPoly()
ONE = LaurentPoly(0, (1,))


def laurent(terms: dict[int, int]) -> LaurentPoly:
    """Build a polynomial from an exponent -> coefficient mapping."""
    nonzero = {k: c for k, c in terms.items() if c}
    if not nonzero:
        return ZERO
    low, high = min(nonzero), max(nonzero)
    return LaurentPoly(low, tuple(nonzero.get(k, 0) for k in range(low, high + 1)))


def from_coeffs(coeffs: Sequence[int], low: int = 0) -> LaurentPoly:
    return laurent({low + i: c for i, c in enumerate(coeffs)})


def augmentation(p: LaurentPoly) -> int:
    """Sum of coefficients (the evaluation t -> 1)."""
    return sum(p.coeffs)


def normalize_unit(p: LaurentPoly) -> LaurentPoly:
    """Multiply by a unit (+-t^k) so low = 0 and the constant term is
    positive; fixes the printed form of Alexander polynomials."""
    if p.is_zero():
        return ZERO
    sign = 1 if p.coeffs[0] > 0 else -1
    return LaurentPoly(0, tuple(sign * c for c in p.coeffs))


def det_lambda(m: Matrix) -> LaurentPoly:
    """Exact determinant over Z[t, t^-1], by one pivot loop over sparse rows.

    Each step takes, at least Markowitz cost (row nonzeros - 1)(column
    nonzeros - 1), an entry that is alone in its row or column or is a
    unit +-t^k.  A unit first clears its column by row operations with
    multiples of t^-k, so nothing is divided.  The determinant then
    expands along the pivot's row or column, signed by the pivot's
    position among the rows and columns left.  A zero row or column
    gives 0; the core no pivot reaches takes :func:`bareiss_det`, which
    gives 1 on the empty matrix.
    """
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    rows = {i: {j: p for j, p in enumerate(row) if p.coeffs} for i, row in enumerate(m.entries)}
    cols: dict[int, set[int]] = {j: set() for j in range(m.cols)}
    for i, row in rows.items():
        for j in row:
            cols[j].add(i)
    factor = ONE
    while len(rows) > 1:
        if not all(rows.values()) or not all(cols.values()):
            return ZERO
        pivots = [((len(row) - 1) * (len(cols[j]) - 1), i, j) for i, row in rows.items()
                  for j, p in row.items() if len(row) == 1 or len(cols[j]) == 1 or p.coeffs in ((1,), (-1,))]
        if not pivots:
            break
        _, i, j = min(pivots)
        pivot = rows.pop(i)
        if len(pivot) > 1:  # a unit, unless alone in its column: clear that column
            inverse = LaurentPoly(-pivot[j].low, pivot[j].coeffs)
            for r in cols[j] - {i}:
                c = rows[r][j] * inverse
                for k, p in pivot.items():
                    q = rows[r].pop(k, ZERO) - c * p
                    cols[k].discard(r)
                    if q.coeffs:
                        rows[r][k] = q
                        cols[k].add(r)
        for k in pivot:
            cols[k].discard(i)
        for r in cols.pop(j):
            del rows[r][j]
        sign = sum(r < i for r in rows) + sum(k < j for k in cols)
        factor = factor * (-pivot[j] if sign % 2 else pivot[j])
    core = [[row.get(k, ZERO) for k in sorted(cols)] for _, row in sorted(rows.items())]
    det = bareiss_det(core, ZERO, ONE)
    return det if factor == ONE else factor * det


def parse_poly_line(text: str) -> LaurentPoly:
    """Parse ``poly <low> <c0> <c1> ... <cn>``."""
    tokens = text.split()
    if not tokens or tokens[0] != "poly":
        raise ValueError(f"expected a 'poly' line, got {text!r}")
    try:
        numbers = [parse_int(tok) for tok in tokens[1:]]
    except ValueError:
        raise ValueError(f"non-integer token in poly line {text!r}")
    if not numbers:
        raise ValueError("poly line needs a low exponent")
    return from_coeffs(numbers[1:], low=numbers[0])


def format_poly_line(p: LaurentPoly) -> str:
    if p.is_zero():
        return "poly 0 0"
    return "poly " + " ".join(str(x) for x in (p.low, *p.coeffs))


def parse_coeffs(text: str) -> LaurentPoly:
    """Parse the CLI shorthand ``c0,c1,...,cn`` (low = 0)."""
    try:
        return from_coeffs([parse_int(tok.strip()) for tok in text.split(",")])
    except ValueError:
        raise ValueError(f"bad coefficient list {text!r}")
