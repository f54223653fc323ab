"""Exact arithmetic over Z[t, t^-1]: Laurent polynomials and matrices.

Coefficients are arbitrary-precision integers.  A polynomial is stored
as its lowest exponent plus the coefficient run; the zero polynomial has
an empty run.  Everything here is immutable and pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class LaurentPoly:
    """Sum of ``coeffs[i] * t**(low + i)`` with nonzero end coefficients."""

    low: int = 0
    coeffs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.coeffs and (self.coeffs[0] == 0 or self.coeffs[-1] == 0):
            raise ValueError("coefficient run not normalized")

    def is_zero(self) -> bool:
        return not self.coeffs

    def terms(self) -> Iterable[tuple[int, int]]:
        """Yield (exponent, coefficient) pairs with nonzero coefficient."""
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.low + i, c

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return poly_add(self, other)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return poly_add(self, poly_neg(other))

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        return poly_mul(self, other)

    def __neg__(self) -> "LaurentPoly":
        return poly_neg(self)

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


def t_power(k: int, coeff: int = 1) -> LaurentPoly:
    return laurent({k: coeff})


def poly_add(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    out = dict(a.terms())
    for k, c in b.terms():
        out[k] = out.get(k, 0) + c
    return laurent(out)


def poly_neg(a: LaurentPoly) -> LaurentPoly:
    return LaurentPoly(a.low, tuple(-c for c in a.coeffs))


def poly_mul(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    if a.is_zero() or b.is_zero():
        return ZERO
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ca in enumerate(a.coeffs):
        if ca:
            for j, cb in enumerate(b.coeffs):
                out[i + j] += ca * cb
    return from_coeffs(out, a.low + b.low)


def augmentation(p: LaurentPoly) -> int:
    """Sum of coefficients (the evaluation t -> 1)."""
    return sum(p.coeffs)


def div_exact_t_minus_1(p: LaurentPoly) -> LaurentPoly:
    """The exact quotient ``p / (t - 1)``; requires augmentation(p) == 0."""
    if augmentation(p) != 0:
        raise ValueError("polynomial is not divisible by t - 1")
    if p.is_zero():
        return ZERO
    # Synthetic division by (t - 1), low exponent first.
    out: list[int] = []
    acc = 0
    for c in p.coeffs[:-1]:
        acc += c
        out.append(-acc)
    return from_coeffs(out, p.low)


def normalize_unit(p: LaurentPoly) -> LaurentPoly:
    """Multiply by a unit (+-t^k) so low = 0 and the constant term is
    positive; fixes the printed form of Alexander polynomials."""
    if p.is_zero():
        return ZERO
    sign = 1 if p.coeffs[0] > 0 else -1
    return LaurentPoly(0, tuple(sign * c for c in p.coeffs))


def eq_up_to_unit(p: LaurentPoly, q: LaurentPoly) -> bool:
    return normalize_unit(p) == normalize_unit(q)


def _divmod_zt(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly | None]:
    """Integer-coefficient long division; remainder None when a leading
    coefficient fails to divide."""
    quot: dict[int, int] = {}
    while not a.is_zero() and len(a.coeffs) >= len(b.coeffs):
        if a.coeffs[-1] % b.coeffs[-1] != 0:
            return laurent(quot), None
        c = a.coeffs[-1] // b.coeffs[-1]
        k = (a.low + len(a.coeffs)) - (b.low + len(b.coeffs))
        quot[k] = quot.get(k, 0) + c
        a = a - poly_mul(b, t_power(k, c))
    return laurent(quot), a


def div_exact(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Exact quotient a / b; raises when the division is not exact."""
    if a.is_zero():
        return ZERO
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    quotient, rem = _divmod_zt(a, b)
    if rem is None or not rem.is_zero():
        raise ValueError("inexact polynomial division")
    return quotient


@dataclass(frozen=True)
class LambdaMatrix:
    """Rectangular matrix over Z[t, t^-1]."""

    entries: tuple[tuple[LaurentPoly, ...], ...]
    empty_cols: int = 0

    def __post_init__(self) -> None:
        if self.entries:
            width = len(self.entries[0])
            if any(len(row) != width for row in self.entries):
                raise ValueError("ragged matrix")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else self.empty_cols


def lambda_matrix(
    rows: Sequence[Sequence[LaurentPoly]], cols: int | None = None
) -> LambdaMatrix:
    grid = tuple(tuple(row) for row in rows)
    if not grid:
        if cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        return LambdaMatrix((), empty_cols=cols)
    return LambdaMatrix(grid)


def det_lambda(m: LambdaMatrix) -> LaurentPoly:
    """Exact determinant over Z[t, t^-1].

    While some row or column holds at most one nonzero entry, expand
    along it: a zero row or column gives 0, a lone entry a_ij multiplies
    a running factor by (-1)^(i+j) a_ij and its row and column go.  One
    scan peels every lone entry it finds.  A 1 x 1 core is its entry; a
    larger core takes fraction-free Bareiss (exact divisions in Z[t]).
    The empty matrix has determinant 1.
    """
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    rows: Sequence[Sequence[LaurentPoly]] = m.entries
    factor = ONE
    while len(rows) > 1:
        row_nz = [[j for j, p in enumerate(row) if p.coeffs] for row in rows]
        col_nz: list[list[int]] = [[] for _ in rows]
        for i, js in enumerate(row_nz):
            for j in js:
                col_nz[j].append(i)
        if not all(row_nz) or not all(col_nz):
            return ZERO
        lone = {(i, js[0]) for i, js in enumerate(row_nz) if len(js) == 1}
        lone |= {(ii[0], j) for j, ii in enumerate(col_nz) if len(ii) == 1}
        if not lone:
            break
        gone_rows = {i for i, _ in lone}
        gone_cols = {j for _, j in lone}
        if len(gone_rows) < len(lone) or len(gone_cols) < len(lone):
            return ZERO  # two lone rows on one column, or two lone columns on one row
        # Expand from the bottom row up: a row's index stays put, a
        # column's index drops by the peeled columns left of it.
        peeled: list[int] = []
        for i, j in sorted(lone, reverse=True):
            entry = rows[i][j]
            if (i + j - sum(c < j for c in peeled)) % 2:
                entry = poly_neg(entry)
            factor = poly_mul(factor, entry)
            peeled.append(j)
        rows = [
            [p for j, p in enumerate(row) if j not in gone_cols]
            for i, row in enumerate(rows)
            if i not in gone_rows
        ]
    if not rows:
        return factor
    det = rows[0][0] if len(rows) == 1 else _det_bareiss(rows)
    return det if factor == ONE else poly_mul(factor, det)


def _det_bareiss(rows: Sequence[Sequence[LaurentPoly]]) -> LaurentPoly:
    # Shift every entry to Z[t]; track the total unit shift.
    n = len(rows)
    shift = 0
    grid: list[list[LaurentPoly]] = []
    for row in rows:
        lows = [p.low for p in row if not p.is_zero()]
        s = min(lows) if lows else 0
        shift += s
        grid.append([poly_mul(p, t_power(-s)) for p in row])
    sign = 1
    prev = ONE
    for k in range(n - 1):
        if grid[k][k].is_zero():
            pivot_row = next(
                (i for i in range(k + 1, n) if not grid[i][k].is_zero()), None
            )
            if pivot_row is None:
                return ZERO
            grid[k], grid[pivot_row] = grid[pivot_row], grid[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = poly_mul(grid[k][k], grid[i][j]) - poly_mul(
                    grid[i][k], grid[k][j]
                )
                grid[i][j] = div_exact(num, prev)
            grid[i][k] = ZERO
        prev = grid[k][k]
    det = grid[n - 1][n - 1]
    if sign < 0:
        det = poly_neg(det)
    return poly_mul(det, t_power(shift))


def parse_poly_line(text: str) -> LaurentPoly:
    """Parse ``poly <low> <c0> <c1> ... <cn>``."""
    tokens = text.split()
    if not tokens or tokens[0] != "poly":
        raise ValueError(f"expected a 'poly' line, got {text!r}")
    try:
        numbers = [int(tok) for tok in tokens[1:]]
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
        return from_coeffs([int(tok) for tok in text.split(",")])
    except ValueError:
        raise ValueError(f"bad coefficient list {text!r}")
