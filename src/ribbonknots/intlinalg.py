"""Exact linear algebra.

The matrix type and the Bareiss determinant, shared by Z and Z[t, t^-1];
over Z, cokernel invariants of relation matrices by sparse elimination,
and Smith normal form with transforms, which only tests and bench call.

Convention used across the repo: rows are relators, columns are
generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence, TypeVar

from .words import input_lines, parse_int

R = TypeVar("R")


@dataclass(frozen=True)
class Matrix:
    """Rectangular matrix over Z (int entries) or Z[t, t^-1]
    (``LaurentPoly`` entries)."""

    entries: tuple[tuple, ...]
    # A 0 x c matrix cannot carry its width in `entries`, so keep it aside.
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

    def __getitem__(self, ij: tuple[int, int]):
        return self.entries[ij[0]][ij[1]]


def matrix(rows: Sequence[Sequence], cols: int | None = None) -> Matrix:
    grid = tuple(tuple(row) for row in rows)
    if not grid:
        if cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        return Matrix((), empty_cols=cols)
    return Matrix(grid)


@dataclass(frozen=True)
class AbelianGroupInvariants:
    """Invariant factors of a finitely generated abelian group."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion coefficients must form a divisor chain")
        if any(d < 2 for d in self.torsion):
            raise ValueError("torsion coefficients must be >= 2")

    def __str__(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


def bareiss_det(rows: Sequence[Sequence[R]], zero: R, one: R) -> R:
    """Determinant of a square matrix over an integral domain with
    elements ``zero`` and ``one``, by fraction-free (Bareiss) elimination.

    Entries need ``+``, ``-``, ``*`` and an exact ``//``: every entry the
    elimination writes is a minor of the row-swapped input (Bareiss,
    Math. Comp. 22, 1968), so each division is exact and one routine
    serves Z and Z[t, t^-1].  The last pivot is the determinant up to
    the sign of the swaps; the empty matrix has determinant ``one``.
    """
    n = len(rows)
    grid = [list(row) for row in rows]
    sign = 1
    prev = one
    for k in range(n):
        if grid[k][k] == zero:
            pivot = next((i for i in range(k + 1, n) if grid[i][k] != zero), None)
            if pivot is None:
                return zero
            grid[k], grid[pivot] = grid[pivot], grid[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                grid[i][j] = (grid[k][k] * grid[i][j] - grid[i][k] * grid[k][j]) // prev
        prev = grid[k][k]
    return prev if sign > 0 else -prev


def smith_normal_form(m: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Return unimodular (U, S, V) with ``U m V = S`` diagonal,
    nonnegative, and with each diagonal entry dividing the next.

    Pivoting rule: smallest nonzero absolute value, ties broken by
    (row, column) index, so outputs are deterministic.
    """
    rows, cols = m.rows, m.cols
    grid = [list(row) for row in m.entries]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def row_add(i: int, j: int, c: int) -> None:
        grid[i] = [a + c * b for a, b in zip(grid[i], grid[j])]
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]

    def row_swap(i: int, j: int) -> None:
        grid[i], grid[j] = grid[j], grid[i]
        u[i], u[j] = u[j], u[i]

    def col_add(i: int, j: int, c: int) -> None:
        # column i += c * column j
        for row in grid:
            row[i] += c * row[j]
        for row in v:
            row[i] += c * row[j]

    def col_swap(i: int, j: int) -> None:
        for row in grid:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def row_negate(i: int) -> None:
        grid[i] = [-a for a in grid[i]]
        u[i] = [-a for a in u[i]]

    k = 0
    while k < min(rows, cols):
        # Locate the smallest nonzero entry in the remaining block.
        best = None
        for i in range(k, rows):
            for j in range(k, cols):
                if grid[i][j] != 0 and (best is None or abs(grid[i][j]) < abs(grid[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i0, j0 = best
        if i0 != k:
            row_swap(k, i0)
        if j0 != k:
            col_swap(k, j0)
        # Clear row and column k; restart if a remainder becomes the new
        # smallest entry.
        dirty = False
        for i in range(k + 1, rows):
            if grid[i][k] != 0:
                q = grid[i][k] // grid[k][k]
                row_add(i, k, -q)
                if grid[i][k] != 0:
                    dirty = True
        for j in range(k + 1, cols):
            if grid[k][j] != 0:
                q = grid[k][j] // grid[k][k]
                col_add(j, k, -q)
                if grid[k][j] != 0:
                    dirty = True
        if dirty:
            continue
        # Enforce divisibility of the remaining block by the pivot.
        pivot = grid[k][k]
        offender = None
        for i in range(k + 1, rows):
            for j in range(k + 1, cols):
                if grid[i][j] % pivot != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_add(k, offender, 1)
            continue
        if pivot < 0:
            row_negate(k)
        k += 1
    return matrix(u, cols=rows), matrix(grid, cols=cols), matrix(v, cols=cols)


def cokernel_invariants(rows: Sequence[dict[int, int]], cols: int) -> AbelianGroupInvariants:
    """Invariants of ``Z^cols / row-span(rows)`` (rows are relations).
    The rows are consumed: the elimination rewrites them; zeros are allowed.

    Invariants-only Smith form by sparse elimination, without the
    transforms of :func:`smith_normal_form`.  Rows are ``{col: value}``
    dicts, with a column -> rows index.  Each step takes the nonzero of
    least key ``(|x|, cost, i, j)``: least absolute value, then least
    Markowitz cost ``(row nnz - 1) * (col nnz - 1)``, then least
    ``(row, col)``.  It clears its column by floor-quotient row
    operations, then reduces the rest of its row mod the pivot; that
    column operation touches only the pivot row, because the pivot column
    is already clear.  Any remainder is smaller than the pivot and becomes
    the next pivot.  An isolated pivot is recorded and its row and column
    dropped.  The recorded pivots become a divisor chain by one gcd/lcm
    pass.

    The search is incremental: ``best[i]`` is the least key over the
    entries of live row ``i``, so the pivot is ``min(best.values())``.
    After a step, the rows whose entries changed (each row a row operation
    touched, and the pivot row once reduced) are re-keyed by a scan of the
    row.  In any other row only the cost of an entry in a column whose
    nonzero count changed has moved: that key replaces ``best[i]`` if it
    is less, and the row is re-scanned if that entry was ``best[i]`` and
    its cost rose.
    """
    live: dict[int, dict[int, int]] = {}
    index: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        if 0 in row.values():
            row = {j: x for j, x in row.items() if x}
        if row:
            live[i] = row
            for j in row:
                index.setdefault(j, set()).add(i)

    def key(i: int) -> tuple[int, int, int, int]:
        row = live[i]
        row_cost = len(row) - 1
        return min([(abs(x), row_cost * (len(index[j]) - 1), i, j) for j, x in row.items()])

    best = {i: key(i) for i in live}
    units = 0
    nonunits: list[int] = []
    while live:
        i0, j0 = min(best.values())[2:]
        pivot_row = live[i0]
        p = pivot_row[j0]
        changed = [i for i in index[j0] if i != i0]
        counted: set[int] = set()  # columns whose nonzero count changed
        dirty = False
        for i in changed:
            row = live[i]
            q = row[j0] // p
            for j, x in pivot_row.items():
                y = row.get(j, 0) - q * x
                if y:
                    if j not in row:
                        index[j].add(i)
                        counted.add(j)
                    row[j] = y
                else:
                    del row[j]
                    index[j].discard(i)
                    counted.add(j)
            if j0 in row:
                dirty = True
            elif not row:
                del live[i], best[i]
        if not dirty:
            changed.append(i0)
            for j in [j for j in pivot_row if j != j0]:
                r = pivot_row[j] % p
                if r:
                    pivot_row[j] = r
                else:
                    del pivot_row[j]
                    index[j].discard(i0)
                    counted.add(j)
            if len(pivot_row) == 1:
                del live[i0], best[i0], index[j0]
                counted.discard(j0)
                if p in (1, -1):
                    units += 1
                else:
                    nonunits.append(abs(p))
        rekeyed = {i for i in changed if i in live}
        for i in rekeyed:
            best[i] = key(i)
        for j in counted:
            col_cost = len(index[j]) - 1
            for i in index[j]:
                if i in rekeyed:
                    continue
                row = live[i]
                k = (abs(row[j]), (len(row) - 1) * col_cost, i, j)
                if k < best[i]:
                    best[i] = k
                elif best[i][3] == j and k != best[i]:
                    best[i] = key(i)
    chain = divisor_chain(nonunits)
    return AbelianGroupInvariants(cols - units - len(chain), tuple(d for d in chain if d > 1))


def divisor_chain(xs: list[int]) -> list[int]:
    """The positive ``xs`` (consumed) as a divisor chain with the same sum of cyclic
    groups: (a, b) -> (gcd, lcm) keeps it; a divides all once it has met them."""
    for a in range(len(xs)):
        for b in range(a + 1, len(xs)):
            g = gcd(xs[a], xs[b])
            xs[a], xs[b] = g, xs[a] // g * xs[b]
    return xs


def parse_matrix(text: str) -> Matrix:
    """Parse the matrix file format: ``rows cols`` header then rows of
    whitespace-separated integers; ``#`` starts a comment line."""
    lines = input_lines(text)
    if not lines:
        raise ValueError("empty matrix file")
    try:
        rows, cols = (parse_int(tok) for tok in lines[0].split())
    except ValueError:
        rows = cols = -1
    if min(rows, cols) < 0:
        raise ValueError(f"bad matrix header {lines[0]!r}")
    if len(lines) - 1 != rows:
        raise ValueError(f"expected {rows} matrix rows, found {len(lines) - 1}")
    grid = []
    for ln in lines[1:]:
        try:
            row = [parse_int(tok) for tok in ln.split()]
        except ValueError:
            raise ValueError(f"non-integer matrix entry in {ln!r}")
        if len(row) != cols:
            raise ValueError(f"expected {cols} entries in row {ln!r}")
        grid.append(row)
    return matrix(grid, cols=cols)
