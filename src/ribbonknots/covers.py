"""Finite cyclic covers: homology computed two independent ways.

For a group G with a weight map onto Z, the kernel of the composite
G -> Z -> Z/N has a presentation computable by Reidemeister-Schreier
rewriting.  Its abelianization is Z (from the free base coordinate)
plus the module A / (t^N - 1) A, where A is the metabelian module the
constructions are supposed to realize.  Computing both sides and
comparing them is the main correctness oracle of this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import mul
from typing import Iterator, Optional, Sequence

from .constructions import KnotModuleSpec
from .intlinalg import AbelianGroupInvariants, cokernel_invariants, matrix
from .presentations import Presentation
from .words import Word, normalize


def _weight_map(p: Presentation, n: int, weights: Sequence[int]) -> tuple[dict[str, int], list[int]]:
    """The weights by generator and the weighted sum of each relator.
    ``weights`` lists the generators' images in Z/N, in order; they must
    generate Z/N and kill every relator, so that they define a map onto it."""
    if n < 1:
        raise ValueError("cover order must be >= 1")
    if len(weights) != len(p.generators):
        raise ValueError("one weight per generator required")
    w = dict(zip(p.generators, weights))
    sums = [sum(w[g] * e for g, e in r.syllables) for r in p.relators]
    if gcd(n, *weights) != 1 or any(s % n for s in sums):
        raise ValueError(f"weights do not map the group onto Z/{n}")
    return w, sums


def _transversal(p: Presentation, n: int, w: dict[str, int]) -> dict[tuple[int, str], int]:
    """The column of each Schreier generator.  The transversal is the
    breadth-first spanning tree of the coset graph from coset 0,
    generators in presentation order, positive direction first.  Each
    pair (coset c, generator g) off the tree is a Schreier generator
    ``<g>_<c>``; columns run generator by generator, cosets ascending.
    """
    tree: set[tuple[int, str]] = set()
    seen = {0}
    queue = [0]
    for c in queue:  # the queue grows while it is read
        for g in p.generators:
            fwd = (c + w[g]) % n
            if fwd not in seen:
                seen.add(fwd)
                tree.add((c, g))
                queue.append(fwd)
            bwd = (c - w[g]) % n
            if bwd not in seen:
                seen.add(bwd)
                tree.add((bwd, g))
                queue.append(bwd)
    pairs = [(c, g) for g in p.generators for c in range(n) if (c, g) not in tree]
    return {pair: j for j, pair in enumerate(pairs)}


def _walk(r: Word, w: dict[str, int]) -> Iterator[tuple[int, str, int]]:
    """Each letter of ``r`` as ``(offset, generator, sign)``: its abelianized
    Fox term ``sign * t^offset`` (weights ``w``), and from start coset c the
    pair ``((c + offset) mod N, generator)`` to the power ``sign``."""
    offset = 0
    for g, e in r.syllables:
        step = w[g]
        if e > 0:
            for _ in range(e):
                yield offset, g, 1
                offset += step
        else:
            for _ in range(-e):
                offset -= step
                yield offset, g, -1


def cyclic_cover_presentation(p: Presentation, n: int, weights: Sequence[int]) -> Presentation:
    """Presentation of the kernel of ``G -> Z/N`` (weights mod N) by
    Reidemeister-Schreier rewriting: ``N * #gens - (N - 1)`` generators
    and ``N * #relators`` relators, each relator from each start coset.
    """
    w = _weight_map(p, n, weights)[0]
    names = {pair: f"{pair[1]}_{pair[0]}" for pair in _transversal(p, n, w)}
    walks = [list(_walk(r, w)) for r in p.relators]
    relators = tuple(
        normalize((names[pair], s) for o, g, s in walk if (pair := ((c + o) % n, g)) in names)
        for walk in walks
        for c in range(n)
    )
    return Presentation(tuple(names.values()), relators)


def cover_homology(p: Presentation, n: int, weights: Sequence[int]) -> AbelianGroupInvariants:
    """First homology of the N-fold cyclic cover group.  A walk of each
    relator sums its letters by generator and offset: a Fox row over
    Z[t, 1/t].  For weights onto Z, one ±1, this is Z + coker P'(C_N), P'
    the rows without its column (Fox's fundamental formula), so Z + coker
    (T^N - I) if :func:`_unit_pivots` leaves a :func:`_companion` T.  Else
    the rows are those of :func:`cyclic_cover_presentation`."""
    w, exact = _weight_map(p, n, weights)
    walks = []
    for r in p.relators:
        sums: dict[str, dict[int, int]] = {}
        for o, g, s in _walk(r, w):
            f = sums.setdefault(g, {})
            f[o] = f.get(o, 0) + s
        walks.append(sums)
    unit = next((g for g in p.generators if w[g] in (1, -1)), None)
    if unit and not any(exact):
        lam = [{g: {o: x for o, x in f.items() if x} for g, f in sums.items() if g != unit}
               for sums in walks]
        t = _companion(*_unit_pivots(lam, [g for g in p.generators if g != unit]), n)
        if t is not None:
            coker = cokernel_invariants(_power_minus_identity(t, n), len(t))
            return AbelianGroupInvariants(coker.free_rank + 1, coker.torsion)
    rows: list[dict[int, int]] = []
    column = _transversal(p, n, w)
    for sums in walks:
        terms = [(o, g, x) for g, f in sums.items() for o, x in _fold(f.items(), n).items() if x]
        rows += [{column[pair]: x for o, g, x in terms if (pair := ((c + o) % n, g)) in column}
                 for c in range(n)]
    return cokernel_invariants(rows, len(column))


def _unit_pivots(rows: list[dict[str, dict[int, int]]], cols: list[str]) -> tuple[list, list[str]]:
    """Eliminate the ±t^k pivots of a matrix over Z[t, 1/t] (sparse rows of
    ``{exponent: coefficient}`` entries, consumed), which commutes with
    t -> C_N; return the nonzero rows and the columns left.  A column ->
    rows index finds the rows to clear; only changed rows are scanned again."""
    index: dict[str, set[int]] = {g: set() for g in cols}
    todo = list(range(len(rows)))
    for i, g in [(i, g) for i in todo for g in rows[i]]:
        index[g].add(i)
    while todo:
        i0 = todo.pop()
        g0 = min((g for g, f in rows[i0].items() if len(f) == 1 and abs(*f.values()) == 1),
                 key=lambda g: len(index[g]), default=None)
        if g0 is None:
            continue
        pivot_row, rows[i0] = rows[i0], {}
        ((k, s),) = pivot_row.pop(g0).items()
        for g in pivot_row:
            index[g].discard(i0)
        for i in index.pop(g0) - {i0}:
            row = rows[i]
            q = row.pop(g0)
            for g, f in pivot_row.items():  # row -= s t^-k q * pivot row
                h = dict(row.get(g, {}))
                for a, x in q.items():
                    for b, y in f.items():
                        h[a + b - k] = h.get(a + b - k, 0) - s * x * y
                row[g] = {e: x for e, x in h.items() if x}  # if {}, never a pivot
                index[g].add(i)
            todo.append(i)
    return [row for row in rows if any(row.values())], list(index)


def module_cover_homology(spec: KnotModuleSpec, n: int) -> AbelianGroupInvariants:
    """Predicted homology ``Z + A / (t^N - 1) A`` from module data alone
    (the Z is the image of the weight map), as one block-diagonal cokernel.

    Where t acts on Z^d by a known T (``taction``; I + M for ``tminus1``;
    a summand's :func:`_companion`), the block is ``T^N - I``, d x d.
    Elsewhere the N x N cyclic shift replaces t in the presentation matrix
    B (Kronecker substitution): sparse row (i, a) has ``c`` at column
    ``j N + (a + e) mod N`` for each term ``c t^e`` of ``B[i][j]`` (terms
    equal mod N added).
    """
    if n < 1:
        raise ValueError("cover order must be >= 1")
    if spec.kind in ("cyclic", "sum"):
        blocks = [t if (t := _companion([{0: dict(a.terms())}], [0], n)) is not None
                  else matrix([[a]]) for a in spec.polys]
    elif spec.kind in ("taction", "tminus1"):
        blocks = [[[x + (i == j and spec.kind == "tminus1") for j, x in enumerate(r)]
                   for i, r in enumerate(spec.matrix.entries)]]
    else:
        blocks = [spec.presentation_matrix()]
    rows: list[dict[int, int]] = []
    cols = 0
    for block in blocks:
        if isinstance(block, list):
            rows += _power_minus_identity(block, n, cols)
            cols += len(block)
            continue
        for entries in block.entries:
            terms = []
            for j, entry in enumerate(entries):
                terms += [(cols + j * n, e, c) for e, c in _fold(entry.terms(), n).items() if c]
            rows += [{j + (a + e) % n: c for j, e, c in terms} for a in range(n)]
        cols += block.rows * n
    coker = cokernel_invariants(rows, cols)
    return AbelianGroupInvariants(coker.free_rank + 1, coker.torsion)


def _companion(rows: list[dict], cols: list, n: int) -> Optional[list[list[int]]]:
    """The block companion T of a square matrix B over Z[t, 1/t] given as
    nonzero sparse rows (t on coker B = Z^(md), basis t^k e_j), or None.
    Rows shifted to start at t^0, B = B_0 + ... + B_d t^d.  If d < N and
    B_d, or else B_0 (t -> 1/t reverses each row, and B mod t^N - 1), is
    unimodular, Euclid makes it D = diag(±1); t^d e_j = -D_jj (row j of B_0 ... B_(d-1))."""
    m = len(cols)
    lows = [min((e for f in row.values() for e in f), default=0) for row in rows]
    d = max((e - low for row, low in zip(rows, lows) for f in row.values() for e in f), default=0)
    if d >= n or len(rows) != m:
        return None
    coeffs = [[row.get(cols[k % m], {}).get(low + k // m, 0) for k in range(m * d + m)]
              for row, low in zip(rows, lows)]
    for ends in (coeffs, [r[::-1] for r in coeffs]):
        for r, c in enumerate(range(m * d, m * d + m)):
            for i in range(r + 1, m):
                while ends[i][c]:
                    q = ends[r][c] // ends[i][c]
                    ends[r], ends[i] = ends[i], [x - q * y for x, y in zip(ends[r], ends[i])]
            if (p := ends[r][c]) not in (1, -1):
                break
            for i in set(range(m)) - {r}:  # the end becomes diagonal, p^-1 = p
                ends[i] = [x - ends[i][c] * p * y for x, y in zip(ends[i], ends[r])]
        else:
            return [[int(j == i + m) for j in range(m * d)] for i in range(m * d - m)] + [
                [-row[m * d + r] * x for x in row[: m * d]] for r, row in enumerate(ends) if d]
    return None


def _fold(terms, n: int) -> dict[int, int]:
    """``{exponent mod N: coefficient}`` of terms, those equal mod N added."""
    out: dict[int, int] = {}
    for e, c in terms:
        out[e % n] = out.get(e % n, 0) + c
    return out


def _power_minus_identity(a: list[list[int]], n: int, shift: int = 0) -> list[dict[int, int]]:
    """Sparse rows of a^n - I, columns shifted by ``shift``; a^n by binary powering."""
    out = [[int(i == j) for j in range(len(a))] for i in range(len(a))]
    for bit in bin(n)[2:]:
        for b in [out, a][: 1 + int(bit)]:  # square; times a on a 1 bit
            out = [[sum(map(mul, row, col)) for col in zip(*b)] for row in out]
    return [{shift + j: x - (i == j) for j, x in enumerate(r) if x != (i == j)}
            for i, r in enumerate(out)]


@dataclass(frozen=True)
class CoverReport:
    """Both homology computations for one cover order."""

    order: int
    group_invariants: AbelianGroupInvariants
    module_invariants: AbelianGroupInvariants

    @property
    def agrees(self) -> bool:
        return self.group_invariants == self.module_invariants

    def __str__(self) -> str:
        verdict = "ok" if self.agrees else "MISMATCH"
        return (
            f"N={self.order}: group {self.group_invariants} | "
            f"module {self.module_invariants} [{verdict}]"
        )
