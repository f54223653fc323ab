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
from typing import Iterator, Sequence, Union

from .constructions import KnotModuleSpec
from .intlinalg import AbelianGroupInvariants, Matrix, cokernel_invariants, matrix
from .laurent import LaurentPoly
from .presentations import Presentation
from .words import Word, normalize


def _schreier(
    p: Presentation, n: int, weights: Sequence[int]
) -> tuple[dict[str, int], dict[tuple[int, str], int]]:
    """Weights mod N and the column of each Schreier generator.

    ``weights`` lists the generators' images in Z/N, in order; they must
    generate Z/N and kill every relator, so that they define a map onto it.

    The transversal is the breadth-first spanning tree of the coset graph
    from coset 0, generators in presentation order, positive direction
    first.  Each pair (coset c, generator g) off the tree is a Schreier
    generator ``<g>_<c>``; columns run generator by generator, cosets
    ascending.
    """
    if n < 1:
        raise ValueError("cover order must be >= 1")
    if len(weights) != len(p.generators):
        raise ValueError("one weight per generator required")
    w = {g: weights[i] % n for i, g in enumerate(p.generators)}
    if gcd(n, *weights) != 1 or any(sum(w[g] * e for g, e in r.syllables) % n for r in p.relators):
        raise ValueError(f"weights do not map the group onto Z/{n}")
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
    return w, {pair: j for j, pair in enumerate(pairs)}


def _walk(r: Word, w: dict[str, int], n: int) -> Iterator[tuple[int, str, int]]:
    """Each letter of ``r`` as ``(offset, generator, sign)``: read from
    start coset c, it is the pair ``((c + offset) mod N, generator)``
    to the power ``sign``."""
    offset = 0
    for g, e in r.syllables:
        step = w[g]
        if e > 0:
            for _ in range(e):
                yield offset, g, 1
                offset = (offset + step) % n
        else:
            for _ in range(-e):
                offset = (offset - step) % n
                yield offset, g, -1


def cyclic_cover_presentation(p: Presentation, n: int, weights: Sequence[int]) -> Presentation:
    """Presentation of the kernel of ``G -> Z/N`` (weights mod N) by
    Reidemeister-Schreier rewriting: ``N * #gens - (N - 1)`` generators
    and ``N * #relators`` relators, each relator from each start coset.
    """
    w, column = _schreier(p, n, weights)
    names = {pair: f"{pair[1]}_{pair[0]}" for pair in column}
    walks = [list(_walk(r, w, n)) for r in p.relators]
    relators = tuple(
        normalize((names[pair], s) for o, g, s in walk if (pair := ((c + o) % n, g)) in names)
        for walk in walks
        for c in range(n)
    )
    return Presentation(tuple(names.values()), relators)


def cover_homology(p: Presentation, n: int, weights: Sequence[int]) -> AbelianGroupInvariants:
    """First homology of the N-fold cyclic cover group: the exponent rows
    of :func:`cyclic_cover_presentation`, built without its words.  One
    walk of a relator sums its letters by (offset, generator); the row
    for start coset c puts each sum at the pair shifted by c."""
    w, column = _schreier(p, n, weights)
    rows: list[dict[int, int]] = []
    for r in p.relators:
        sums: dict[tuple[int, str], int] = {}
        for o, g, s in _walk(r, w, n):
            sums[o, g] = sums.get((o, g), 0) + s
        terms = [(o, g, x) for (o, g), x in sums.items() if x]
        rows += [
            {column[pair]: x for o, g, x in terms if (pair := ((c + o) % n, g)) in column}
            for c in range(n)
        ]
    return cokernel_invariants(rows, len(column))


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
        blocks = [_companion(alpha, n) for alpha in spec.polys]
    elif spec.kind in ("taction", "tminus1"):
        blocks = [[[x + (i == j and spec.kind == "tminus1") for j, x in enumerate(r)]
                   for i, r in enumerate(spec.matrix.entries)]]
    else:
        blocks = [spec.presentation_matrix()]
    rows: list[dict[int, int]] = []
    cols = 0
    for block in blocks:
        if isinstance(block, list):
            rows += [{cols + j: x - (i == j) for j, x in enumerate(r) if x != (i == j)}
                     for i, r in enumerate(_power(block, n))]
            cols += len(block)
            continue
        for entries in block.entries:
            terms = []
            for j, entry in enumerate(entries):
                folded: dict[int, int] = {}
                for e, c in entry.terms():
                    folded[e % n] = folded.get(e % n, 0) + c
                terms += [(cols + j * n, e, c) for e, c in folded.items() if c]
            rows += [{j + (a + e) % n: c for j, e, c in terms} for a in range(n)]
        cols += block.rows * n
    coker = cokernel_invariants(rows, cols)
    return AbelianGroupInvariants(coker.free_rank + 1, coker.torsion)


def _companion(alpha: LaurentPoly, n: int) -> Union[list[list[int]], Matrix]:
    """How t acts on Z[t] / (alpha), basis 1, t, ..., t^(d-1), if deg alpha
    = d < N and alpha, or alpha reversed (t -> 1/t is a ring automorphism
    mod t^N - 1), has top coefficient ±1; else the 1 x 1 matrix (alpha)."""
    c = alpha.coeffs
    if c and abs(c[-1]) != 1:
        c = c[::-1]
    if not c or abs(c[-1]) != 1 or len(c) > n:
        return matrix([[alpha]])
    d = len(c) - 1
    return [[int(j == i + 1) for j in range(d)] if i < d - 1 else [-c[-1] * x for x in c[:-1]]
            for i in range(d)]


def _power(a: list[list[int]], n: int) -> list[list[int]]:
    """``a^n`` for a square integer matrix, by left-to-right binary powering."""
    out = [[int(i == j) for j in range(len(a))] for i in range(len(a))]
    for bit in bin(n)[2:]:
        for b in [out, a][: 1 + int(bit)]:  # square; times a on a 1 bit
            out = [[sum(map(mul, row, col)) for col in zip(*b)] for row in out]
    return out


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
