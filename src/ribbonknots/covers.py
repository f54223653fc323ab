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
from typing import Optional, Sequence

from .constructions import KnotModuleSpec
from .intlinalg import (
    AbelianGroupInvariants,
    cokernel_invariants,
    matrix,
)
from .presentations import Presentation, abelianization, weight_vector
from .words import Word, normalize


def cyclic_cover_presentation(
    p: Presentation, n: int, weights: Optional[Sequence[int]] = None
) -> Presentation:
    """Presentation of the kernel of ``G -> Z/N`` (weights mod N).

    Schreier transversal: breadth-first spanning tree of the coset graph
    from coset 0, exploring generators in presentation order (positive
    direction first).  The Schreier generator for (coset c, generator g)
    is named ``<g>_<c>``; tree edges are omitted.  The result has
    ``N * #gens - (N - 1)`` generators and ``N * #relators`` relators.
    """
    if n < 1:
        raise ValueError("cover order must be >= 1")
    if weights is None:
        weights = weight_vector(p)
    if len(weights) != len(p.generators):
        raise ValueError("one weight per generator required")
    w = {g: weights[i] % n for i, g in enumerate(p.generators)}

    # BFS spanning tree: tree[(c, g)] marks the Schreier pair as trivial.
    tree: set[tuple[int, str]] = set()
    seen = {0}
    queue = [0]
    while queue:
        c = queue.pop(0)
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

    names = {
        (c, g): f"{g}_{c}"
        for g in p.generators
        for c in range(n)
        if (c, g) not in tree
    }
    generators = tuple(names[(c, g)] for g in p.generators for c in range(n) if (c, g) in names)

    def rewrite(r: Word, start: int) -> Word:
        out: list[tuple[str, int]] = []
        c = start
        for g, s in r.letters():
            if s > 0:
                if (c, g) in names:
                    out.append((names[(c, g)], 1))
                c = (c + w[g]) % n
            else:
                c = (c - w[g]) % n
                if (c, g) in names:
                    out.append((names[(c, g)], -1))
        return normalize(out)

    relators = tuple(rewrite(r, c) for r in p.relators for c in range(n))
    return Presentation(generators, relators)


def cover_homology(
    p: Presentation, n: int, weights: Optional[Sequence[int]] = None
) -> AbelianGroupInvariants:
    """First homology of the N-fold cyclic cover group, from the
    Reidemeister-Schreier presentation."""
    return abelianization(cyclic_cover_presentation(p, n, weights))


def module_cover_homology(spec: KnotModuleSpec, n: int) -> AbelianGroupInvariants:
    """Predicted homology ``Z + A / (t^N - 1) A`` from module data alone.

    Substitutes the N x N cyclic shift matrix for t in the module's
    presentation matrix (Kronecker substitution) and takes the integer
    cokernel; the extra Z is the image of the weight map.
    """
    if n < 1:
        raise ValueError("cover order must be >= 1")
    b = spec.presentation_matrix()
    r = b.rows
    grid = [[0] * (r * n) for _ in range(r * n)]
    for i in range(r):
        for j in range(r):
            for e, c in b.entries[i][j].terms():
                for a in range(n):
                    grid[i * n + a][j * n + (a + e) % n] += c
    coker = cokernel_invariants(matrix(grid, cols=r * n))
    return AbelianGroupInvariants(coker.free_rank + 1, coker.torsion)


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
