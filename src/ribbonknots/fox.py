"""Fox free differential calculus and Alexander invariants.

Fox derivatives live in the integral group ring of the free group;
pushing them forward along the weight map ``g -> t^weight(g)`` gives the
Alexander matrix of a presentation with infinite cyclic abelianization.
``alexander_matrix`` computes that image directly, in one pass per
relator; the group-ring layer is the reference the tests compare with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .laurent import (
    LambdaMatrix,
    LaurentPoly,
    det_lambda,
    lambda_matrix,
    laurent,
    normalize_unit,
    t_power,
)
from .presentations import Presentation, deficiency, weight_vector
from .words import IDENTITY, Word, gen, product


@dataclass(frozen=True)
class GroupRingElem:
    """Element of the free-group ring: finite Word -> coefficient map."""

    terms: tuple[tuple[Word, int], ...] = ()

    def __post_init__(self) -> None:
        if any(c == 0 for _, c in self.terms):
            raise ValueError("zero coefficient in group ring element")
        if len({w for w, _ in self.terms}) != len(self.terms):
            raise ValueError("duplicate term in group ring element")

    def as_dict(self) -> dict[Word, int]:
        return dict(self.terms)

    def __add__(self, other: "GroupRingElem") -> "GroupRingElem":
        out = self.as_dict()
        for w, c in other.terms:
            out[w] = out.get(w, 0) + c
        return ring_elem(out)

    def __neg__(self) -> "GroupRingElem":
        return GroupRingElem(tuple((w, -c) for w, c in self.terms))

    def __sub__(self, other: "GroupRingElem") -> "GroupRingElem":
        return self + (-other)

    def __mul__(self, other: "GroupRingElem") -> "GroupRingElem":
        out: dict[Word, int] = {}
        for w1, c1 in self.terms:
            for w2, c2 in other.terms:
                w = product(w1, w2)
                out[w] = out.get(w, 0) + c1 * c2
        return ring_elem(out)


def ring_elem(terms: Mapping[Word, int]) -> GroupRingElem:
    items = sorted(
        ((w, c) for w, c in terms.items() if c != 0),
        key=lambda item: (len(item[0].syllables), str(item[0])),
    )
    return GroupRingElem(tuple(items))


RING_ZERO = ring_elem({})
RING_ONE = ring_elem({IDENTITY: 1})


def word_elem(w: Word, coeff: int = 1) -> GroupRingElem:
    return ring_elem({w: coeff})


def fox_derivative(w: Word, g: str) -> GroupRingElem:
    """Fox derivative d(w)/d(g).

    Satisfies d(g)/d(g) = 1, d(h)/d(g) = 0 for h != g,
    d(g^-1)/d(g) = -g^-1, and d(uv)/d(g) = d(u)/d(g) + u . d(v)/d(g).
    """
    total = RING_ZERO
    prefix = IDENTITY
    for h, e in w.syllables:
        if h == g:
            # d(g^e)/d(g) = 1 + g + ... + g^(e-1)   for e > 0,
            #             = -(g^-1 + ... + g^e)     for e < 0.
            terms: dict[Word, int] = {}
            if e > 0:
                for k in range(e):
                    key = product(prefix, gen(g, k)) if k else prefix
                    terms[key] = terms.get(key, 0) + 1
            else:
                for k in range(1, -e + 1):
                    key = product(prefix, gen(g, -k))
                    terms[key] = terms.get(key, 0) - 1
            total = total + ring_elem(terms)
        prefix = product(prefix, gen(h, e))
    return total


def abelianize_to_lambda(e: GroupRingElem, weights: Mapping[str, int]) -> LaurentPoly:
    """Push forward along g -> t^weights[g], collecting coefficients."""
    out: dict[int, int] = {}
    for w, c in e.terms:
        k = 0
        for g, exp in w.syllables:
            if g not in weights:
                raise ValueError(f"no weight for generator {g!r}")
            k += weights[g] * exp
        out[k] = out.get(k, 0) + c
    return laurent(out)


def alexander_matrix(
    p: Presentation, weights: Optional[Sequence[int]] = None
) -> LambdaMatrix:
    """Fox Jacobian of the relators, abelianized by the weight map.

    Entry (i, j) is the image of d(R_i)/d(g_j) under g -> t^weight(g);
    dimensions are #relators x #generators.  ``weights`` lists the
    generators' weights in order; by default it is ``weight_vector(p)``,
    which requires abelianization = Z.

    One pass per relator that never leaves Z[t, t^-1], so the cost is
    linear in relator length plus output size.  At prefix weight k a
    syllable g^e, w = weight(g), adds t^k + t^(k+w) + ... + t^(k+(e-1)w)
    to column g when e > 0 and -(t^(k-w) + ... + t^(k+ew)) when e < 0;
    then k += e*w.
    """
    if weights is None:
        weights = weight_vector(p)
    column = {g: j for j, g in enumerate(p.generators)}
    rows = []
    for r in p.relators:
        entries: list[dict[int, int]] = [{} for _ in p.generators]
        k = 0
        for g, e in r.syllables:
            j = column[g]
            w = weights[j]
            entry = entries[j]
            sign = 1 if e > 0 else -1
            for i in range(min(e, 0), max(e, 0)):
                entry[k + i * w] = entry.get(k + i * w, 0) + sign
            k += e * w
        rows.append([laurent(entry) for entry in entries])
    return lambda_matrix(rows, cols=len(p.generators))


def alexander_polynomial(p: Presentation, drop: Optional[int] = None) -> LaurentPoly:
    """Alexander polynomial of a deficiency-1 presentation with infinite
    cyclic abelianization, normalized up to units.

    Deletes column ``drop`` (default: the first generator of weight +-1)
    and takes the determinant of the remaining square matrix.
    """
    if deficiency(p) != 1:
        raise ValueError(f"deficiency is {deficiency(p)}, not 1")
    weights = weight_vector(p)
    if drop is None:
        drop = next((j for j, w in enumerate(weights) if abs(w) == 1), None)
        if drop is None:
            raise ValueError("no generator of weight +-1")
    elif abs(weights[drop]) != 1:
        raise ValueError("deleted column must have weight +-1")
    if not p.relators:
        return t_power(0)  # free group of rank 1: unknot module
    m = alexander_matrix(p, weights)
    reduced = [
        [entry for j, entry in enumerate(row) if j != drop] for row in m.entries
    ]
    return normalize_unit(det_lambda(lambda_matrix(reduced)))


def fundamental_identity_holds(w: Word, generators: list[str]) -> bool:
    """Check sum_g d(w)/d(g) (g - 1) = w - 1 in the group ring."""
    total = RING_ZERO
    for g in generators:
        total = total + fox_derivative(w, g) * (word_elem(gen(g)) - RING_ONE)
    return total == word_elem(w) - RING_ONE
