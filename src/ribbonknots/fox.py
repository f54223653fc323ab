"""Fox free differential calculus and Alexander invariants.

Fox derivatives live in the integral group ring of the free group;
pushing them forward along the weight map ``g -> t^weight(g)`` gives the
Alexander matrix of a presentation with infinite cyclic abelianization.
``alexander_matrix`` computes that image directly, in one pass per
relator; the group-ring layer in ``tests/reference.py`` is the reference
the tests compare with.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .intlinalg import Matrix, matrix
from .laurent import LaurentPoly, ONE, det_lambda, laurent, normalize_unit
from .presentations import Presentation, deficiency, weight_vector


def alexander_matrix(p: Presentation, weights: Sequence[int]) -> Matrix:
    """Fox Jacobian of the relators, abelianized by the weight map.

    Entry (i, j) is the image of d(R_i)/d(g_j) under g -> t^weight(g);
    dimensions are #relators x #generators.  ``weights`` lists the
    generators' weights in order.

    One pass per relator that never leaves Z[t, t^-1], so the cost is
    linear in relator length plus output size.  At prefix weight k a
    syllable g^e, w = weight(g), adds t^k + t^(k+w) + ... + t^(k+(e-1)w)
    to column g when e > 0 and -(t^(k-w) + ... + t^(k+ew)) when e < 0;
    then k += e*w.
    """
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
    return matrix(rows, cols=len(p.generators))


def alexander_polynomial(
    p: Presentation, weights: Optional[Sequence[int]] = None
) -> LaurentPoly:
    """Alexander polynomial of a deficiency-1 presentation with infinite
    cyclic abelianization, normalized up to units.

    Deletes the column of the first generator of weight +-1 and takes
    the determinant of the remaining square matrix.  ``weights`` is as
    in :func:`alexander_matrix`; by default it is ``weight_vector(p)``,
    which requires abelianization = Z.
    """
    if deficiency(p) != 1:
        raise ValueError(f"deficiency is {deficiency(p)}, not 1")
    if weights is None:
        weights = weight_vector(p)
    drop = next((j for j, w in enumerate(weights) if abs(w) == 1), None)
    if drop is None:
        raise ValueError("no generator of weight +-1")
    if not p.relators:
        return ONE  # free group of rank 1: unknot module
    m = alexander_matrix(p, weights)
    reduced = [
        [entry for j, entry in enumerate(row) if j != drop] for row in m.entries
    ]
    return normalize_unit(det_lambda(matrix(reduced)))
