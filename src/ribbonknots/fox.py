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
from .laurent import ZERO, LaurentPoly, det_lambda, from_coeffs, laurent, normalize_unit
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
        entries: dict[int, dict[int, int]] = {}
        k = 0
        for g, e in r.syllables:
            j = column[g]
            w = weights[j]
            entry = entries.setdefault(j, {})
            sign = 1 if e > 0 else -1
            for i in range(min(e, 0), max(e, 0)):
                entry[k + i * w] = entry.get(k + i * w, 0) + sign
            k += e * w
        row = [ZERO] * len(p.generators)
        for j, entry in entries.items():
            row[j] = laurent(entry)
        rows.append(row)
    return matrix(rows, cols=len(p.generators))


def alexander_polynomial(
    p: Presentation, weights: Optional[Sequence[int]] = None
) -> LaurentPoly:
    """Alexander polynomial of a deficiency-1 presentation with infinite
    cyclic abelianization, normalized up to units.

    Deletes the column j of least nonzero |weight|, the first on ties,
    and divides the determinant of the remaining square matrix by
    1 + t + ... + t^(|w_j| - 1): by Fox's fundamental formula each minor
    is, up to units, the polynomial times (t^|w_j| - 1)/(t - 1).  ``weights`` is as in
    :func:`alexander_matrix`; by default it is ``weight_vector(p)``,
    which requires abelianization = Z.
    """
    if deficiency(p) != 1:
        raise ValueError(f"deficiency is {deficiency(p)}, not 1")
    if weights is None:
        weights = weight_vector(p)
    if not any(weights):
        raise ValueError("every generator has weight 0")
    size, drop = min((abs(w), j) for j, w in enumerate(weights) if w)
    m = alexander_matrix(p, weights)
    minor = [[entry for j, entry in enumerate(row) if j != drop] for row in m.entries]
    return normalize_unit(det_lambda(matrix(minor, cols=m.cols - 1)) // from_coeffs([1] * size))
