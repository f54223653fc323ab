"""Realization of knot modules by group presentations.

Five constructions, each taking exact module data and producing a
deficiency-1 presentation (plus a Wirtinger rewriting where one exists):

* ``realize_trotter``  -- square integer matrix M with det(M) != 0 and
  det(M - I) != 0, presenting the module with matrix t M + (I - M);
* ``realize_cyclic``   -- a single polynomial a(t) with augmentation 1,
  presenting the cyclic module Z[t, 1/t] / (a);
* ``realize_sum``      -- a direct sum of cyclic modules;
* ``realize_lemma4``   -- M in GL(r, Z) describing the (t - 1)-action,
  realized as an ascending HNN extension of a free group;
* ``realize_lemma3_group`` -- T in GL(r, Z) describing the t-action,
  realized as a free-by-cyclic group (no Wirtinger form claimed).

Every Wirtinger form is a star LOT at the meridian ``t``, built by
``_wirtinger``; every HNN relator of the Trotter, lemma-4 and lemma-3
primaries comes from ``_hnn``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .intlinalg import Matrix, bareiss_det, matrix, parse_matrix
from .laurent import (
    LaurentPoly,
    ONE,
    ZERO,
    augmentation,
    from_coeffs,
    laurent,
    parse_poly_line,
)
from .presentations import Presentation
from .words import Word, gen, input_lines, inverse, normalize, power, product, substitute


class AdmissibilityError(ValueError):
    """Module data violating the preconditions of a construction."""


@dataclass(frozen=True)
class KnotModuleSpec:
    """Input module data; ``kind`` is the word after ``module`` in a
    module-spec line.  :func:`cyclic_module` and :func:`sum_module` fill
    ``polys``, :func:`matrix_module` fills ``matrix``."""

    kind: str
    polys: tuple[LaurentPoly, ...] = ()
    matrix: Optional[Matrix] = None

    def lambda_rows(self) -> list[dict[int, dict[int, int]]]:
        """The module's square presentation over Z[t, 1/t] as sparse rows
        ``{column: {exponent: coefficient}}``: diag(alpha_i), or the pencil."""
        if self.kind in ("cyclic", "sum"):
            return [{i: dict(a.terms())} for i, a in enumerate(self.polys)]
        if self.kind not in _PENCILS:
            raise ValueError(f"unknown module kind {self.kind!r}")
        (a_m, a_i), (b_m, b_i), _, _ = _PENCILS[self.kind]
        cells = [[{0: b_m * x + b_i * (i == j), 1: a_m * x + a_i * (i == j)} for j, x in enumerate(r)]
                 for i, r in enumerate(self.matrix.entries)]
        return [{j: {e: c for e, c in f.items() if c} for j, f in enumerate(r) if any(f.values())}
                for r in cells]

    def presentation_matrix(self) -> Matrix:
        """:meth:`lambda_rows` as a grid of Laurent polynomials."""
        rows = self.lambda_rows()
        return matrix([[laurent(row[j]) if j in row else ZERO for j in range(len(rows))] for row in rows])


# Matrix kinds as a pencil t A + B, with A and B given as the
# coefficients (of M, of I); then the names of M and M + c I, whose
# determinants admit the matrix, and the shift c.
_PENCILS = {
    "trotter": ((1, 0), (-1, 1), ("M", "M - I"), -1),  # t M + (I - M)
    "tminus1": ((0, 1), (-1, -1), ("M", "I + M"), 1),  # t I - (I + M): t acts by I + M
    "taction": ((0, 1), (-1, 0), ("T", "T - I"), -1),  # t I - T
}


def cyclic_module(alpha: LaurentPoly) -> KnotModuleSpec:
    alpha = LaurentPoly(0, alpha.coeffs)  # times the unit t^-low
    if augmentation(alpha) != 1:
        raise AdmissibilityError(
            f"augmentation is {augmentation(alpha)}, must be 1"
        )
    return KnotModuleSpec("cyclic", polys=(alpha,))


def sum_module(polys: Sequence[LaurentPoly]) -> KnotModuleSpec:
    if not polys:
        raise AdmissibilityError("direct sum needs at least one summand")
    shifted = tuple(LaurentPoly(0, p.coeffs) for p in polys)
    for p in shifted:
        if augmentation(p) != 1:
            raise AdmissibilityError(f"summand {p} has augmentation != 1")
    return KnotModuleSpec("sum", polys=shifted)


def matrix_module(kind: str, m: Matrix) -> KnotModuleSpec:
    """Spec of ``kind``, a key of ``_PENCILS``, when ``m`` is square and
    det(m) and det(m + c I) are nonzero for trotter and +-1 for the others."""
    if kind not in _PENCILS:
        raise ValueError(f"unknown module kind {kind!r}")
    if m.rows != m.cols or m.rows == 0:
        raise AdmissibilityError(f"matrix must be square and nonempty, got {m.rows}x{m.cols}")
    _, _, labels, c = _PENCILS[kind]
    for label, shift in zip(labels, (0, c)):
        d = bareiss_det([[x + shift * (i == j) for j, x in enumerate(r)]
                         for i, r in enumerate(m.entries)], 0, 1)
        if kind == "trotter" and d == 0:
            raise AdmissibilityError(f"det({label}) = 0")
        if kind != "trotter" and abs(d) != 1:
            raise AdmissibilityError(f"|det({label})| = {abs(d)}, must be 1")
    return KnotModuleSpec(kind, matrix=m)


@dataclass(frozen=True)
class RealizationResult:
    primary_presentation: Presentation
    wirtinger_presentation: Optional[Presentation]
    module_spec: KnotModuleSpec

    def verification_presentation(self) -> Presentation:
        return self.wirtinger_presentation or self.primary_presentation


def realize_cyclic(alpha: LaurentPoly) -> RealizationResult:
    """Realize the cyclic module with polynomial ``alpha``.

    Builds ``< t, x | x = w t w^-1 t^-1 >`` with
    ``w = prod_i t^i x^(b_i) t^-i`` for ``b = (alpha - 1)/(t - 1)``, and
    the one-relator Wirtinger rewriting ``< t, u | u = W t W^-1 >``
    obtained from ``u = x t``.
    """
    return _realize_summands(cyclic_module(alpha))


def realize_sum(polys: Sequence[LaurentPoly]) -> RealizationResult:
    """Realize a direct sum of cyclic modules with a shared meridian.

    One generator ``u<k>`` and one Wirtinger relator per summand; the
    primary presentation uses commutator generators ``x<k>``.
    """
    return _realize_summands(sum_module(polys))


def _realize_summands(spec: KnotModuleSpec) -> RealizationResult:
    """One cyclic summand per polynomial of ``spec``: the relator of
    :func:`realize_cyclic` and its Wirtinger rewriting, on generators
    ``x`` and ``u`` for a ``cyclic`` spec and ``x<k>`` and ``u<k>`` for
    the k-th summand of a ``sum``."""
    tags = [""] if spec.kind == "cyclic" else range(1, len(spec.polys) + 1)
    xs, us = [f"x{k}" for k in tags], [f"u{k}" for k in tags]
    ws = []
    for alpha, x in zip(spec.polys, xs):
        beta = (alpha - ONE) // from_coeffs([-1, 1])
        ws.append(normalize(
            syl for i, b in beta.terms() for syl in (("t", i), (x, b), ("t", -i))
        ))
    primary_rels = tuple(
        product(gen(x, -1), w, gen("t"), inverse(w), gen("t", -1)) for x, w in zip(xs, ws)
    )
    primary = Presentation(("t", *xs), primary_rels)
    return RealizationResult(primary, _wirtinger(xs, us, ws), spec)


def _wirtinger(xs: Sequence[str], ss: Sequence[str], words: Sequence[Word]) -> Presentation:
    """``< t, ss | s_i = W_i t W_i^-1 >``, where ``W_i`` is ``words[i]``
    with each ``x_k`` replaced by ``s_k t^-1``.

    Every relator conjugates ``t`` to a generator ``s_i``, so the LOT is
    the star with centre ``t`` and one edge to each ``s_i``.
    """
    to_s = {x: product(gen(s), gen("t", -1)) for x, s in zip(xs, ss)}
    rels = []
    for s, w in zip(ss, words):
        w = substitute(w, to_s)
        rels.append(product(gen(s, -1), w, gen("t"), inverse(w)))
    return Presentation(("t", *ss), tuple(rels))


def _hnn(xs: Sequence[str], images: Sequence[Word]) -> tuple[Word, ...]:
    """The HNN relators ``t x_i t^-1 images[i]^-1``, in the order of ``xs``."""
    return tuple(product(gen("t"), gen(x), gen("t", -1), inverse(img))
                 for x, img in zip(xs, images))


def realize_trotter(m: Matrix) -> RealizationResult:
    """Realize the module with matrix t M + (I - M).

    Primary presentation (an HNN extension of a free group):
    ``< t, x_1..x_r, y_1..y_r | y_i = prod_j x_j^(m_ij),
    t y_i t^-1 = x_i^-1 y_i >``.  The Wirtinger rewriting sets
    ``s_i = y_i t y_i^-1``, so ``x_i = s_i t^-1`` and each relator says
    ``s_i = Y_i t Y_i^-1`` with ``Y_i = prod_j (s_j t^-1)^(m_ij)``.
    """
    spec = matrix_module("trotter", m)
    r = m.rows
    xs = [f"x{i}" for i in range(1, r + 1)]
    ys = [f"y{i}" for i in range(1, r + 1)]
    ss = [f"s{i}" for i in range(1, r + 1)]
    prod_x = [normalize((xs[j], m[i, j]) for j in range(r)) for i in range(r)]
    primary_rels = [product(gen(y, -1), w) for y, w in zip(ys, prod_x)]
    primary_rels += _hnn(ys, [product(gen(x, -1), gen(y)) for x, y in zip(xs, ys)])
    primary = Presentation(("t", *xs, *ys), tuple(primary_rels))
    return RealizationResult(primary, _wirtinger(xs, ss, prod_x), spec)


def lift_glnz(m: Matrix) -> tuple[tuple[Word, ...], tuple[Word, ...]]:
    """Lift M in GL(r, Z) to an automorphism mu of the free group on
    ``x1..xr`` whose exponent-sum matrix is M; return the images of
    ``x1..xr`` under mu and under its inverse nu.

    Gauss-Jordan with a Euclidean gcd cascade down each column, pivots
    in order, reduces M to I by row operations a_1..a_k.  Each is a
    triple ``(i, j, c)``: row i += c * row j, or for ``c = 0`` a swap of
    rows i and j, which is a negation of row i when ``i = j``.  Each is
    also a Nielsen move on a tuple of words: ``w_i <- w_i w_j^c``, swap
    or invert.  Nielsen moves generate Aut(F_r) and abelianize to the
    elementary matrices (Lyndon-Schupp, I.4): nu applies a_1..a_k in
    order to ``x1..xr``, and mu applies their inverses in reverse order.
    ``|det M|`` is the product of the column pivots, so a column with
    no nonzero entry left, or a pivot other than +-1, means M is not
    unimodular.
    """
    n = m.rows
    if m.cols != n:
        raise ValueError("only square matrices lie in GL(n, Z)")
    grid = [list(row) for row in m.entries]
    moves: list[tuple[int, int, int]] = []

    def do(i: int, j: int, c: int) -> None:
        if c:
            grid[i] = [a + c * b for a, b in zip(grid[i], grid[j])]
        elif i == j:
            grid[i] = [-a for a in grid[i]]
        else:
            grid[i], grid[j] = grid[j], grid[i]
        moves.append((i, j, c))

    for k in range(n):
        # Euclidean cascade: leave a single nonzero entry in column k at
        # or below the diagonal.
        live = [i for i in range(k, n) if grid[i][k] != 0]
        while len(live) > 1:
            live.sort(key=lambda i: (abs(grid[i][k]), i))
            small, other = live[0], live[1]
            # |other| >= |small|, so the floor quotient is never 0.
            do(other, small, -(grid[other][k] // grid[small][k]))
            live = [i for i in range(k, n) if grid[i][k] != 0]
        if not live or abs(grid[live[0]][k]) != 1:
            raise ValueError("matrix is not unimodular")
        if live[0] != k:
            do(k, live[0], 0)
        if grid[k][k] < 0:
            do(k, k, 0)
        for i in range(n):
            if i != k and grid[i][k] != 0:
                do(i, k, -grid[i][k])
    images = []
    for seq in ([(i, j, -c) for i, j, c in reversed(moves)], moves):
        w = [gen(f"x{i}") for i in range(1, n + 1)]
        for i, j, c in seq:
            if c:
                w[i] = product(w[i], power(w[j], c))
            elif i == j:
                w[i] = inverse(w[i])
            else:
                w[i], w[j] = w[j], w[i]
        images.append(tuple(w))
    return images[0], images[1]


def realize_lemma4(m: Matrix) -> RealizationResult:
    """Realize a module, given the matrix of the (t - 1)-action, as an
    ascending HNN extension ``< t, x_1..x_r | t x_i t^-1 = x_i mu(x_i) >``
    where mu lifts M.

    Wirtinger rewriting: ``s_i = x_i^-1 t x_i`` turns the relation into
    ``mu(x_i) = s_i t^-1``; applying the inverse automorphism expresses
    each ``x_j`` in the ``s_k t^-1`` and yields
    ``< t, s_1..s_r | s_i = X_i^-1 t X_i >``.
    """
    spec = matrix_module("tminus1", m)
    r = m.rows
    mu, nu = lift_glnz(m)
    xs = [f"x{i}" for i in range(1, r + 1)]
    ss = [f"s{i}" for i in range(1, r + 1)]
    primary = Presentation(("t", *xs), _hnn(xs, [product(gen(x), w) for x, w in zip(xs, mu)]))
    wirtinger = _wirtinger(xs, ss, [inverse(w) for w in nu])
    return RealizationResult(primary, wirtinger, spec)


def realize_lemma3_group(t_matrix: Matrix) -> RealizationResult:
    """The free-by-cyclic group ``F(r) x|_tau Z`` for a t-action T.

    Presentation ``< t, x_1..x_r | t x_i t^-1 = tau(x_i) >`` with tau a
    lift of T.  No Wirtinger form is claimed for this construction.
    """
    spec = matrix_module("taction", t_matrix)
    r = t_matrix.rows
    tau, _ = lift_glnz(t_matrix)
    xs = [f"x{i}" for i in range(1, r + 1)]
    return RealizationResult(Presentation(("t", *xs), _hnn(xs, tau)), None, spec)


def parse_module_spec(text: str, read_file) -> KnotModuleSpec:
    """Parse a module-spec file.

    Lines: ``module cyclic <poly-line>``, ``module sum <poly>;<poly>``,
    or ``module {trotter|tminus1|taction} <matrix-file>`` where the
    matrix file is resolved by the ``read_file`` callback.
    """
    lines = input_lines(text)
    if len(lines) != 1:
        raise ValueError("module-spec file must contain exactly one module line")
    tokens = lines[0].split(None, 2)
    if len(tokens) != 3 or tokens[0] != "module":
        raise ValueError(f"bad module line {lines[0]!r}")
    kind, payload = tokens[1], tokens[2]
    if kind == "cyclic":
        return cyclic_module(parse_poly_line(payload))
    if kind == "sum":
        return sum_module([parse_poly_line(part.strip()) for part in payload.split(";")])
    if kind in _PENCILS:
        return matrix_module(kind, parse_matrix(read_file(payload.strip())))
    raise ValueError(f"unknown module kind {kind!r}")


def realize(spec: KnotModuleSpec) -> RealizationResult:
    """Dispatch a module spec to its construction."""
    if spec.kind == "cyclic":
        return realize_cyclic(spec.polys[0])
    if spec.kind == "sum":
        return realize_sum(spec.polys)
    if spec.kind == "trotter":
        return realize_trotter(spec.matrix)
    if spec.kind == "tminus1":
        return realize_lemma4(spec.matrix)
    if spec.kind == "taction":
        return realize_lemma3_group(spec.matrix)
    raise ValueError(f"unknown module kind {spec.kind!r}")
