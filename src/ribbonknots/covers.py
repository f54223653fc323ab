"""Finite cyclic covers: homology computed two independent ways.

For a group G with a map onto Z, the kernel of G -> Z -> Z/N is the
fundamental group of the N-fold cyclic cover of the presentation complex,
whose boundary is the Fox matrix at t -> C_N.  Its abelianization is Z
plus the module A / (t^N - 1) A, where A is the module the constructions
realize.  Comparing the two is the main correctness oracle of this
package.  `cyclic_cover_presentation` (Reidemeister-Schreier) is public
and the tests' reference; nothing here calls it.
"""

from __future__ import annotations

from math import gcd, prod
from operator import mul
from typing import Iterator, Optional, Sequence

from .constructions import KnotModuleSpec
from .intlinalg import AbelianGroupInvariants, bareiss_det, cokernel_invariants, divisor_chain
from .presentations import Presentation
from .words import Word, normalize


def _weight_map(p: Presentation, n: int, weights: Sequence[int]) -> dict[str, int]:
    """The weights by generator.  ``weights`` lists the generators' images
    in Z, in order; they must kill every relator (a map onto a subgroup of
    Z) and generate Z/N, so that the composite maps the group onto Z/N."""
    if n < 1:
        raise ValueError("cover order must be >= 1")
    if len(weights) != len(p.generators):
        raise ValueError("one weight per generator required")
    w = dict(zip(p.generators, weights))
    if gcd(n, *weights) != 1 or any(sum(w[g] * e for g, e in r.syllables) for r in p.relators):
        raise ValueError(f"weights do not map the group to Z and onto Z/{n}")
    return w


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
    w = _weight_map(p, n, weights)
    names = {pair: f"{pair[1]}_{pair[0]}" for pair in _transversal(p, n, w)}
    walks = [list(_walk(r, w)) for r in p.relators]
    relators = tuple(
        normalize((names[pair], s) for o, g, s in walk if (pair := ((c + o) % n, g)) in names)
        for walk in walks
        for c in range(n)
    )
    return Presentation(tuple(names.values()), relators)


def cover_homology(p: Presentation, n: int, weights: Sequence[int]) -> AbelianGroupInvariants:
    """First homology of the N-fold cyclic cover group from the Fox rows P over
    Z[t, 1/t] (summed by a walk of each relator), whose ±t^k pivots go first:
    Z + coker P'(C_N), P' without the column of a generator of weight ±1; else
    coker P(C_N) less the Z^(N-1) of the cover's N vertices."""
    w = _weight_map(p, n, weights)
    unit = next((g for g in p.generators if w[g] in (1, -1)), None)
    others = [g for g in p.generators if g != unit]
    lam = []
    for r in p.relators:
        sums: dict[str, dict[int, int]] = {}
        for o, g, s in _walk(r, w):
            f = sums.setdefault(g, {})
            f[o] = f.get(o, 0) + s
        lam.append({g: {o: x for o, x in f.items() if x} for g, f in sums.items() if g != unit})
    coker = cokernel_invariants(*_cover_rows(*_unit_pivots(lam, others), n))
    free = coker.free_rank + 1 if unit else coker.free_rank - (n - 1)
    return AbelianGroupInvariants(free, coker.torsion)


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
    """Predicted homology ``Z + A / (t^N - 1) A`` from the spec's rows over
    Z[t, 1/t]: a pencil whole, each summand of a cyclic or sum module alone."""
    if n < 1:
        raise ValueError("cover order must be >= 1")
    lam, rows, cols = spec.lambda_rows(), [], 0
    for block, keys in [([r], [*r]) for r in lam] if spec.polys else [(lam, [*range(len(lam))])]:
        more, width = _cover_rows(block, keys, n, cols)
        rows, cols = rows + more, cols + width
    coker = cokernel_invariants(rows, cols)
    return AbelianGroupInvariants(coker.free_rank + 1, coker.torsion)


def _cover_rows(rows: list[dict], cols: list, n: int, shift: int = 0) -> tuple[list, int]:
    """Sparse rows presenting coker B(C_N) (columns from ``shift`` on) and their number, for
    nonzero rows ``{column: {exponent: coefficient}}`` of B over Z[t, 1/t]: T^N - I, the
    invariant factors of :func:`_modulus`, or the Kronecker fold (docs/cover-homology-oracle.md)."""
    m = len(cols)
    lows = [min((e for f in row.values() for e in f), default=0) for row in rows]
    d = max((e - low for row, low in zip(rows, lows) for f in row.values() for e in f), default=0)
    if d < n and len(rows) == m:  # rows shifted to t^0 are B_0 + ... + B_d t^d
        coeffs = [[row.get(cols[k % m], {}).get(low + k // m, 0) for k in range(m * d + m)]
                  for row, low in zip(rows, lows)]
        ends = []
        for coef in (coeffs, [r[::-1] for r in coeffs]):  # B_d last, then B_0 last
            if (end := _monic(coef, m, d)) and end[0] in (1, -1):
                out = _power_minus_identity(end, n)
                return [{shift + j: x for j, x in enumerate(r) if x} for r in out], m * d
            ends.append(end)
        if (chain := _modulus(ends, coeffs, n)) is not None:
            return [{shift + k: x} for k, x in enumerate(chain)], m * d
    column = {g: shift + j * n for j, g in enumerate(cols)}
    terms = [[(column[g], e, c) for g, f in row.items() for e, c in _fold(f.items(), n).items() if c]
             for row in rows]
    return [{j + (a + e) % n: c for j, e, c in t} for t in terms for a in range(n)], m * n


def _monic(coeffs: list[list[int]], m: int, d: int) -> Optional[tuple[int, list[list[int]]]]:
    """(δ, V) for rows (B_0 ... B_d): δ = ±det B_d, V = δ B_d^-1 (B_0 ... B_(d-1))
    by fraction-free Gauss-Jordan, whose pivots all end as δ; None if δ = 0."""
    a, prev = [r[m * d:] + r[: m * d] for r in coeffs], 1
    for k in range(m):
        i = next((i for i in range(k, m) if a[i][k]), None)
        if i is None:
            return None
        a[k], a[i] = a[i], a[k]
        a = [r if i == k else [(a[k][k] * x - r[k] * y) // prev for x, y in zip(r, a[k])]
             for i, r in enumerate(a)]
        prev = a[k][k]
    return prev, [r[m:] for r in a]


def _power_minus_identity(end: tuple[int, list[list[int]]], n: int, q: int = 0) -> list[list[int]]:
    """Rows of T^N - I, mod q if q (else δ = ±1), T the companion of (δ, V): t^d e_j = -row j
    of V / δ.  Rows k m + j of T^s are its rows j times T^k: squaring needs only those m."""
    (delta, w), mod = end, (lambda v: [x % q for x in v]) if q else (lambda v: v)
    m, md, inv = len(w), len(w[0]) if w else 0, pow(delta, -1, q) if q else delta

    def times_t(v: list[int]) -> list[int]:
        out = [0] * m + v[: md - m]
        for x, row in zip(v[md - m:], w):
            x = x * inv % q if q else x * inv
            out = [y - x * z for y, z in zip(out, row)] if x else out
        return mod(out)

    full = [[int(i == j) for j in range(md)] for i in range(md)]
    for bit in bin(n)[2:]:
        u = [mod([sum(map(mul, x, col)) for col in zip(*full)]) for x in full[:m]]
        full = [times_t(x) for x in u] if bit == "1" else u
        while len(full) < md:
            full = full + [times_t(x) for x in full[-m:]]
    return [[x - (i == j) for j, x in enumerate(r)] for i, r in enumerate(full)]


_PRIMES: list[int] = []  # the primes below 2^61 from the top, found as first needed


def _modulus(ends: list, coeffs: list[list[int]], n: int) -> Optional[list[int]]:
    """The invariant factors of coker B(C_N) if D = |det B(C_N)| > 0 and its part D_2 on
    the primes of a = det B_d is prime to c = det B_0; ``ends``: :func:`_monic` of B, B reversed."""
    a, c = (end[0] if end else 0 for end in ends)
    end = ends[0] or ends[1]
    bound = 4 * prod(sum(x * x for x in r) for r in coeffs) ** n  # 4 H^2N >= 4 D^2
    i, r, big = 0, 0, 1
    while end and big * big <= bound:
        if i == len(_PRIMES):
            _PRIMES.append(next(p for p in range((_PRIMES or [2**61 + 1])[-1] - 2, 1, -2) if _is_prime(p)))
        if end[0] % (p := _PRIMES[i]):
            rows = _power_minus_identity(end, n, p)
            x = bareiss_det(rows, 0, 1) if len(end[1]) > 1 else _euclid(end, rows, p)[1]
            r, big = r + big * ((pow(end[0], n, p) * x - r) * pow(big, -1, p) % p), big * p
        i += 1
    d1, d2 = abs(r - big if 2 * r > big else r), 1
    while d1 and (g := gcd(d1, a)) > 1:
        d1, d2 = d1 // g, d2 * g
    if not d1 or gcd(d2, c) > 1:
        return None
    chain = [1] * (len(coeffs[0]) - len(coeffs))
    for end, q in zip(ends, (d1, d2)):  # T^N - I mod D_1, the reversed rows' mod D_2
        if q > 1:
            rows = _power_minus_identity(end, n, q)
            x = _smith_mod(rows, q) if len(end[1]) > 1 else _euclid(end, rows, q)[0]
            chain = [y * z for y, z in zip(chain, x)]
    return chain


def _euclid(end: tuple[int, list[list[int]]], rows: list[list[int]], q: int) -> tuple[list, int]:
    """Invariant factors of (Z/q)[t]/(f, g), and Res(f, g), f = alpha / δ for end = (δ, [alpha's]),
    g = row 0 of T^N - I: Euclid, or :func:`_smith_mod` on a part of q where lc(g) is no unit."""
    inv, out, res = pow(end[0], -1, q), [1] * len(rows), 1
    f = [x * inv % q for x in end[1][0]]
    g = _reduce(rows[0] if rows else [], f, q)
    while q > 1:
        if (h := gcd(g[-1], q) if g else q) == 1:
            inv = pow(g[-1], -1, q)
            res = res * (-1) ** (len(f) * (len(g) - 1)) * pow(g[-1], len(f), q) % q
            f, g = [x * inv % q for x in g[:-1]], _reduce(f + [1], [x * inv for x in g[:-1]], q)
            continue
        q1, res = 1, res if not f else 0
        while (x := gcd(q, h)) > 1:
            q1, q = q1 * x, q // x
        sub = [g] if f else []
        while 0 < len(sub) < len(f):
            sub.append(_reduce([0] + sub[-1], f, q1))
        out = [x * y for x, y in zip(out, [1] * (len(out) - len(f)) + _smith_mod(sub, q1))]
    return out, res


def _reduce(f: list[int], w: list[int], q: int) -> list[int]:
    """f (consumed) mod the monic t^len(w) + ... + w_0 over Z/q, no zeros at the end."""
    while len(f) > len(w):
        x = f.pop() % q
        for k, y in enumerate(w, len(f) - len(w)):
            f[k] -= x * y
    f = [x % q for x in f]
    while f and not f[-1]:
        f.pop()
    return f


def _is_prime(p: int) -> bool:
    """Miller-Rabin to the prime bases up to 37: exact for odd p > 37 below 3.3e24."""
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = 2^s t, t odd
    return all(pow(b, (p - 1) >> s, p) == 1 or p - 1 in [pow(b, (p - 1) >> s << k, p) for k in range(s)]
               for b in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))


def _smith_mod(a: list[list[int]], q: int) -> list[int]:
    """The invariant factors of Z^k / (k rows of a, q Z^k) as a divisor
    chain, by elimination over Z/q: the pivot x is a unit, or of least
    g = gcd(x, q), made to divide its row and column; Z/g splits off."""
    a, out = [[x % q for x in r] + [0] * (len(a) - len(r)) for r in a], []
    while a:
        i, j = min((gcd(x, q), i, j) for i, r in enumerate(a) for j, x in enumerate(r))[1:]
        while True:
            g = gcd(x := a[i][j], q)
            if not any(r[j] % g for r in a):
                if not any(y % g for y in a[i]):
                    break
                a, i, j = [list(r) for r in zip(*a)], j, i
            k = next(k for k, r in enumerate(a) if r[j] % g)
            h = gcd(x, a[k][j], q)
            s = q // h  # its part prime to x / h: gcd(x + s a_kj, q) = h
            while (f := gcd(s, x // h)) > 1:
                s //= f
            a[i] = [(y + s * z) % q for y, z in zip(a[i], a[k])]
        u, p = pow(x // g, -1, q // g), a.pop(i)
        for r in a:
            f = r[j] // g * u % q
            r[:] = [(y - f * z) % q for k, (y, z) in enumerate(zip(r, p)) if k != j]
        out.append(g)
    return divisor_chain(out)


def _fold(terms, n: int) -> dict[int, int]:
    """``{exponent mod N: coefficient}`` of terms, those equal mod N added."""
    out: dict[int, int] = {}
    for e, c in terms:
        out[e % n] = out.get(e % n, 0) + c
    return out

