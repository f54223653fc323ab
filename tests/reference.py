"""Reference implementations that the tests compare the package against.

None of this runs in the CLI or the constructions; each piece is a
slower or more literal restatement of something the package computes
another way:

* the free-group-ring Fox calculus, against the one-pass
  ``fox.alexander_matrix``;
* ``compare_realization``, the group-side versus module-side cover
  homology of a realization;
* ``is_ascending_hnn_shape``, the syntactic shape of a lemma-4
  presentation;
* ``parse_moves``, the inverse of ``acmoves.format_moves``;
* ``cyclic_variants``, every rotation of a cyclic word and of its
  inverse, for ``canonical_form_reference``;
* ``least_rotation_reference``, the least of every rotation of a code
  string and of its inverse, against ``acmoves._least_rotation``, which
  slices only the rotations that start with the least code;
* ``match_wirtinger_reference``, the Wirtinger relator matcher that
  tries every rotation of both orientations, against the one scan over
  centres of ``presentations._match_wirtinger``;
* ``removal_plan_reference``, the pair-removal plan spelled by applying
  each move to ``Word`` relators, against ``acmoves.removal_plan``, which
  spells it from the packed code strings;
* ``ac_trivialize_search_reference``, the Andrews-Curtis search on
  ``Word`` relators that tries ``removal_plan_reference`` on every new
  state, against the packed-letter ``acmoves.ac_trivialize_search``;
* ``todd_coxeter_reference``, coset enumeration on a union-find table,
  against the flat-table ``cosets.todd_coxeter``;
* ``act`` and ``trace``, the action of words on a closed coset table;
* ``cokernel_invariants_reference``, the sparse elimination that
  rescans every nonzero for each pivot, against the incremental pivot
  search of ``intlinalg.cokernel_invariants``, which must take the same
  pivots; ``CountingRow``, a row that counts the entries an elimination
  writes into it, shows whether they did;
* ``lift_glnz_reference``, the GL(r, Z) lift as a factorization into
  ``AddMultiple``/``Swap``/``Negate`` operations, each lifted to a
  ``FreeEndo`` and composed one at a time, against the Nielsen moves of
  ``constructions.lift_glnz``; the lift is not unique and its words are
  CLI output, so the two must agree word for word;
* ``random_unimodular``, a product of random elementary matrices,
  ``unit_block_matrix``, a sparse matrix mostly of ±1 entries around a
  non-unit block, ``matmul``, the matrix product, and
  ``spelled_presentation``, a presentation whose abelianized Fox matrix
  is a given matrix over Z[t, t^-1], for the routes of
  ``covers.cover_homology``, and ``expanded_cyclic_form``, the
  ``expand_length1`` form of the cyclic realization of ``cyclic_alpha``
  (the degree-40 north-star polynomial at d = 40), for count ladders;
* ``exponent_sums``, the exponent vector of one word over a list of
  generators, against ``presentations.exponent_rows``, which indexes
  the generators once per presentation;
* ``kronecker_matrix``, the dense rN x rN integer matrix of a module at
  cover order N, against the sparse rows that ``covers`` folds (a block
  of degree >= N, or one that neither T^N - I nor the modulus route
  takes), and as the oracle for the cokernel of every other block;
  ``t_action``, the matrix of t on a Z-free module (a cyclic one's by
  long division), against those blocks, row for row;
* ``relative_cover_homology``, the group side from every column of the
  Fox matrix less the Z^(N-1) of the cover's vertices, against
  ``covers.cover_homology``, which drops the column of a weight ±1;
* ``cokernel_of``, ``dense`` and ``record_cokernel_calls``, which hand a
  dense matrix to ``intlinalg.cokernel_invariants`` as the sparse rows
  it consumes, turn such rows back into a matrix, and record the rows
  the covers and the abelianization hand it; ``count_calls``, which
  counts the calls of a package function through all its bindings;
* ``diagonal_of``, the diagonal of a ``smith_normal_form`` result,
  ``diagonal_invariants``, the cokernel of such a diagonal, and
  ``weight_vector_reference``, the weight vector read off the V
  transform of the dense exponent matrix's Smith normal form, against
  the integer-kernel reduction of ``presentations.weight_vector``;
* ``det_int``, the integer determinant by ``intlinalg.bareiss_det``, and
  ``eq_up_to_unit``, equality of Laurent polynomials up to a unit +-t^k.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from dataclasses import dataclass
from math import gcd
from typing import Iterator, Mapping, Optional, Sequence, Union

from ribbonknots import covers, presentations
from ribbonknots.acmoves import (
    ACMove,
    ACPresentation,
    Budget,
    Conjugate,
    Exhausted,
    Found,
    Invert,
    Multiply,
    RemovePair,
    SearchOutcome,
    apply_move,
    verify_move_sequence,
)
from ribbonknots.constructions import KnotModuleSpec, RealizationResult, realize_cyclic
from ribbonknots.cosets import CosetTable
from ribbonknots.covers import cover_homology, module_cover_homology
from ribbonknots.intlinalg import (
    AbelianGroupInvariants,
    Matrix,
    bareiss_det,
    cokernel_invariants,
    matrix,
    smith_normal_form,
)
from ribbonknots.laurent import LaurentPoly, from_coeffs, laurent, normalize_unit
from ribbonknots.presentations import Presentation, expand_length1, exponent_rows
from ribbonknots.words import (
    IDENTITY,
    Word,
    cyclic_letters,
    gen,
    inverse,
    normalize,
    product,
    substitute,
)


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


def fundamental_identity_holds(w: Word, generators: list[str]) -> bool:
    """Check sum_g d(w)/d(g) (g - 1) = w - 1 in the group ring."""
    total = RING_ZERO
    for g in generators:
        total = total + fox_derivative(w, g) * (word_elem(gen(g)) - RING_ONE)
    return total == word_elem(w) - RING_ONE


def compare_realization(
    result: RealizationResult, orders: Sequence[int]
) -> list[tuple[int, AbelianGroupInvariants, AbelianGroupInvariants]]:
    """``(N, group side, module side)`` of a realization's N-fold cyclic
    cover for each order."""
    p = result.verification_presentation()
    weights = presentations.weight_vector(p)
    return [
        (n, cover_homology(p, n, weights), module_cover_homology(result.module_spec, n))
        for n in orders
    ]


def is_ascending_hnn_shape(p: Presentation, stable: str = "t") -> bool:
    """Syntactic check: every relator is
    ``t x_i t^-1 . (word in the x's)^-1``."""
    base = set(p.generators) - {stable}
    for r in p.relators:
        syl = r.syllables
        if len(syl) < 3:
            return False
        if syl[0] != (stable, 1):
            return False
        if syl[1][0] not in base or syl[1][1] != 1:
            return False
        if syl[2] != (stable, -1):
            return False
        if any(g == stable for g, _ in syl[3:]):
            return False
    return True


def parse_moves(text: str) -> tuple[ACMove, ...]:
    """Parse the move-list text that ``acmoves.format_moves`` writes."""
    moves: list[ACMove] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        try:
            if kind == "inv" and len(tokens) == 2:
                moves.append(Invert(int(tokens[1]) - 1))
            elif kind == "conj" and len(tokens) == 4:
                moves.append(Conjugate(int(tokens[1]) - 1, tokens[2], int(tokens[3])))
            elif kind == "mul" and len(tokens) == 3:
                moves.append(Multiply(int(tokens[1]) - 1, int(tokens[2]) - 1))
            elif kind == "rm" and len(tokens) == 2:
                moves.append(RemovePair(tokens[1]))
            else:
                raise ValueError
        except ValueError:
            raise ValueError(f"bad move line {line!r}")
    return tuple(moves)


def act(table: CosetTable, coset: int, generator: str, exponent: int = 1) -> int:
    """The coset ``coset . generator^exponent`` in a closed table."""
    if table.action is None:
        raise ValueError("overflowed table has no total action")
    g = table.generators.index(generator)
    for _ in range(abs(exponent)):
        coset = table.action[coset][2 * g + (0 if exponent > 0 else 1)]
    return coset


def trace(table: CosetTable, coset: int, w: Word) -> int:
    """The coset ``coset . w`` in a closed table."""
    for g, s in w.letters():
        coset = act(table, coset, g, s)
    return coset


def cyclic_variants(
    letters: Sequence[tuple[str, int]],
) -> Iterator[tuple[tuple[str, int], ...]]:
    """Every rotation of the cyclic word ``letters``, then every rotation
    of its inverse."""
    forward = tuple(letters)
    for cand in (forward, tuple((g, -s) for g, s in reversed(forward))):
        for shift in range(len(cand)):
            yield cand[shift:] + cand[:shift]


def match_wirtinger_reference(
    letters: Sequence[tuple[str, int]],
) -> Optional[tuple[str, str, Word]]:
    """Find the pattern g_j . w . g_i^-1 . w^-1 in a cyclic word by
    building every rotation of both orientations.

    Returns (origin, terminus, label) of the match whose (origin,
    terminus, label text) is lexicographically least, or None.
    """
    n = len(letters)
    if n < 2 or n % 2 != 0:
        return None
    half = (n - 2) // 2
    best = None
    for rot in cyclic_variants(letters):
        if rot[0][1] != 1 or rot[half + 1][1] != -1:
            continue
        w = rot[1 : half + 1]
        if rot[half + 2 :] != tuple((g, -s) for g, s in reversed(w)):
            continue
        terminus, origin = rot[0][0], rot[half + 1][0]
        label = normalize(w)
        key = (origin, terminus, str(label))
        if best is None or key < best[0]:
            best = key, label
    if best is None:
        return None
    (origin, terminus, _), label = best
    return origin, terminus, label


def least_rotation_reference(s: str, inv: dict[int, int]) -> str:
    """Least rotation of the cyclically reduced conjugate of the code
    string ``s`` or of its inverse, by ``min`` over every slice."""
    i, j = 0, len(s)
    while j - i >= 2 and ord(s[i]) ^ ord(s[j - 1]) == 1:
        i, j = i + 1, j - 1
    n = j - i
    forward = s[i:j] * 2
    backward = forward[::-1].translate(inv)
    return min((w[k : k + n] for w in (forward, backward) for k in range(n)), default="")


def canonical_form_reference(p: ACPresentation) -> tuple:
    """The AC ``seen`` key on ``Word`` relators: sorted least rotations
    (over each relator and its inverse, compared by name then sign),
    generators renumbered by first appearance."""
    reduced = sorted(min(cyclic_variants(cyclic_letters(r)), default=()) for r in p.relators)
    rename: dict[str, int] = {}
    keyed = tuple(
        tuple((rename.setdefault(g, len(rename)), s) for g, s in letters)
        for letters in reduced
    )
    return (len(p.generators), keyed)


def _successors(
    p: ACPresentation, max_total_length: int
) -> tuple[list[tuple[tuple[ACMove, ...], ACPresentation]], bool]:
    """Compound successors: R_i *= c . R_j^e . c^-1 over all i != j,
    e in {+1, -1}, and single-letter conjugators c (or none).

    Each successor carries the primitive move list realizing it (the
    transformation of R_j is undone afterwards).  Returns the successor
    list and whether any candidate was pruned by the length bound.
    """
    n = len(p.relators)
    out = []
    pruned = False
    conjugators: list[Optional[tuple[str, int]]] = [None]
    conjugators += [(g, s) for g in p.generators for s in (1, -1)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for invert_j in (False, True):
                for conj in conjugators:
                    rj = inverse(p.relators[j]) if invert_j else p.relators[j]
                    if conj is not None:
                        rj = product(gen(conj[0], conj[1]), rj, gen(conj[0], -conj[1]))
                    new_ri = product(p.relators[i], rj)
                    new_rels = p.relators[:i] + (new_ri,) + p.relators[i + 1 :]
                    q = ACPresentation(p.generators, new_rels)
                    if q.total_length() > max_total_length:
                        pruned = True
                        continue
                    moves: list[ACMove] = []
                    if conj is not None:
                        moves.append(Conjugate(j, conj[0], conj[1]))
                    if invert_j:
                        moves.append(Invert(j))
                    moves.append(Multiply(i, j))
                    if invert_j:
                        moves.append(Invert(j))
                    if conj is not None:
                        moves.append(Conjugate(j, conj[0], -conj[1]))
                    out.append((tuple(moves), q))
    return out, pruned


def removal_plan_reference(p: ACPresentation) -> Optional[tuple[ACMove, ...]]:
    """Explicit move list (Invert/Conjugate rotations + RemovePair) that
    empties ``p`` by repeated pair removal, or None when stuck, applying
    each move to ``Word`` relators.

    A pair is ripe when its generator occurs exactly once in the whole
    presentation; the first ripe generator in presentation order goes
    first, and single-letter conjugations rotate its relator until it
    starts with the generator.
    """
    moves: list[ACMove] = []
    while p.generators:
        ripe = None
        for name in p.generators:
            count = sum(
                sum(abs(e) for g, e in r.syllables if g == name) for r in p.relators
            )
            if count == 1:
                ripe = name
                break
        if ripe is None:
            return None
        k = next(i for i, r in enumerate(p.relators) if ripe in r.generators())
        # Orient the single occurrence positively.
        if next(e for g, e in p.relators[k].syllables if g == ripe) < 0:
            moves.append(Invert(k))
            p = apply_move(p, moves[-1])
        while p.relators[k].syllables[0][0] != ripe:
            g0, e0 = p.relators[k].syllables[0]
            moves.append(Conjugate(k, g0, -1 if e0 > 0 else 1))
            p = apply_move(p, moves[-1])
        moves.append(RemovePair(ripe))
        p = apply_move(p, moves[-1])
    return tuple(moves)


def ac_trivialize_search_reference(
    p: ACPresentation, max_total_length: int, max_depth: int
) -> SearchOutcome:
    """Breadth-first AC search on ``Word`` relators, in the expansion
    order of ``acmoves.ac_trivialize_search``: every successor is built
    as a full presentation with its move list, keyed by
    ``canonical_form_reference`` and tried with
    ``removal_plan_reference``."""
    if max_total_length < 1 or max_depth < 1:
        raise ValueError("bounds must be positive")
    if p.total_length() > max_total_length:
        return Budget()

    seen = {canonical_form_reference(p)}
    frontier: list[tuple[ACPresentation, tuple[ACMove, ...]]] = [(p, ())]
    truncated = False

    plan = removal_plan_reference(p)
    if plan is not None:
        assert verify_move_sequence(p, plan)
        return Found(plan)

    for _depth in range(max_depth):
        if not frontier:
            break
        next_frontier: list[tuple[ACPresentation, tuple[ACMove, ...]]] = []
        for node, path in frontier:
            succs, pruned = _successors(node, max_total_length)
            truncated = truncated or pruned
            for moves, q in succs:
                key = canonical_form_reference(q)
                if key in seen:
                    continue
                seen.add(key)
                full = path + moves
                plan = removal_plan_reference(q)
                if plan is not None:
                    assert verify_move_sequence(p, full + plan)
                    return Found(full + plan)
                next_frontier.append((q, full))
        frontier = next_frontier
    if frontier:
        truncated = True  # depth bound hit with unexplored states
    return Budget() if truncated else Exhausted()


class _UnionFindTable:
    """Coset action table with union-find coincidence handling."""

    def __init__(self, n_letters: int, limit: int) -> None:
        self.n_letters = n_letters
        self.limit = limit
        self.rows: list[list[Optional[int]]] = []
        self.rep: list[int] = []

    def find(self, a: int) -> int:
        while self.rep[a] != a:
            self.rep[a] = self.rep[self.rep[a]]
            a = self.rep[a]
        return a

    def new_coset(self) -> Optional[int]:
        if len(self.rows) >= self.limit:
            return None
        self.rows.append([None] * self.n_letters)
        self.rep.append(len(self.rows) - 1)
        return len(self.rows) - 1

    def get(self, a: int, letter: int) -> Optional[int]:
        v = self.rows[self.find(a)][letter]
        return None if v is None else self.find(v)

    def set(self, a: int, letter: int, b: int) -> None:
        """Record a . letter = b (and the inverse edge), merging cosets
        whenever the new fact contradicts an existing entry."""
        while True:
            a, b = self.find(a), self.find(b)
            cur = self.get(a, letter)
            if cur is not None and cur != b:
                self.coincide(cur, b)
                continue
            self.rows[a][letter] = b
            back = self.get(b, letter ^ 1)
            if back is None:
                self.rows[self.find(b)][letter ^ 1] = a
                return
            if back == self.find(a):
                return
            self.coincide(back, a)

    def coincide(self, a: int, b: int) -> None:
        queue = [(a, b)]
        while queue:
            a, b = queue.pop()
            a, b = self.find(a), self.find(b)
            if a == b:
                continue
            if a > b:
                a, b = b, a
            self.rep[b] = a
            row, self.rows[b] = self.rows[b], [None] * self.n_letters
            for letter, v in enumerate(row):
                if v is None:
                    continue
                v = self.find(v)
                cur = self.get(a, letter)
                if cur is None:
                    self.rows[a][letter] = v
                    back = self.get(v, letter ^ 1)
                    if back is None:
                        self.rows[self.find(v)][letter ^ 1] = a
                    elif back != a:
                        queue.append((back, a))
                elif cur != v:
                    queue.append((cur, v))

    def live_cosets(self) -> list[int]:
        return [i for i in range(len(self.rows)) if self.find(i) == i]


def _letters(w: Word, gen_index: dict[str, int]) -> list[int]:
    return [2 * gen_index[g] + (0 if s > 0 else 1) for g, s in w.letters()]


def todd_coxeter_reference(
    p: Presentation, subgroup: Sequence[Word] = (), max_cosets: int = 10_000
) -> CosetTable:
    """HLT enumeration on a union-find table that reads every entry
    through ``find`` and restarts each scan after every definition:
    the enumerator ``cosets.todd_coxeter`` replaced, which must define
    the same cosets in the same order."""
    if max_cosets < 1:
        raise ValueError("max_cosets must be >= 1")
    gens = p.generators
    gen_index = {g: i for i, g in enumerate(gens)}
    for w in subgroup:
        unknown = w.generators() - set(gens)
        if unknown:
            raise ValueError(f"subgroup word uses unknown generators {sorted(unknown)}")
    relator_letters = [_letters(r, gen_index) for r in p.relators]
    subgroup_letters = [_letters(w, gen_index) for w in subgroup]

    table = _UnionFindTable(2 * len(gens), max_cosets)
    table.new_coset()
    overflow = CosetTable(gens, False, 0, max_cosets)

    def scan_and_fill(start: int, letters: list[int]) -> bool:
        n = len(letters)
        while True:
            start = table.find(start)
            f, fi = start, 0
            while fi < n:
                nxt = table.get(f, letters[fi])
                if nxt is None:
                    break
                f, fi = nxt, fi + 1
            if fi == n:
                if f != start:
                    table.coincide(f, start)
                return True
            b, bi = start, n
            while bi > fi + 1:
                prev = table.get(b, letters[bi - 1] ^ 1)
                if prev is None:
                    break
                b, bi = prev, bi - 1
            if bi == fi + 1:
                table.set(f, letters[fi], b)
                return True
            c = table.new_coset()
            if c is None:
                return False
            table.set(f, letters[fi], c)

    for letters in subgroup_letters:
        if letters and not scan_and_fill(0, letters):
            return overflow

    i = 0
    while i < len(table.rows):
        if table.find(i) != i:
            i += 1
            continue
        for letters in relator_letters:
            if table.find(i) != i:
                break
            if letters and not scan_and_fill(i, letters):
                return overflow
        if table.find(i) == i:
            for letter in range(table.n_letters):
                if table.find(i) != i:
                    break
                if table.get(i, letter) is None:
                    c = table.new_coset()
                    if c is None:
                        return overflow
                    table.set(i, letter, c)
        i += 1

    live = table.live_cosets()
    index = {c: k for k, c in enumerate(live)}
    action = tuple(
        tuple(index[table.get(c, letter)] for letter in range(table.n_letters))
        for c in live
    )
    return CosetTable(gens, True, len(live), max_cosets, action)


def cokernel_invariants_reference(m: Matrix, work: Counter | None = None) -> AbelianGroupInvariants:
    """Invariants of ``Z^cols / row-span(m)`` by the sparse elimination
    that ``intlinalg.cokernel_invariants`` replaced: each step rescans
    every stored nonzero for the least ``|x|``, then again for the least
    Markowitz cost ``(row nnz - 1) * (col nnz - 1)``, ties broken by
    least ``(row, col)``.  The package must choose the same pivots, so it
    writes the same entries: with ``work``, the rows are ``CountingRow``
    rows counting into it."""
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for i, entries in enumerate(m.entries):
        row = {j: x for j, x in enumerate(entries) if x}
        if row:
            rows[i] = row if work is None else CountingRow(row, work)
            for j in row:
                cols.setdefault(j, set()).add(i)
    units = 0
    nonunits: list[int] = []
    while rows:
        least = min(abs(x) for row in rows.values() for x in row.values())
        cost = i0 = j0 = -1
        for i, row in rows.items():
            row_cost = len(row) - 1
            for j, x in row.items():
                if x == least or x == -least:
                    c = row_cost * (len(cols[j]) - 1)
                    if cost < 0 or c < cost or (c == cost and i == i0 and j < j0):
                        cost, i0, j0 = c, i, j
            if cost == 0:
                break  # rows come in increasing order: no later key is less
        pivot_row = rows[i0]
        p = pivot_row[j0]
        dirty = False
        for i in [i for i in cols[j0] if i != i0]:
            row = rows[i]
            q = row[j0] // p
            for j, x in pivot_row.items():
                y = row.get(j, 0) - q * x
                if y:
                    if j not in row:
                        cols[j].add(i)
                    row[j] = y
                else:
                    del row[j]
                    cols[j].discard(i)
            if j0 in row:
                dirty = True
            elif not row:
                del rows[i]
        if dirty:
            continue
        for j in [j for j in pivot_row if j != j0]:
            r = pivot_row[j] % p
            if r:
                pivot_row[j] = r
                dirty = True
            else:
                del pivot_row[j]
                cols[j].discard(i0)
        if dirty:
            continue
        del rows[i0], cols[j0]
        if p in (1, -1):
            units += 1
        else:
            nonunits.append(abs(p))
    # (a, b) -> (gcd, lcm) keeps the group; after position a has met every
    # later entry it divides all of them.
    for a in range(len(nonunits)):
        for b in range(a + 1, len(nonunits)):
            g = gcd(nonunits[a], nonunits[b])
            nonunits[a], nonunits[b] = g, nonunits[a] // g * nonunits[b]
    return diagonal_invariants([1] * units + nonunits, m.cols)


@dataclass(frozen=True)
class AddMultiple:
    """Row op ``row i += c * row j`` (i != j, c != 0)."""

    i: int
    j: int
    c: int

    def __post_init__(self) -> None:
        if self.i == self.j:
            raise ValueError("AddMultiple needs distinct rows")
        if self.c == 0:
            raise ValueError("AddMultiple needs a nonzero multiplier")

    def inverse(self) -> "AddMultiple":
        return AddMultiple(self.i, self.j, -self.c)


@dataclass(frozen=True)
class Swap:
    i: int
    j: int

    def inverse(self) -> "Swap":
        return self


@dataclass(frozen=True)
class Negate:
    i: int

    def inverse(self) -> "Negate":
        return self


ElementaryOp = Union[AddMultiple, Swap, Negate]


def _apply_row_op(grid: list[list[int]], op: ElementaryOp) -> None:
    if isinstance(op, AddMultiple):
        grid[op.i] = [a + op.c * b for a, b in zip(grid[op.i], grid[op.j])]
    elif isinstance(op, Swap):
        grid[op.i], grid[op.j] = grid[op.j], grid[op.i]
    else:
        grid[op.i] = [-a for a in grid[op.i]]


def replay_elementary(ops: Sequence[ElementaryOp], n: int) -> Matrix:
    """Product of the elementary matrices, applied in order as left
    multiplications of the identity."""
    grid = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for op in ops:
        indices = (op.i, op.j) if not isinstance(op, Negate) else (op.i,)
        if any(not 0 <= k < n for k in indices):
            raise ValueError(f"row index out of range in {op}")
        _apply_row_op(grid, op)
    return matrix(grid)


def factor_glnz(m: Matrix) -> tuple[ElementaryOp, ...]:
    """Factor a unimodular matrix into elementary operations.

    Replaying the result (see :func:`replay_elementary`) reproduces the
    input exactly.  Deterministic: Gauss-Jordan with Euclidean gcd
    cascades down each column, pivots processed in order.
    """
    n = m.rows
    if m.rows != m.cols:
        raise ValueError("only square matrices factor into GL(n, Z)")
    if abs(det_int(m)) != 1:
        raise ValueError("matrix is not unimodular")
    grid = [list(row) for row in m.entries]
    applied: list[ElementaryOp] = []

    def do(op: ElementaryOp) -> None:
        _apply_row_op(grid, op)
        applied.append(op)

    for k in range(n):
        while True:
            live = [i for i in range(k, n) if grid[i][k] != 0]
            if len(live) == 1:
                break
            live.sort(key=lambda i: (abs(grid[i][k]), i))
            small, other = live[0], live[1]
            q = grid[other][k] // grid[small][k]
            if q == 0:
                q = 1 if grid[other][k] * grid[small][k] > 0 else -1
            do(AddMultiple(other, small, -q))
        pivot_row = next(i for i in range(k, n) if grid[i][k] != 0)
        if pivot_row != k:
            do(Swap(k, pivot_row))
        if grid[k][k] < 0:
            do(Negate(k))
        assert grid[k][k] == 1, "pivot gcd is not 1; input not unimodular"
        for i in range(n):
            if i != k and grid[i][k] != 0:
                do(AddMultiple(i, k, -grid[i][k]))
    # grid is now the identity: m = applied[0]^-1 ... applied[-1]^-1.
    return tuple(op.inverse() for op in reversed(applied))


@dataclass(frozen=True)
class FreeEndo:
    """Endomorphism of a free group, given by generator images."""

    domain: tuple[str, ...]
    images: tuple[Word, ...]


def identity_endo(domain: Sequence[str]) -> FreeEndo:
    return FreeEndo(tuple(domain), tuple(gen(g) for g in domain))


def compose_endo(f: FreeEndo, g: FreeEndo) -> FreeEndo:
    """The endomorphism ``x -> f(g(x))`` on a common domain."""
    images = dict(zip(f.domain, f.images))
    return FreeEndo(f.domain, tuple(substitute(img, images) for img in g.images))


def _lift_one(op: ElementaryOp, domain: tuple[str, ...]) -> FreeEndo:
    images = [gen(g) for g in domain]
    if isinstance(op, AddMultiple):
        images[op.i] = product(gen(domain[op.i]), gen(domain[op.j], op.c))
    elif isinstance(op, Swap):
        images[op.i], images[op.j] = images[op.j], images[op.i]
    else:
        images[op.i] = gen(domain[op.i], -1)
    return FreeEndo(domain, tuple(images))


def lift_elementary(
    ops: Sequence[ElementaryOp], rank: int
) -> tuple[FreeEndo, FreeEndo]:
    """Lift elementary row operations to a free-group automorphism on
    ``x1..x<rank>``; return the lift and its inverse."""
    domain = tuple(f"x{i}" for i in range(1, rank + 1))
    endo = identity_endo(domain)
    inv = identity_endo(domain)
    for op in ops:
        endo = compose_endo(endo, _lift_one(op, domain))
        inv = compose_endo(_lift_one(op.inverse(), domain), inv)
    return endo, inv


def lift_glnz_reference(m: Matrix) -> tuple[tuple[Word, ...], tuple[Word, ...]]:
    """Images of ``x1..xr`` under the lift of ``m`` and its inverse, as
    ``constructions.lift_glnz`` returns them."""
    mu, nu = lift_elementary(factor_glnz(m), m.rows)
    return mu.images, nu.images


def random_unimodular(rng, n: int, count: int) -> Matrix:
    """Product of ``count`` random elementary matrices of size ``n``:
    row additions with multiplier +-1 or +-2, swaps and negations."""
    ops: list[ElementaryOp] = []
    for _ in range(count):
        kind = rng.randrange(3)
        if kind == 0 and n >= 2:
            i, j = rng.sample(range(n), 2)
            ops.append(AddMultiple(i, j, rng.choice([-2, -1, 1, 2])))
        elif kind == 1 and n >= 2:
            i, j = rng.sample(range(n), 2)
            ops.append(Swap(i, j))
        else:
            ops.append(Negate(rng.randrange(n)))
    return replay_elementary(ops, n)


def spelled_presentation(rows: Sequence[Mapping[int, LaurentPoly]], cols: int) -> Presentation:
    """``<t, x0, ..., x(cols - 1) | r_i>`` with each ``r_i`` a product of
    conjugates ``t^e xj^c t^-e``, one per term ``c t^e`` of ``rows[i][j]``.
    Each factor has weight 0 under ``t -> 1, xj -> 0``, so the abelianized
    Fox derivative of ``r_i`` by ``xj`` is ``rows[i][j]``."""
    generators = ("t",) + tuple(f"x{j}" for j in range(cols))
    relators = tuple(
        product(*(product(gen("t", e), gen(f"x{j}", c), gen("t", -e))
                  for j, f in row.items() for e, c in f.terms()))
        for row in rows
    )
    return Presentation(generators, relators)


def cyclic_alpha(d: int) -> LaurentPoly:
    """``alpha = 1 + (t - 1) beta`` of degree d, the d coefficients of beta
    drawn from ``random.Random(0)`` as in
    ``test_fox.py::test_alexander_degree_40_cyclic``: at d = 40 its ends are
    -11 and -14."""
    rng = random.Random(0)
    b = [rng.choice((-1, 1)) * rng.randint(6, 14) for _ in range(d)]
    return from_coeffs([1 - b[0]] + [b[i - 1] - b[i] for i in range(1, d)] + [b[-1]])


def expanded_cyclic_form(d: int) -> Presentation:
    """The ``expand_length1`` form of the cyclic realization of
    :func:`cyclic_alpha`: 109, 207, 411 and 815 generators at d = 5, 10, 20
    and 40."""
    return expand_length1(realize_cyclic(cyclic_alpha(d)).wirtinger_presentation)


def unit_block_matrix(rng, unit_rows: int, block: int, cols: int) -> Matrix:
    """A sparse matrix mostly of ±1 entries around a non-unit block, its
    rows and columns permuted.  ``unit_rows`` rows of ±1 at one random
    density over ``cols`` columns (at least ``block``), so some share
    columns with the ``block`` x ``block`` corner of entries from ±2..±6;
    then up to three copies, negations or sums of earlier rows, so that
    some row cancels to empty.  Unit row operations write new ±1 entries
    and move the Markowitz costs of others, up and down."""
    cols = max(cols, block, 1)
    density = rng.uniform(0.1, 0.6)
    grid = [[rng.choice((1, -1)) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(unit_rows)]
    for _ in range(block):
        grid.append([0] * (cols - block)
                    + [rng.choice((2, -2, 3, 4, -6)) if rng.random() < 0.7 else 0
                       for _ in range(block)])
    for _ in range(rng.randint(0, 3) if grid else 0):
        a, b = rng.randrange(len(grid)), rng.randrange(len(grid))
        sign = rng.choice((1, -1))
        grid.append([sign * (x + y) if a != b else sign * x for x, y in zip(grid[a], grid[b])])
    rng.shuffle(grid)
    perm = rng.sample(range(cols), cols)
    return matrix([[row[j] for j in perm] for row in grid], cols=cols)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """The matrix product ``a b``."""
    if a.cols != b.rows:
        raise ValueError("dimension mismatch in matrix product")
    return matrix(
        [
            [sum(a[i, k] * b[k, j] for k in range(a.cols)) for j in range(b.cols)]
            for i in range(a.rows)
        ],
        cols=b.cols,
    )


def exponent_sums(w: Word, over: Sequence[str]) -> tuple[int, ...]:
    """Abelianized exponent vector of ``w`` over the listed generators."""
    index = {g: i for i, g in enumerate(over)}
    out = [0] * len(over)
    for g, e in w.syllables:
        if g not in index:
            raise ValueError(f"generator {g!r} not among {list(over)}")
        out[index[g]] += e
    return tuple(out)


def kronecker_matrix(spec: KnotModuleSpec, n: int) -> Matrix:
    """The module's presentation matrix B with the N x N cyclic shift
    substituted for t, as a dense rN x rN grid."""
    b = spec.presentation_matrix()
    r = b.rows
    grid = [[0] * (r * n) for _ in range(r * n)]
    for i in range(r):
        for j in range(r):
            for e, c in b.entries[i][j].terms():
                for a in range(n):
                    grid[i * n + a][j * n + (a + e) % n] += c
    return matrix(grid, cols=r * n)


def relative_cover_homology(p: Presentation, n: int, weights: Sequence[int]) -> AbelianGroupInvariants:
    """First homology of the N-fold cyclic cover from every column of the
    Fox matrix: coker P(C_N) is the homology of the cover relative to its
    N vertices, which is its homology plus Z^(N-1).  P comes from the
    free-group-ring derivatives, t -> C_N is written into a dense grid and
    the cokernel is the full-rescan reference's, so no code of ``covers``
    runs."""
    w = dict(zip(p.generators, weights))
    k = len(p.generators)
    grid = [[0] * (k * n) for _ in range(len(p.relators) * n)]
    for i, r in enumerate(p.relators):
        for j, g in enumerate(p.generators):
            for e, c in abelianize_to_lambda(fox_derivative(r, g), w).terms():
                for a in range(n):
                    grid[i * n + a][j * n + (a + e) % n] += c
    coker = cokernel_invariants_reference(matrix(grid, cols=k * n))
    return AbelianGroupInvariants(coker.free_rank - (n - 1), coker.torsion)


def t_action(spec: KnotModuleSpec) -> Matrix:
    """The matrix of t on a module that is Z^d, row k the image of basis
    vector k: T (``taction``), I + M (``tminus1``), or for the cyclic
    module of an alpha with top coefficient +-1, t^(k+1) reduced mod
    alpha by long division, in the basis 1, t, ..., t^(d-1)."""
    if spec.kind != "cyclic":
        one = int(spec.kind == "tminus1")
        m = spec.matrix
        return matrix([[m[i, j] + one * (i == j) for j in range(m.cols)] for i in range(m.rows)])
    (alpha,) = spec.polys
    c = alpha.coeffs
    d = len(c) - 1
    rows = []
    for k in range(1, d + 1):
        x = [0] * k + [1]  # t^k
        while len(x) > d:  # subtract x[-1] / c[-1] times t^(len(x) - 1 - d) alpha
            q = x[-1] * c[-1]
            for i, a in enumerate(c):
                x[len(x) - 1 - d + i] -= q * a
            assert x.pop() == 0
        rows.append(x + [0] * (d - len(x)))
    return matrix(rows, cols=d)


def cokernel_of(m: Matrix, work: Counter | None = None) -> AbelianGroupInvariants:
    """``cokernel_invariants`` of a dense matrix, handed as sparse rows;
    with ``work``, ``CountingRow`` rows counting into it."""
    rows = [{j: x for j, x in enumerate(row) if x} for row in m.entries]
    if work is not None:
        rows = [CountingRow(row, work) for row in rows]
    return cokernel_invariants(rows, m.cols)


class CountingRow(dict):
    """A sparse row that counts, in ``work``, the entries written into it
    (``"writes"``) and the bit length of the largest (``"bits"``): the work
    of an elimination that rewrites its rows in place."""

    def __init__(self, entries: Mapping[int, int], work: Counter) -> None:
        super().__init__(entries)
        self.work = work

    def __setitem__(self, j: int, x: int) -> None:
        self.work["writes"] += 1
        self.work["bits"] = max(self.work["bits"], abs(x).bit_length())
        super().__setitem__(j, x)


def dense(rows: Sequence[Mapping[int, int]], cols: int) -> Matrix:
    """The matrix whose rows are the sparse ``{col: value}`` rows."""
    return matrix([[row.get(j, 0) for j in range(cols)] for row in rows], cols=cols)


def record_cokernel_calls(monkeypatch) -> list:
    """Make every ``cokernel_invariants`` call of ``covers`` and
    ``presentations`` record ``(rows, cols, invariants)``, the rows
    copied before the call consumes them; return the record."""
    calls = []

    def record(rows, cols):
        copied = [dict(row) for row in rows]
        calls.append((copied, cols, cokernel_invariants(rows, cols)))
        return calls[-1][2]

    monkeypatch.setattr(covers, "cokernel_invariants", record)
    monkeypatch.setattr(presentations, "cokernel_invariants", record)
    return calls


def count_calls(monkeypatch, original) -> tuple[list, set]:
    """Count calls of ``original`` through every ``ribbonknots`` binding
    of it, as ``from .x import f`` copies the name; return the call list
    and the modules patched."""
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    patched = set()
    for name, module in list(sys.modules.items()):
        if name.startswith("ribbonknots"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
                    patched.add(name)
    return calls, patched


def diagonal_of(s: Matrix) -> tuple[int, ...]:
    """The diagonal of a Smith normal form."""
    return tuple(s.entries[i][i] for i in range(min(s.rows, s.cols)))


def diagonal_invariants(diag: Sequence[int], cols: int) -> AbelianGroupInvariants:
    """Invariants of the cokernel of a Smith normal form with diagonal
    ``diag`` and ``cols`` columns."""
    nonzero = [d for d in diag if d != 0]
    return AbelianGroupInvariants(
        free_rank=cols - len(nonzero),
        torsion=tuple(d for d in nonzero if d >= 2),
    )


def weight_vector_reference(p: Presentation) -> tuple[int, ...]:
    """The weight vector as the free column of the V transform of the
    dense exponent matrix's Smith normal form, sign-normalized so the
    first nonzero weight is positive; requires abelianization = Z."""
    n = len(p.generators)
    e = matrix([[row.get(j, 0) for j in range(n)] for row in exponent_rows(p)], cols=n)
    _, s, v = smith_normal_form(e)
    diag = diagonal_of(s)
    inv = diagonal_invariants(diag, e.cols)
    if inv != AbelianGroupInvariants(1):
        raise ValueError(f"abelianization is {inv}, not Z")
    # The free coordinate of Z^gens / rowspan, in the V-changed basis.
    free = [j for j in range(e.cols) if j >= len(diag) or diag[j] == 0]
    assert len(free) == 1
    k = free[0]
    weights = [v.entries[j][k] for j in range(e.cols)]
    lead = next(w for w in weights if w != 0)
    if lead < 0:
        weights = [-w for w in weights]
    return tuple(weights)


def det_int(m: Matrix) -> int:
    """Exact integer determinant (see ``intlinalg.bareiss_det``)."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    return bareiss_det(m.entries, 0, 1)


def eq_up_to_unit(p: LaurentPoly, q: LaurentPoly) -> bool:
    return normalize_unit(p) == normalize_unit(q)
