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
* ``ac_trivialize_search_reference``, the Andrews-Curtis search on
  ``Word`` relators, against the packed-letter
  ``acmoves.ac_trivialize_search``;
* ``act`` and ``trace``, the action of words on a closed coset table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from ribbonknots.acmoves import (
    ACMove,
    ACPresentation,
    AddPair,
    Budget,
    Conjugate,
    Exhausted,
    Found,
    Invert,
    Multiply,
    RemovePair,
    SearchOutcome,
    removal_plan,
    verify_move_sequence,
)
from ribbonknots.constructions import RealizationResult
from ribbonknots.cosets import CosetTable
from ribbonknots.covers import CoverReport, cover_homology, module_cover_homology
from ribbonknots.laurent import LaurentPoly, laurent
from ribbonknots.presentations import Presentation
from ribbonknots.words import (
    IDENTITY,
    Word,
    cyclic_letters,
    cyclic_variants,
    gen,
    inverse,
    parse_word,
    product,
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
) -> list[CoverReport]:
    """Cross-check a realization against its module for several cover
    orders."""
    p = result.verification_presentation()
    return [
        CoverReport(n, cover_homology(p, n), module_cover_homology(result.module_spec, n))
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
            elif kind == "add" and len(tokens) >= 2:
                moves.append(AddPair(tokens[1], parse_word(" ".join(tokens[2:]))))
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


def ac_trivialize_search_reference(
    p: ACPresentation, max_total_length: int, max_depth: int
) -> SearchOutcome:
    """Breadth-first AC search on ``Word`` relators, in the expansion
    order of ``acmoves.ac_trivialize_search``: every successor is built
    as a full presentation with its move list, keyed by
    ``canonical_form_reference`` and tried with ``removal_plan``."""
    if max_total_length < 1 or max_depth < 1:
        raise ValueError("bounds must be positive")
    if p.total_length() > max_total_length:
        return Budget()

    seen = {canonical_form_reference(p)}
    frontier: list[tuple[ACPresentation, tuple[ACMove, ...]]] = [(p, ())]
    truncated = False

    plan = removal_plan(p)
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
                plan = removal_plan(q)
                if plan is not None:
                    assert verify_move_sequence(p, full + plan)
                    return Found(full + plan)
                next_frontier.append((q, full))
        frontier = next_frontier
    if frontier:
        truncated = True  # depth bound hit with unexplored states
    return Budget() if truncated else Exhausted()
