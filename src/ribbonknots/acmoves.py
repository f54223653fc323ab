"""Andrews-Curtis moves on balanced presentations and bounded
trivialization search.

The move alphabet: invert a relator, conjugate a relator by a single
generator letter, multiply a relator by another on the right, and
introduce or remove a generator-relator pair ``(y, y z)``.  A balanced
presentation of the trivial group is AC-trivial when some finite move
sequence reaches the empty presentation; the search below explores
that reachability breadth-first under explicit bounds, reporting
``Budget`` (not a refutation) when the bounds clip the search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .presentations import Presentation, deficiency
from .words import (
    Word,
    check_generator_name,
    cyclic_letters,
    cyclic_variants,
    gen,
    inverse,
    product,
)


@dataclass(frozen=True)
class ACPresentation(Presentation):
    """Balanced presentation: equally many generators and relators."""

    def __post_init__(self) -> None:
        if len(self.generators) != len(self.relators):
            raise ValueError("presentation is not balanced")
        super().__post_init__()

    def is_empty(self) -> bool:
        return not self.generators

    def total_length(self) -> int:
        return sum(len(r) for r in self.relators)


@dataclass(frozen=True)
class Invert:
    i: int


@dataclass(frozen=True)
class Conjugate:
    """Replace R_i by g^sign . R_i . g^-sign."""

    i: int
    g: str
    sign: int


@dataclass(frozen=True)
class Multiply:
    """Replace R_i by R_i . R_j (i != j)."""

    i: int
    j: int


@dataclass(frozen=True)
class AddPair:
    """Introduce generator ``name`` and relator ``name . z``."""

    name: str
    z: Word


@dataclass(frozen=True)
class RemovePair:
    """Remove generator ``name`` whose relator is exactly ``name . z``
    with ``name`` occurring nowhere else."""

    name: str


ACMove = Union[Invert, Conjugate, Multiply, AddPair, RemovePair]


def kill_meridian(p: Presentation, g: str) -> ACPresentation:
    """Adjoin the relator ``g`` to a deficiency-1 presentation."""
    if deficiency(p) != 1:
        raise ValueError(f"deficiency is {deficiency(p)}, not 1")
    if g not in p.generators:
        raise ValueError(f"no generator {g!r}")
    return ACPresentation(p.generators, p.relators + (gen(g),))


def _check_index(i: int, n: int) -> None:
    if not 0 <= i < n:
        raise ValueError(f"relator index {i} out of range")


def apply_move(p: ACPresentation, m: ACMove) -> ACPresentation:
    n = len(p.relators)
    relators = list(p.relators)
    if isinstance(m, Invert):
        _check_index(m.i, n)
        relators[m.i] = inverse(relators[m.i])
        return ACPresentation(p.generators, tuple(relators))
    if isinstance(m, Conjugate):
        _check_index(m.i, n)
        if m.g not in p.generators:
            raise ValueError(f"no generator {m.g!r}")
        if m.sign not in (1, -1):
            raise ValueError("conjugation sign must be +-1")
        relators[m.i] = product(gen(m.g, m.sign), relators[m.i], gen(m.g, -m.sign))
        return ACPresentation(p.generators, tuple(relators))
    if isinstance(m, Multiply):
        _check_index(m.i, n)
        _check_index(m.j, n)
        if m.i == m.j:
            raise ValueError("Multiply needs distinct relators")
        relators[m.i] = product(relators[m.i], relators[m.j])
        return ACPresentation(p.generators, tuple(relators))
    if isinstance(m, AddPair):
        check_generator_name(m.name)
        if m.name in p.generators:
            raise ValueError(f"generator {m.name!r} already present")
        if m.name in m.z.generators():
            raise ValueError("pair word mentions the new generator")
        unknown = m.z.generators() - set(p.generators)
        if unknown:
            raise ValueError(f"pair word uses unknown generators {sorted(unknown)}")
        return ACPresentation(
            p.generators + (m.name,),
            p.relators + (product(gen(m.name), m.z),),
        )
    if isinstance(m, RemovePair):
        idx = _removable_at(p, m.name)
        if idx is None:
            raise ValueError(f"no relator of the form {m.name} . z with {m.name!r} occurring once")
        generators = tuple(g for g in p.generators if g != m.name)
        relators = tuple(r for k, r in enumerate(p.relators) if k != idx)
        return ACPresentation(generators, relators)
    raise TypeError(f"unknown move {m!r}")


def _removable_at(p: ACPresentation, name: str) -> Optional[int]:
    """Index of the relator witnessing that (name, z) is removable:
    the relator starts with ``name`` (exponent +1) and ``name`` occurs
    nowhere else in the presentation."""
    if name not in p.generators:
        return None
    occurrences = [
        (k, r) for k, r in enumerate(p.relators) if name in r.generators()
    ]
    if len(occurrences) != 1:
        return None
    k, r = occurrences[0]
    syl = r.syllables
    if syl and syl[0] == (name, 1) and all(g != name for g, _ in syl[1:]):
        return k
    return None


def apply_moves(p: ACPresentation, moves: Sequence[ACMove]) -> ACPresentation:
    for m in moves:
        p = apply_move(p, m)
    return p


def canonical_form(p: ACPresentation) -> tuple:
    """Hashable key invariant under relator inversion, cyclic rotation
    and relator reordering.

    Generators are numbered in order of first appearance in the sorted
    least rotations, which are compared by name first.  So the key is
    not invariant under renaming generators: ``(a b^2, b)`` and its
    a <-> b renaming ``(b a^2, a)`` get different keys.
    """
    reduced = sorted(min(cyclic_variants(cyclic_letters(r)), default=()) for r in p.relators)
    rename: dict[str, int] = {}
    keyed = tuple(
        tuple((rename.setdefault(g, len(rename)), s) for g, s in letters)
        for letters in reduced
    )
    return (len(p.generators), keyed)


@dataclass(frozen=True)
class Found:
    moves: tuple[ACMove, ...]


@dataclass(frozen=True)
class Exhausted:
    pass


@dataclass(frozen=True)
class Budget:
    pass


SearchOutcome = Union[Found, Exhausted, Budget]


def removal_plan(p: ACPresentation) -> Optional[tuple[ACMove, ...]]:
    """Explicit move list (Invert/Conjugate rotations + RemovePair) that
    empties ``p`` by repeated pair removal, or None when stuck.

    A pair is ripe when its generator occurs exactly once in the whole
    presentation; rotations by single-letter conjugation then expose the
    literal ``name . z`` pattern that RemovePair demands.
    """
    moves: list[ACMove] = []
    while not p.is_empty():
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
        # Rotate until the relator starts with the ripe generator.
        guard = 0
        while p.relators[k].syllables[0][0] != ripe:
            g0, e0 = p.relators[k].syllables[0]
            moves.append(Conjugate(k, g0, -1 if e0 > 0 else 1))
            p = apply_move(p, moves[-1])
            guard += 1
            if guard > 4 * len(p.relators[k]) + 4:
                return None  # defensive; rotation must terminate
        moves.append(RemovePair(ripe))
        p = apply_move(p, moves[-1])
    return tuple(moves)


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


def ac_trivialize_search(
    p: ACPresentation,
    max_total_length: int,
    max_depth: int,
) -> SearchOutcome:
    """Bounded breadth-first search for an AC trivialization.

    ``Found`` carries a primitive move list, replay-verified before it
    is returned.  Conjugations are enumerated by single letters only
    (longer conjugations compose); ``AddPair`` is never enumerated, so
    exhaustion is relative to this restricted alphabet.  Deterministic
    (fixed expansion order).
    """
    if max_total_length < 1 or max_depth < 1:
        raise ValueError("bounds must be positive")
    if p.total_length() > max_total_length:
        return Budget()

    seen = {canonical_form(p)}
    frontier: list[tuple[ACPresentation, tuple[ACMove, ...]]] = [(p, ())]
    truncated = False

    plan = removal_plan(p)
    if plan is not None:
        return _verified_found(p, plan)

    for _depth in range(max_depth):
        if not frontier:
            break
        next_frontier: list[tuple[ACPresentation, tuple[ACMove, ...]]] = []
        for node, path in frontier:
            succs, pruned = _successors(node, max_total_length)
            truncated = truncated or pruned
            for moves, q in succs:
                key = canonical_form(q)
                if key in seen:
                    continue
                seen.add(key)
                full = path + moves
                plan = removal_plan(q)
                if plan is not None:
                    return _verified_found(p, full + plan)
                next_frontier.append((q, full))
        frontier = next_frontier
    if frontier:
        truncated = True  # depth bound hit with unexplored states
    return Budget() if truncated else Exhausted()


def _verified_found(p: ACPresentation, moves: tuple[ACMove, ...]) -> Found:
    if not verify_move_sequence(p, moves):
        raise AssertionError("search produced a non-replayable move list")
    return Found(moves)


def verify_move_sequence(p: ACPresentation, moves: Sequence[ACMove]) -> bool:
    """True iff the moves all apply in order and the terminal state is
    empty after maximal pair removal."""
    try:
        q = apply_moves(p, moves)
    except (ValueError, TypeError):
        return False
    while True:
        name = next((g for g in q.generators if _removable_at(q, g) is not None), None)
        if name is None:
            break
        q = apply_move(q, RemovePair(name))
    return q.is_empty()


def format_moves(moves: Sequence[ACMove]) -> str:
    """Move list text, one move per line; relator indices are 1-based."""
    lines = []
    for m in moves:
        if isinstance(m, Invert):
            lines.append(f"inv {m.i + 1}")
        elif isinstance(m, Conjugate):
            lines.append(f"conj {m.i + 1} {m.g} {m.sign}")
        elif isinstance(m, Multiply):
            lines.append(f"mul {m.i + 1} {m.j + 1}")
        elif isinstance(m, AddPair):
            lines.append(f"add {m.name} {m.z}".rstrip())
        elif isinstance(m, RemovePair):
            lines.append(f"rm {m.name}")
        else:
            raise TypeError(f"unknown move {m!r}")
    return "\n".join(lines) + ("\n" if lines else "")
