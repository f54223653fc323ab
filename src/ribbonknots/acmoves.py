"""Andrews-Curtis moves on balanced presentations and bounded
trivialization search.

The move alphabet: invert a relator, conjugate a relator by a single
generator letter, multiply a relator by another on the right, and
remove a generator-relator pair ``(y, y z)``.  A balanced
presentation of the trivial group is AC-trivial when some finite move
sequence reaches the empty presentation; the search below explores
that reachability breadth-first under explicit bounds, reporting
``Budget`` (not a refutation) when the bounds clip the search.

The search runs on ``Packed`` states, relators as strings of letter
codes in (name, sign) order with their least rotations cached, keyed as
their ``Word`` relators would be (Havas-Ramsay, IJAC 2003).  Conjugate
factors are built once per relator.  A removal plan, spelled from the
code strings, is tried only on new states that a join cancelling letters
built; a candidate is keyed only when the outcome can depend on it, on
the never-expanded last level only against the candidates of its
relator lengths.  Only the path found is spelled out as moves, and
replayed on ``Word`` relators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

from .presentations import Presentation, deficiency
from .words import gen, inverse, product


@dataclass(frozen=True)
class ACPresentation(Presentation):
    """Balanced presentation: equally many generators and relators."""

    def __post_init__(self) -> None:
        if len(self.generators) != len(self.relators):
            raise ValueError("presentation is not balanced")
        super().__post_init__()

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
class RemovePair:
    """Remove generator ``name`` whose relator is exactly ``name . z``
    with ``name`` occurring nowhere else."""

    name: str


ACMove = Union[Invert, Conjugate, Multiply, RemovePair]


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


class Packed(NamedTuple):
    """A search state: each relator as a string of letter codes, and the
    least rotation of each, which ``canonical_form`` reads."""

    relators: tuple[str, ...]
    least: tuple[str, ...]


def pack(p: ACPresentation) -> Packed:
    """``p`` in letter codes: ``g^s`` (s = +-1) is ``chr(2 r + (s > 0))``
    for r the rank of ``g`` in sorted name order, so codes compare as
    ``(name, sign)`` pairs do and ``c ^ 1`` inverts code ``c``."""
    rank = {g: r for r, g in enumerate(sorted(p.generators))}
    relators = tuple("".join(chr(2 * rank[g] + (e > 0)) * abs(e) for g, e in r.syllables)
                     for r in p.relators)
    inv = {c: c ^ 1 for c in range(2 * len(rank))}  # translate table inverting each code
    return Packed(relators, tuple(_least_rotation(r, inv) for r in relators))


def _cyclic_core(s: str) -> str:
    """The cyclically reduced core of a freely reduced ``s``."""
    i, j = 0, len(s)
    while j - i >= 2 and ord(s[i]) ^ ord(s[j - 1]) == 1:
        i, j = i + 1, j - 1
    return s[i:j]


def _least_rotation(s: str, inv: dict[int, int]) -> str:
    """Least rotation of the cyclically reduced conjugate of ``s`` or of
    its inverse.  It starts with the least code, so only the rotations
    starting there, found by ``str.find``, are sliced and compared."""
    core = _cyclic_core(s)
    n = len(core)
    forward = core * 2
    backward = forward[::-1].translate(inv)
    least = min(forward + backward, default="")
    starts = []
    for w in (forward, backward):
        k = w.find(least)
        while 0 <= k < n:
            starts.append(w[k : k + n])
            k = w.find(least, k + 1)
    return min(starts, default="")


def canonical_form(least: Sequence[str]) -> tuple[str, ...]:
    """Hashable key of a state from the least rotation of every relator
    (``Packed.least``), invariant under relator inversion, cyclic
    rotation and relator reordering.

    Generators are renumbered in order of first appearance in the sorted
    least rotations, whose codes compare by name first.  So the key is
    not invariant under renaming generators: ``(a b^2, b)`` and its
    a <-> b renaming ``(b a^2, a)`` get different keys.
    """
    ordered = sorted(least)
    rename: dict[int, int] = {}
    table: dict[int, int] = {}
    for c in dict.fromkeys("".join(ordered)):
        o = ord(c)
        table[o] = 2 * rename.setdefault(o >> 1, len(rename)) + (o & 1)
    return tuple(r.translate(table) for r in ordered)


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


def removal_plan(generators: Sequence[str], relators: Sequence[str]) -> Optional[tuple[ACMove, ...]]:
    """Explicit move list (Invert/Conjugate rotations + RemovePair) that
    empties the presentation on ``generators`` with the packed
    ``relators`` (codes ranking the sorted names, as ``pack`` writes
    them) by repeated pair removal, or None when stuck.

    A pair is ripe when its generator occurs exactly once in the whole
    presentation; the first ripe generator in presentation order goes
    first.  Its relator is inverted if the letter is negative, then
    conjugated by each letter before it in turn, which rotates it to the
    front: the literal ``name . z`` pattern that RemovePair demands.  A
    rotation may cancel letters at the end, never the ripe one.
    """
    names = sorted(generators)
    inv = {c: c ^ 1 for c in range(2 * len(names))}
    letters = {g: (chr(2 * r + 1), chr(2 * r)) for r, g in enumerate(names)}
    gens, rels = list(generators), list(relators)
    moves: list[ACMove] = []
    while gens:
        state = "".join(rels)
        ripe = next((g for g in gens if sum(map(state.count, letters[g])) == 1), None)
        if ripe is None:
            return None
        x, x_inv = letters[ripe]
        k = next(i for i, r in enumerate(rels) if x in r or x_inv in r)
        r = rels.pop(k)
        if x_inv in r:
            moves.append(Invert(k))
            r = r[::-1].translate(inv)
        moves += [Conjugate(k, names[ord(c) >> 1], -1 if ord(c) & 1 else 1) for c in r[: r.index(x)]]
        moves.append(RemovePair(ripe))
        gens.remove(ripe)
    return tuple(moves)


def _reduced_product(a: str, b: str) -> str:
    """Free reduction of ``a . b`` for freely reduced ``a`` and ``b``."""
    k, m = 0, min(len(a), len(b))
    while k < m and ord(a[-1 - k]) ^ ord(b[k]) == 1:
        k += 1
    return a[: len(a) - k] + b[k:]


def _conjugate(c: str, w: str) -> str:
    """Free reduction of ``c . w . c^-1`` for a letter code ``c`` and freely reduced ``w``."""
    c_inv = chr(ord(c) ^ 1)
    w = w[1:] if w[:1] == c_inv else c + w
    return w[:-1] if w[-1:] == c else w + c_inv


def _compound_move(i: int, j: int, invert_j: bool, conj: tuple[str, int] | None) -> list[ACMove]:
    """Primitive moves for R_i *= c . R_j^e . c^-1; R_j is restored."""
    before: list[ACMove] = [] if conj is None else [Conjugate(j, conj[0], conj[1])]
    after: list[ACMove] = [] if conj is None else [Conjugate(j, conj[0], -conj[1])]
    if invert_j:
        before.append(Invert(j))
        after.insert(0, Invert(j))
    return before + [Multiply(i, j)] + after


MAX_NODES = 100_000  # default bound on the states an AC search keeps


def ac_trivialize_search(
    p: ACPresentation, max_total_length: int, max_depth: int, max_nodes: int = MAX_NODES
) -> SearchOutcome:
    """Bounded breadth-first search for an AC trivialization.

    A step sets R_i *= c . R_j^e . c^-1, looping over i, then j != i,
    then e = +1, -1, then c = none or a single letter (longer
    conjugations compose).  No generator-relator pair is ever introduced,
    so exhaustion is relative to this restricted alphabet.  Candidates
    longer than ``max_total_length`` in total are pruned; a pruned
    candidate or states left at ``max_depth`` give ``Budget``, not
    ``Exhausted``, and so does a candidate to key once ``max_nodes``
    states are kept.  ``Found`` carries a primitive move list,
    replay-verified on ``Word`` relators.  Deterministic.

    States are ``Packed``, so a candidate re-keys only the relator it
    changed.  Codes order letters as ``(name, sign)`` pairs do, so
    ``canonical_form`` partitions states as on ``Word`` relators, and
    the outcome and moves found are those of the ``Word``-based search.
    Paths are ``(i, j, e, c)`` steps, spelled as moves only when found.
    Each relator's factors w = c . R^e . c^-1 are built once, with their
    lengths, so a join R_i . w that cancels nothing is pruned by length
    before its string is built.  A removal plan needs a generator
    occurring once, and a join that cancels nothing has no plan: a
    generator occurs once in it only if it did in its state, which then
    had no plan, and pair removal is confluent.  So only a cancelling
    join with a generator occurring once is tried, if new; the others
    are queued unkeyed, and off the last level the queue is keyed in
    generation order before a tried candidate and at the level's end.
    The last level is never expanded, so there a tried key missing from
    ``seen`` is compared only with the queued candidates of its
    signature, the sorted cyclically reduced relator lengths, which
    equal keys share; while keying the whole queue could fill ``seen``,
    it is keyed in order instead.  That level's end, when nothing was
    pruned and no new state seen, keys the queue up to its first new
    state, which decides ``Budget`` against ``Exhausted``.  The search
    stops at the first level that keeps no new state, whatever
    ``max_depth`` is.
    """
    if max_total_length < 1 or max_depth < 1 or max_nodes < 1:
        raise ValueError("bounds must be positive")
    if p.total_length() > max_total_length:
        return Budget()
    start = pack(p)
    seen = {canonical_form(start.least)}
    plan = removal_plan(p.generators, start.relators)
    if plan is not None:
        return _verified_found(p, plan)

    names = sorted(p.generators)
    inv = {c: c ^ 1 for c in range(2 * len(names))}
    pairs = [(chr(2 * r), chr(2 * r + 1)) for r in range(len(names))]
    conjugators = [None] + [(g, s) for g in p.generators for s in (1, -1)]
    letters = [c and chr(2 * names.index(c[0]) + (c[1] > 0)) for c in conjugators]
    variants = [(e, c) for e in (False, True) for c in conjugators]
    cache: dict[str, list[tuple]] = {}  # relator -> its factors, in ``variants`` order

    def factors_of(r: str) -> list[tuple]:
        """(c . r^e . c^-1, its length, the code cancelling its first letter)."""
        ws = [u if c is None else _conjugate(c, u) for u in (r, r[::-1].translate(inv)) for c in letters]
        return [(w, len(w), w and chr(ord(w[0]) ^ 1)) for w in ws]

    queue: list = []  # (node, i, j, v, new) in generation order, None once keyed
    by_lengths: dict[tuple, list[int]] = {}  # last level: queue[:indexed] unkeyed, by signature
    indexed = 0

    def key_of(entry: tuple) -> tuple[tuple[str, ...], tuple[str, ...]]:
        ((_, least), _), i, _, _, new = entry
        keyed = least[:i] + (_least_rotation(new, inv),) + least[i + 1 :]
        return keyed, canonical_form(keyed)

    def settle(until_new: bool = False) -> bool:
        """Key the unkeyed queue into ``seen`` in order and empty it.  A new
        state sets ``grew`` and, off the last level, joins ``next_frontier``;
        on the last level ``until_new`` stops the keying at it.  True when
        the last state keyed was new."""
        nonlocal grew, full, indexed
        fresh = False
        for entry in filter(None, queue):
            if len(seen) == max_nodes:
                full, fresh = True, False
                break
            keyed, key = key_of(entry)
            fresh = key not in seen
            if fresh:
                seen.add(key)
                grew = True
                if not leaf:
                    ((relators, _), path), i, j, v, new = entry
                    next_frontier.append((Packed(relators[:i] + (new,) + relators[i + 1 :], keyed),
                                          path + ((i, j, *variants[v]),)))
                elif until_new:
                    break
        queue.clear()
        by_lengths.clear()
        indexed = 0
        return fresh

    def is_new() -> bool:
        """Whether the state queued last is new.  On the last level, unless
        keying the queue could fill ``seen``, only the queued candidates of
        its signature are keyed, and only if ``seen`` lacks its key."""
        nonlocal grew, indexed
        if not leaf or len(seen) + len(queue) >= max_nodes:
            return settle()
        keyed, key = key_of(queue.pop())
        if key in seen:
            return False
        grew = True
        for k in range(indexed, len(queue)):  # unkeyed, as keying only reaches indexed entries
            ((_, least), _), i, _, _, new = queue[k]
            lengths = sorted([*map(len, least[:i] + least[i + 1 :]), len(_cyclic_core(new))])
            by_lengths.setdefault(tuple(lengths), []).append(k)
        indexed = len(queue)
        for k in by_lengths.pop(tuple(sorted(map(len, keyed))), ()):
            seen.add(key_of(queue[k])[1])
            queue[k] = None
        fresh = key not in seen
        seen.add(key)
        return fresh

    frontier: list[tuple[Packed, tuple]] = [(start, ())]
    truncated = grew = full = False
    for depth in range(max_depth):
        if not frontier:
            break
        leaf = depth == max_depth - 1
        next_frontier: list[tuple[Packed, tuple]] = []
        grew = False
        for node in frontier:
            if full:
                return Budget()
            relators = node[0].relators
            factors = [cache.get(r) or cache.setdefault(r, factors_of(r)) for r in relators]
            room = max_total_length - sum(map(len, relators))
            for i, r_i in enumerate(relators):
                last = r_i[-1:]
                others = "".join(relators[:i] + relators[i + 1 :])
                for j, fs in enumerate(factors):
                    if i == j:
                        continue
                    for v, (w, size, cancel) in enumerate(fs):
                        if cancel == last:
                            size = len(new := _reduced_product(r_i, w)) - len(r_i)
                        if size > room:
                            truncated = True
                            continue
                        if cancel != last:  # never ripe, so never tried
                            queue.append((node, i, j, v, r_i + w))
                            continue
                        queue.append((node, i, j, v, new))
                        state = others + new
                        if 1 not in [state.count(a) + state.count(b) for a, b in pairs] or not is_new():
                            continue
                        plan = removal_plan(p.generators, relators[:i] + (new,) + relators[i + 1 :])
                        if plan is not None:
                            steps = node[1] + ((i, j, *variants[v]),)
                            moves = [m for step in steps for m in _compound_move(*step)]
                            return _verified_found(p, tuple(moves) + plan)
        if not leaf or not (truncated or grew):
            settle(until_new=leaf)
        frontier = next_frontier
    return Budget() if truncated or grew or full else Exhausted()


def _verified_found(p: ACPresentation, moves: tuple[ACMove, ...]) -> Found:
    if not verify_move_sequence(p, moves):
        raise AssertionError("search produced a non-replayable move list")
    return Found(moves)


def verify_move_sequence(p: ACPresentation, moves: Sequence[ACMove]) -> bool:
    """True iff the moves all apply in order and leave the empty
    presentation."""
    try:
        return not apply_moves(p, moves).generators
    except (ValueError, TypeError):
        return False


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
        elif isinstance(m, RemovePair):
            lines.append(f"rm {m.name}")
        else:
            raise TypeError(f"unknown move {m!r}")
    return "\n".join(lines) + ("\n" if lines else "")
