"""Bounded Todd-Coxeter coset enumeration (HLT strategy).

Used to certify triviality of killed-meridian quotients and for small
index sanity checks.  Enumeration is deterministic: cosets are defined
in scan order, each with its entries for the letters of one-letter
relators already pointing to itself, relators are scanned in
presentation order, and coincidences are processed immediately.

The table is flat: ``rows[c][x]`` is the coset ``c . x`` or ``-1``,
where letter ``x = 2*g`` is generator ``g`` and ``x ^ 1`` its inverse.
Between coincidences every live row names only live cosets, so scans
read entries directly and coset ``c`` is live iff ``rep[c] == c``.
Coincidences follow the COINCIDENCE and MERGE routines of Holt, Eick
and O'Brien, *Handbook of Computational Group Theory*, section 5.1, and
keep the smaller coset number of a merged pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .presentations import Presentation
from .words import IDENTITY, Word, substitute

MAX_COSETS = 10_000  # default bound on the cosets an enumeration defines


@dataclass(frozen=True)
class CosetTable:
    """Result of an enumeration.

    Closed tables carry the transitive action of the generators on
    cosets 0..n-1 (coset 0 is the subgroup itself); overflowed tables
    carry only the limit that was hit.
    """

    generators: tuple[str, ...]
    closed: bool
    n_cosets: int
    limit: int
    action: Optional[tuple[tuple[int, ...], ...]] = None  # [coset][2*gen + dir]


def _letters(w: Word, gen_index: dict[str, int]) -> list[int]:
    return [2 * gen_index[g] + (0 if s > 0 else 1) for g, s in w.letters()]


def todd_coxeter(
    p: Presentation, subgroup: Sequence[Word] = (), max_cosets: int = MAX_COSETS
) -> CosetTable:
    """Enumerate cosets of the subgroup generated by ``subgroup`` words.

    HLT order: scan the subgroup words at coset 0, then each live coset
    in turn through every relator with Holt's SCANANDFILL, defining
    cosets as needed, then fill its undefined entries.  A one-letter
    relator g^+-1 fixes each coset as it is defined: c.g = c.g^-1 = c.

    Returns a closed table with the exact index, or an overflow value
    once a coset beyond the ``max_cosets``-th would have to be defined.
    The bound counts every coset ever defined, including those later
    merged by a coincidence, so it is not a bound on the index.
    Overflow is a result, not an error.
    """
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

    n_letters = 2 * len(gens)
    loops = {word[0] ^ d for word in relator_letters if len(word) == 1 for d in (0, 1)}

    def new_row(c: int) -> list[int]:
        return [c if x in loops else -1 for x in range(n_letters)]
    rows: list[list[int]] = [new_row(0)]
    rep: list[int] = [0]
    overflow = CosetTable(gens, False, 0, max_cosets)

    def find(c: int) -> int:
        while rep[c] != c:
            rep[c] = rep[rep[c]]
            c = rep[c]
        return c

    def coincidence(a: int, b: int) -> None:
        """Identify cosets ``a`` and ``b`` and every pair that forces."""
        dead: list[int] = []

        def merge(k: int, l: int) -> None:
            k, l = find(k), find(l)
            if k != l:
                if k > l:
                    k, l = l, k
                rep[l] = k
                dead.append(l)

        merge(a, b)
        for gamma in dead:  # grows while it is read
            # Unlink each edge gamma . x = delta, then re-enter it between
            # representatives or merge the pair it forces.
            for x, delta in enumerate(rows[gamma]):
                if delta < 0:
                    continue
                rows[delta][x ^ 1] = -1
                mu, nu = find(gamma), find(delta)
                if rows[mu][x] >= 0:
                    merge(nu, rows[mu][x])
                elif rows[nu][x ^ 1] >= 0:
                    merge(mu, rows[nu][x ^ 1])
                else:
                    rows[mu][x] = nu
                    rows[nu][x ^ 1] = mu

    def define(f: int, x: int) -> bool:
        """Set ``f . x`` to a new coset; False if over the budget."""
        if len(rows) >= max_cosets:
            return False
        c = len(rows)
        rows.append(new_row(c))
        rep.append(c)
        rows[f][x] = c
        rows[c][x ^ 1] = f
        return True

    def scan_and_fill(start: int, word: list[int]) -> bool:
        """Holt's SCANANDFILL of ``word`` at ``start``; False on overflow."""
        f, i, b, j = start, 0, start, len(word)
        while True:
            while i < j and rows[f][word[i]] >= 0:
                f, i = rows[f][word[i]], i + 1
            while j > i and rows[b][word[j - 1] ^ 1] >= 0:
                b, j = rows[b][word[j - 1] ^ 1], j - 1
            if j == i:
                if f != b:
                    coincidence(f, b)
                return True
            x = word[i]
            if j == i + 1:
                rows[f][x], rows[b][x ^ 1] = b, f
                return True
            if not define(f, x):
                return False

    for word in subgroup_letters:
        if not scan_and_fill(0, word):
            return overflow

    i = 0
    while i < len(rows):
        for word in relator_letters:
            if rep[i] != i:
                break
            if not scan_and_fill(i, word):
                return overflow
        if rep[i] == i:
            for x in range(n_letters):
                if rows[i][x] < 0 and not define(i, x):
                    return overflow
        i += 1

    live = [c for c in range(len(rows)) if rep[c] == c]
    index = {c: k for k, c in enumerate(live)}
    action = tuple(tuple(index[d] for d in rows[c]) for c in live)
    return CosetTable(gens, True, len(live), max_cosets, action)


def weight_one_certificate(
    p: Presentation, generator: str, max_cosets: int = MAX_COSETS
) -> str:
    """``"certified"`` iff killing the generator provably trivializes the
    group within the coset budget; ``"inconclusive"`` on overflow.

    Enumerates on the other generators, with it set to 1 in each relator;
    triviality is only semi-decidable, so there is no "refuted" outcome.
    """
    if generator not in p.generators:
        raise ValueError(f"no generator {generator!r}")
    rest = tuple(g for g in p.generators if g != generator)
    killed = Presentation(rest, tuple(substitute(r, {generator: IDENTITY}) for r in p.relators))
    table = todd_coxeter(killed, (), max_cosets)
    if table.closed and table.n_cosets == 1:
        return "certified"
    return "inconclusive"
