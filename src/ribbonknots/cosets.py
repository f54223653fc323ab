"""Bounded Todd-Coxeter coset enumeration (HLT strategy).

Used to certify triviality of killed-meridian quotients and for small
index sanity checks.  Enumeration is deterministic: cosets are defined
in scan order, relators are scanned in presentation order, and
coincidences are processed immediately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .presentations import Presentation
from .words import Word, gen


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


def _flip(letter: int) -> int:
    return letter ^ 1


class _Table:
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
            back = self.get(b, _flip(letter))
            if back is None:
                self.rows[self.find(b)][_flip(letter)] = a
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
                    back = self.get(v, _flip(letter))
                    if back is None:
                        self.rows[self.find(v)][_flip(letter)] = a
                    elif back != a:
                        queue.append((back, a))
                elif cur != v:
                    queue.append((cur, v))

    def live_cosets(self) -> list[int]:
        return [i for i in range(len(self.rows)) if self.find(i) == i]


def _letters(w: Word, gen_index: dict[str, int]) -> list[int]:
    return [2 * gen_index[g] + (0 if s > 0 else 1) for g, s in w.letters()]


def todd_coxeter(
    p: Presentation, subgroup: Sequence[Word] = (), max_cosets: int = 10_000
) -> CosetTable:
    """Enumerate cosets of the subgroup generated by ``subgroup`` words.

    Returns a closed table with the exact index, or an overflow value
    once more than ``max_cosets`` cosets would be needed.  Overflow is a
    result, not an error.
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

    table = _Table(2 * len(gens), max_cosets)
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
                prev = table.get(b, _flip(letters[bi - 1]))
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


def weight_one_certificate(
    p: Presentation, generator: str, max_cosets: int = 10_000
) -> str:
    """``"certified"`` iff killing the generator provably trivializes the
    group within the coset budget; ``"inconclusive"`` on overflow.

    Triviality checking is only semi-decidable, so there is no
    "refuted" outcome.
    """
    if generator not in p.generators:
        raise ValueError(f"no generator {generator!r}")
    killed = Presentation(p.generators, p.relators + (gen(generator),))
    table = todd_coxeter(killed, (), max_cosets)
    if table.closed and table.n_cosets == 1:
        return "certified"
    return "inconclusive"
