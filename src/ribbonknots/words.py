"""Free-group words, free reduction, and generator substitution.

Generators are plain name strings (letters/digits/underscore, starting
with a letter).  A :class:`Word` is a freely reduced run-length sequence
of ``(generator, exponent)`` syllables; the empty sequence is the
identity.  All values are immutable and all operations are pure.

Names are checked where they enter, not per syllable: :func:`parse_word`
checks each name once per word and ``presentations.Presentation`` its generators.
A ``Word`` checks only that it is reduced; one naming anything but a
generator is rejected when it joins a presentation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

GENERATOR_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


def check_generator_name(name: str) -> str:
    if not isinstance(name, str) or not GENERATOR_NAME.match(name):
        raise ValueError(f"invalid generator name {name!r}")
    return name


def parse_int(token: str) -> int:
    """An input integer: an optional '-', then decimal digits only."""
    if not token.removeprefix("-").isdecimal():
        raise ValueError(f"invalid integer {token!r}")
    return int(token)


def input_lines(text: str) -> list[str]:
    """The lines of an input file, stripped, without ``#`` comments and
    blank lines."""
    return [ln for ln in (raw.split("#", 1)[0].strip() for raw in text.splitlines()) if ln]


@dataclass(frozen=True)
class Word:
    """A freely reduced word in named free-group generators."""

    syllables: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        prev = None
        for gen, exp in self.syllables:
            if exp == 0:
                raise ValueError("zero exponent in reduced word")
            if gen == prev:
                raise ValueError("adjacent syllables share a generator")
            prev = gen

    def __len__(self) -> int:
        """Letter length (sum of |exponents|)."""
        return sum(abs(e) for _, e in self.syllables)

    def letters(self) -> Iterator[tuple[str, int]]:
        """Yield single-letter syllables ``(gen, +1 or -1)``."""
        for gen, exp in self.syllables:
            sign = 1 if exp > 0 else -1
            for _ in range(abs(exp)):
                yield gen, sign

    def generators(self) -> set[str]:
        return {gen for gen, _ in self.syllables}

    def __str__(self) -> str:
        return " ".join(
            gen if exp == 1 else f"{gen}^{exp}" for gen, exp in self.syllables
        )


IDENTITY = Word()


def normalize(raw: Iterable[tuple[str, int]]) -> Word:
    """Freely reduce a raw syllable sequence.

    Zero exponents are dropped; adjacent syllables with equal generators
    merge (and vanish when their exponents cancel).  Idempotent.
    """
    stack: list[tuple[str, int]] = []
    for gen, exp in raw:
        if exp == 0:
            continue
        if stack and stack[-1][0] == gen:
            merged = stack[-1][1] + exp
            stack.pop()
            if merged != 0:
                stack.append((gen, merged))
        else:
            stack.append((gen, exp))
    return Word(tuple(stack))


def gen(name: str, exp: int = 1) -> Word:
    return normalize([(name, exp)])


def product(*words: Word) -> Word:
    out: list[tuple[str, int]] = []
    for w in words:
        out.extend(w.syllables)
    return normalize(out)


def inverse(a: Word) -> Word:
    return Word(tuple((gen, -exp) for gen, exp in reversed(a.syllables)))


def power(a: Word, n: int) -> Word:
    if n < 0:
        return power(inverse(a), -n)
    return normalize(a.syllables * n)


def cyclic_letters(w: Word) -> tuple[tuple[str, int], ...]:
    """Letters of a cyclically reduced conjugate of ``w``: matching
    inverse letters are peeled off both ends."""
    letters = tuple(w.letters())
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i] == (letters[j - 1][0], -letters[j - 1][1]):
        i += 1
        j -= 1
    return letters[i:j]


def substitute(w: Word, images: Mapping[str, Word]) -> Word:
    """Replace each generator by its image and freely reduce; generators
    missing from ``images`` stay as they are."""
    out: list[tuple[str, int]] = []
    for g, e in w.syllables:
        img = images.get(g)
        if img is None:
            out.append((g, e))
        else:
            out.extend((img if e > 0 else inverse(img)).syllables * abs(e))
    return normalize(out)


def parse_word(text: str) -> Word:
    """Parse whitespace-separated ``name`` / ``name^k`` tokens.

    The empty token list is the identity.
    """
    raw: list[tuple[str, int]] = []
    checked: set[str] = set()
    for token in text.split():
        if "^" in token:
            name, _, exp_text = token.partition("^")
            try:
                exp = parse_int(exp_text)
            except ValueError:
                raise ValueError(f"bad exponent in token {token!r}")
        else:
            name, exp = token, 1
        if name not in checked:
            checked.add(check_generator_name(name))
        if exp == 0:
            raise ValueError(f"zero exponent in token {token!r}")
        raw.append((name, exp))
    return normalize(raw)
