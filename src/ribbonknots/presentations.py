"""Finite group presentations, Tietze moves, and Wirtinger/LOT structure.

A relator ``w`` means ``w = 1``; equations ``u = v`` are stored as
``u v^-1``.  Relators are kept freely reduced; consumers that need
cyclic reduction (Wirtinger recognition, AC moves) apply it themselves,
since it never changes the group.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Optional, Sequence, Union

from .intlinalg import AbelianGroupInvariants, cokernel_invariants
from .words import (
    Word,
    check_generator_name,
    cyclic_letters,
    gen,
    input_lines,
    inverse,
    normalize,
    parse_int,
    parse_word,
    product,
    substitute,
)


@dataclass(frozen=True)
class Presentation:
    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self) -> None:
        seen = set()
        for g in self.generators:
            check_generator_name(g)
            if g in seen:
                raise ValueError(f"duplicate generator {g!r}")
            seen.add(g)
        for r in self.relators:
            unknown = r.generators() - seen
            if unknown:
                raise ValueError(f"relator uses unknown generators {sorted(unknown)}")


@dataclass(frozen=True)
class LOGEdge:
    origin: str
    terminus: str
    label: Word


@dataclass(frozen=True)
class LOG:
    """Labeled oriented graph extracted from a Wirtinger presentation."""

    vertices: tuple[str, ...]
    edges: tuple[LOGEdge, ...]
    is_tree: bool


@dataclass(frozen=True)
class NotWirtinger:
    """Rejection value for :func:`is_wirtinger`."""

    reason: str


def deficiency(p: Presentation) -> int:
    return len(p.generators) - len(p.relators)


def exponent_rows(p: Presentation) -> list[dict[int, int]]:
    """Relator exponent sums, one sparse row ``{generator index: sum}``
    per relator; a sum may be 0."""
    column = {g: j for j, g in enumerate(p.generators)}
    rows: list[dict[int, int]] = [{} for _ in p.relators]
    for row, r in zip(rows, p.relators):
        for g, e in r.syllables:
            row[column[g]] = row.get(column[g], 0) + e
    return rows


def abelianization(p: Presentation) -> AbelianGroupInvariants:
    return cokernel_invariants(exponent_rows(p), len(p.generators))


def weight_vector(p: Presentation) -> tuple[int, ...]:
    """Images of the generators under the projection to the infinite
    cyclic quotient; requires abelianization = Z.

    The weights generate the integer kernel of the exponent rows, a rank-1
    lattice.  From the unit vectors, Euclid on each row's values (a column
    index finds them) by moves b_i -= q b_k, b_k shortest of least value,
    leaves one vector with a value, which is dropped.  The rows are then
    triangular, so if each dropped value is ±1 and one vector is left, H1
    is Z.  The first nonzero weight is made positive."""
    basis = {j: {j: 1} for j in range(len(p.generators))}
    near, units = {j: {j} for j in basis}, True  # column -> vectors with an entry there
    for row in exponent_rows(p):
        values = {i: v for i in set().union(*(near[j] for j in row))
                  if i in basis and (v := sum(basis[i].get(j, 0) * x for j, x in row.items()))}
        while len(values) > 1:
            k = min(values, key=lambda i: (abs(values[i]), len(basis[i])))
            for i in values.keys() - {k}:
                q = values[i] // values[k]
                for j, c in basis[k].items():
                    basis[i][j] = basis[i].get(j, 0) - q * c
                    near[j].add(i)
                values[i] -= q * values[k]
            values = {i: v for i, v in values.items() if v}
        for i, v in values.items():
            units = units and v in (1, -1)
            del basis[i]
    if (len(basis) != 1 or not units) and (inv := abelianization(p)) != AbelianGroupInvariants(1):
        raise ValueError(f"abelianization is {inv}, not Z")
    (kernel,) = basis.values()
    sign = -1 if kernel[min(j for j, w in kernel.items() if w)] < 0 else 1
    return tuple(sign * kernel.get(j, 0) for j in range(len(p.generators)))


def _match_wirtinger(letters: Sequence[tuple[str, int]]) -> Optional[tuple[str, str, Word]]:
    """Find the pattern g_j . w . g_i^-1 . w^-1 in a cyclic word.

    With n letters and h = n/2 - 1, a rotation of the word or of its
    inverse has this form iff, at some centre p, letters p and p+h+1
    have opposite signs and letter p+d is inverse to letter p-d for
    d = 1..h (indices mod n).  Both orientations give terminus, origin
    and label = letter p, letter p+h+1 and letters p+1..p+h.  Each
    centre stops at its first failed pair, and in a stretch of period P
    no centre reaches radius P (letter p would be its own inverse).
    Returns the match with least (origin, terminus, label text), or None.
    """
    n = len(letters)
    if n < 2 or n % 2 != 0:
        return None
    h = n // 2 - 1
    ring = tuple(letters) * 2
    inverted = tuple((g, -s) for g, s in letters)
    matches = []
    for p in range(n):
        if ring[p][1] == ring[p + h + 1][1]:
            continue
        d = 1
        while d <= h and ring[p + d] == inverted[p - d]:
            d += 1
        if d <= h:
            continue
        label = normalize(ring[p + 1 : p + h + 1])
        matches.append((ring[p + h + 1][0], ring[p][0], str(label), label))
    if not matches:
        return None
    origin, terminus, _, label = min(matches, key=lambda m: m[:3])
    return origin, terminus, label


def is_wirtinger(p: Presentation) -> Union[LOG, NotWirtinger]:
    """Recognize a Wirtinger presentation and extract its LOG.

    Succeeds iff every relator, up to cyclic rotation and inversion, has
    the form ``g_j w g_i^-1 w^-1`` with g_i, g_j generators; each relator
    takes one scan over centres (:func:`_match_wirtinger`).
    """
    edges = []
    for idx, r in enumerate(p.relators):
        match = _match_wirtinger(cyclic_letters(r))
        if match is None:
            return NotWirtinger(f"relator {idx} ({r}) is not a conjugation relation")
        origin, terminus, label = match
        edges.append(LOGEdge(origin, terminus, label))
    is_tree = deficiency(p) == 1 and _spans_tree(p.generators, edges)
    return LOG(tuple(p.generators), tuple(edges), is_tree)


def _spans_tree(vertices: Sequence[str], edges: Sequence[LOGEdge]) -> bool:
    parent = {v: v for v in vertices}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edges:
        a, b = find(e.origin), find(e.terminus)
        if a == b:
            return False  # undirected cycle
        parent[a] = b
    return True


def expand_length1(p: Presentation) -> Presentation:
    """Tietze-expand a Wirtinger presentation until every edge label is a
    single generator with exponent +1.

    Fresh generators take the unused names of ``v1, v2, ...``; negative
    single-letter labels are handled by reversing the edge instead of
    expanding.
    """
    log = is_wirtinger(p)
    if isinstance(log, NotWirtinger):
        raise ValueError(f"not a Wirtinger presentation: {log.reason}")
    generators = list(p.generators)
    fresh = _fresh_names("v", generators)
    queue = [(e.origin, e.terminus, list(e.label.letters())) for e in log.edges]
    done: list[tuple[str, str, Word]] = []
    while queue:
        origin, terminus, letters = queue.pop(0)
        if len(letters) <= 1:
            if letters and letters[0][1] == -1:
                # terminus = a^-1 origin a  becomes  origin = a terminus a^-1.
                g = letters[0][0]
                done.append((terminus, origin, gen(g)))
            else:
                done.append((origin, terminus, normalize(letters)))
            continue
        head, rest = letters[0], letters[1:]
        v = next(fresh)
        generators.append(v)
        queue.append((origin, v, rest))
        queue.append((v, terminus, [head]))
    relators = tuple(
        product(gen(terminus), label, gen(origin, -1), inverse(label))
        for origin, terminus, label in done
    )
    return Presentation(tuple(generators), relators)


def _fresh_names(prefix: str, taken: Iterable[str]):
    """``prefix1``, ``prefix2``, ... without the names in ``taken``."""
    used, i = set(taken), 0
    while True:
        i += 1
        if (name := f"{prefix}{i}") not in used:
            yield name


def introduce_generator(p: Presentation, name: str, defining: Word) -> Presentation:
    """Tietze introduction: new generator ``name`` with relator
    ``name . defining^-1``."""
    check_generator_name(name)
    if name in p.generators:
        raise ValueError(f"generator {name!r} already present")
    unknown = defining.generators() - set(p.generators)
    if unknown:
        raise ValueError(f"defining word uses unknown generators {sorted(unknown)}")
    relator = product(gen(name), inverse(defining))
    return Presentation(p.generators + (name,), p.relators + (relator,))


def eliminate_generator(
    p: Presentation, target: str, replacement: Word, relator_index: int
) -> Presentation:
    """Tietze elimination: substitute ``replacement`` for ``target`` in
    every relator and drop the designated defining relator.

    The designated relator is taken on trust as asserting
    ``target = replacement`` (derivability is undecidable in general);
    the substitution then yields a presentation of the same group.
    """
    if target not in p.generators:
        raise ValueError(f"no generator {target!r}")
    if target in replacement.generators():
        raise ValueError("replacement word mentions the eliminated generator")
    if not 0 <= relator_index < len(p.relators):
        raise ValueError(f"relator index {relator_index} out of range")
    unknown = replacement.generators() - set(p.generators)
    if unknown:
        raise ValueError(f"replacement uses unknown generators {sorted(unknown)}")
    generators = tuple(g for g in p.generators if g != target)
    relators = tuple(
        substitute(r, {target: replacement})
        for i, r in enumerate(p.relators)
        if i != relator_index
    )
    return Presentation(generators, relators)


# DOT keywords (case-insensitive); a node ID spelled like one must be quoted.
_DOT_KEYWORDS = {"digraph", "edge", "graph", "node", "strict", "subgraph"}


def _dot_id(name: str) -> str:
    return f'"{name}"' if name.lower() in _DOT_KEYWORDS else name


def dot_export(g: LOG) -> str:
    """Render the LOG as a DOT digraph; edge labels are word text."""
    lines = ["digraph {"]
    for v in g.vertices:
        lines.append(f"  {_dot_id(v)};")
    for e in g.edges:
        lines.append(f'  {_dot_id(e.origin)} -> {_dot_id(e.terminus)} [label="{e.label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_presentation(text: str) -> Presentation:
    """Parse the presentation file format.

    Comment lines start with ``#``; one ``gens`` line lists generator
    names; each ``rel`` line is a word, or ``<word> = <word>`` stored as
    ``u v^-1``.
    """
    generators: Optional[tuple[str, ...]] = None
    relators: list[Word] = []
    for line in input_lines(text):
        head = line.split(None, 1)[0]
        rest = line[len(head) :]
        if head == "gens":
            if generators is not None:
                raise ValueError("multiple gens lines")
            generators = tuple(rest.split())
        elif head == "rel":
            if "=" in rest:
                left, _, right = rest.partition("=")
                relators.append(product(parse_word(left), inverse(parse_word(right))))
            else:
                relators.append(parse_word(rest))
        else:
            raise ValueError(f"unrecognized line {line!r}")
    if generators is None:
        raise ValueError("missing gens line")
    return Presentation(generators, tuple(relators))


def format_presentation(p: Presentation) -> str:
    lines = ["gens " + " ".join(p.generators)]
    lines.extend(f"rel {r}".rstrip() for r in p.relators)
    return "\n".join(lines) + "\n"


def parse_tietze_script(text: str) -> tuple[Callable[[Presentation], Presentation], ...]:
    """Parse each line, ``intro <name> <word>`` or ``elim <name> <word>
    <relator-index>`` (an empty word is 1), to the move it names: the
    introduction or elimination with the line's arguments."""
    steps = []
    for line in input_lines(text):
        tokens = line.split()
        if tokens[0] == "intro":
            if len(tokens) < 2:
                raise ValueError(f"bad intro line {line!r}")
            steps.append(partial(introduce_generator, name=tokens[1],
                                 defining=parse_word(" ".join(tokens[2:]))))
        elif tokens[0] == "elim":
            if len(tokens) < 3:
                raise ValueError(f"bad elim line {line!r}")
            try:
                index = parse_int(tokens[-1])
            except ValueError:
                raise ValueError(f"bad relator index in {line!r}")
            steps.append(partial(eliminate_generator, target=tokens[1],
                                 replacement=parse_word(" ".join(tokens[2:-1])), relator_index=index))
        else:
            raise ValueError(f"unrecognized script line {line!r}")
    return tuple(steps)


def apply_tietze_script(
    p: Presentation, steps: Sequence[Callable[[Presentation], Presentation]]
) -> Presentation:
    for step in steps:
        p = step(p)
    return p
