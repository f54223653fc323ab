import random
import sys

import pytest

from ribbonknots import presentations
from ribbonknots.constructions import realize_cyclic
from ribbonknots.intlinalg import AbelianGroupInvariants
from ribbonknots.fox import alexander_polynomial
from ribbonknots.laurent import from_coeffs
from ribbonknots.presentations import (
    LOG,
    NotWirtinger,
    Presentation,
    _match_wirtinger,
    abelianization,
    apply_tietze_script,
    deficiency,
    dot_export,
    eliminate_generator,
    expand_length1,
    exponent_rows,
    format_presentation,
    introduce_generator,
    is_wirtinger,
    parse_presentation,
    parse_tietze_script,
    weight_vector,
)
from ribbonknots.words import (
    IDENTITY,
    cyclic_letters,
    gen,
    inverse,
    normalize,
    parse_word,
    power,
    product,
)
from reference import (
    count_calls,
    dense,
    eq_up_to_unit,
    expanded_cyclic_form,
    exponent_sums,
    match_wirtinger_reference,
)

TREFOIL = parse_presentation(
    """
gens a b c
rel a = b c b^-1
rel b = c a c^-1
"""
)


def test_validation():
    with pytest.raises(ValueError):
        Presentation(("x", "x"), ())
    with pytest.raises(ValueError):
        Presentation(("x",), (gen("y"),))


def test_deficiency_and_abelianization():
    assert deficiency(TREFOIL) == 1
    assert abelianization(TREFOIL) == AbelianGroupInvariants(1)
    klein = parse_presentation("gens a b\nrel a b a b^-1")
    assert abelianization(klein) == AbelianGroupInvariants(1, (2,))


def test_exponent_rows_match_exponent_sums():
    rng = random.Random(14)
    repeated = 0
    for _ in range(300):
        gens = tuple(f"g{i}" for i in range(rng.randint(1, 5)))
        relators = tuple(
            normalize((rng.choice(gens), rng.choice([-2, -1, 1, 2])) for _ in range(rng.randint(0, 12)))
            for _ in range(rng.randint(0, 5))
        )
        # a relator meeting one generator in several syllables
        repeated += any(len(r.syllables) > len(r.generators()) for r in relators)
        m = dense(exponent_rows(Presentation(gens, relators)), len(gens))
        assert list(m.entries) == [exponent_sums(r, gens) for r in relators]
    assert repeated > 150


def test_weight_vector():
    assert weight_vector(TREFOIL) == (1, 1, 1)
    p = parse_presentation("gens t u\nrel u^-1 t u t u^-1 t^-1")
    assert weight_vector(p) == (1, 1)
    yoshikawa = parse_presentation(
        "gens b t\nrel b^-3 t^-1 b^4 t b^-3 t^-1 b^4 t b^-3"
    )
    assert weight_vector(yoshikawa) == (0, 1)
    with pytest.raises(ValueError, match=r"^abelianization is Z \+ Z/2, not Z$"):
        weight_vector(parse_presentation("gens a b\nrel a b a b^-1"))


def test_weight_vector_takes_a_cokernel_only_where_a_pivot_is_not_a_unit(monkeypatch):
    # Dropped with values ±1, the kernel reduction itself shows H1 = Z.
    # a^2 b^-2 drops a vector with value 2, so H1 is computed: Z, since
    # the second relator is half the first.
    calls, _ = count_calls(monkeypatch, presentations.abelianization)
    assert weight_vector(TREFOIL) == (1, 1, 1) and not calls
    assert weight_vector(expanded_cyclic_form(5))[:2] == (1, 1) and not calls
    assert weight_vector(parse_presentation("gens a b\nrel a^2 b^-2\nrel a b^-1")) == (1, 1)
    assert len(calls) == 1
    # The first row drops a's vector with value -2, so the Euclid pass
    # cannot show H1 = Z; yet it is (a = 0 by a^-2 and a^3, then c = 0),
    # which only the cokernel shows: the fallback stays.
    p = parse_presentation("gens a b c\nrel a^-2\nrel b^-1 c b\nrel b^3 c^7 b^-3 a^3")
    assert weight_vector(p) == (0, 1, 0)
    assert len(calls) == 2


def lines_executed(f, *args) -> int:
    """Line events in frames of ``f``'s source file while ``f(*args)``
    runs: a count of its work, comprehensions included, that does not
    depend on the machine."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    def start(frame, event, arg):
        return local if frame.f_code.co_filename == f.__code__.co_filename else None

    previous = sys.gettrace()
    sys.settrace(start)
    try:
        f(*args)
    finally:
        sys.settrace(previous)
    return count


def test_weight_vector_work_is_linear_on_expanded_cyclic_forms():
    # The expand_length1 forms of cyclic realizations of degree 5 -> 40
    # (109 -> 815 generators): 7,253, 13,823, 27,487 and 54,559 lines, up
    # 1.9-2.0x per doubling.  Scanning the whole basis for each row made
    # 11,953, 32,882, 107,234, 377,314 (2.8-3.5x), and moving the first
    # vector of least value, not the shortest, 27,122 -> 1,246,204 (3.3-3.8x).
    ladder = [lines_executed(weight_vector, expanded_cyclic_form(d)) for d in (5, 10, 20, 40)]
    assert all(b <= 2.2 * a for a, b in zip(ladder, ladder[1:])), ladder


def test_wirtinger_recognition():
    log = is_wirtinger(TREFOIL)
    assert isinstance(log, LOG)
    assert log.is_tree
    assert len(log.edges) == 2
    bad = parse_presentation("gens x y\nrel x y")
    assert isinstance(is_wirtinger(bad), NotWirtinger)
    p1 = parse_presentation("gens a b\nrel a^2 b^-2")
    assert isinstance(is_wirtinger(p1), NotWirtinger)


def test_wirtinger_deterministic_edge_choice():
    p = parse_presentation("gens a b\nrel a b a^-1 b^-1")
    log1 = is_wirtinger(p)
    log2 = is_wirtinger(parse_presentation("gens a b\nrel b^-1 a b a^-1"))
    assert isinstance(log1, LOG) and isinstance(log2, LOG)
    assert log1.edges == log2.edges


def test_wirtinger_matcher_matches_reference_on_long_relators():
    # Hypothesis's short words never reach these lengths: the 1,630-letter
    # degree-40 form of test_fox and a 1,608-letter periodic word.
    rng = random.Random(0)
    b = [rng.choice((-1, 1)) * rng.randint(6, 14) for _ in range(40)]
    alpha = from_coeffs([1 - b[0]] + [b[i - 1] - b[i] for i in range(1, 40)] + [b[-1]])
    degree_40 = realize_cyclic(alpha).wirtinger_presentation
    periodic = power(parse_word("a x y z b^-1 z^-1 y^-1 x^-1"), 201)
    assert sum(len(r) for r in degree_40.relators) == 1630 and len(periodic) == 1608
    for r in degree_40.relators + (periodic,):
        letters = cyclic_letters(r)
        assert _match_wirtinger(letters) == match_wirtinger_reference(letters)
    assert isinstance(is_wirtinger(degree_40), LOG)
    periodic_p = Presentation(("a", "b", "x", "y", "z"), (periodic,))
    assert isinstance(is_wirtinger(periodic_p), NotWirtinger)


class CountedLetter(tuple):
    """A letter that counts how often it is compared or unpacked."""

    reads = 0

    def __eq__(self, other):
        CountedLetter.reads += 1
        return tuple.__eq__(self, other)

    __hash__ = tuple.__hash__

    def __iter__(self):
        CountedLetter.reads += 1
        return tuple.__iter__(self)


def nested_label(length: int) -> list:
    """The first ``length`` letters of x, x y x^-1, x y x^-1 z x y^-1 x^-1,
    ...: each level is w g w^-1, g one of z, u, v, y in turn."""
    w = [("x", 1)]
    while len(w) < length:
        w += [("yzuv"[len(w).bit_length() % 4], 1)] + [(g, -e) for g, e in reversed(w)]
    return w[:length]


def random_label(length: int, rng: random.Random) -> list:
    w: list = []
    while len(w) < length:
        letter = (rng.choice("xyz"), rng.choice((1, -1)))
        if not w or w[-1] != (letter[0], -letter[1]):
            w.append(letter)
    return w


def test_wirtinger_matcher_work_grows_linearly():
    """Letter reads of ``_match_wirtinger`` (comparisons and unpackings)
    on relators a w b^-1 w^-1 of 100 to 1,600 letters grow at most 2.3x
    per doubling: four random labels w per length, and the nested label.
    The centre scan reads each letter about 3.5 and 5 times.  The matcher
    keeps the counted letters in its ring, so each centre-loop comparison
    counts; a matcher that builds every rotation and its label's inverse
    unpacks about n^2 / 4 letters (4x per doubling on random labels)."""
    rng = random.Random(0)
    for labels in ([lambda n: random_label(n, rng)] * 4, [nested_label]):
        reads = []
        for n in (100, 200, 400, 800, 1600):
            CountedLetter.reads = 0
            for label in labels:
                w = normalize(label(n // 2 - 1))
                letters = cyclic_letters(product(gen("a"), w, gen("b", -1), inverse(w)))
                assert len(letters) == n
                assert _match_wirtinger(tuple(map(CountedLetter, letters))) is not None
            reads.append(CountedLetter.reads)
        assert all(b <= 2.3 * a for a, b in zip(reads, reads[1:])), reads


def test_expand_length1():
    q = expand_length1(TREFOIL)
    log = is_wirtinger(q)
    assert isinstance(log, LOG)
    assert log.is_tree
    assert all(len(e.label) <= 1 for e in log.edges)
    assert abelianization(q) == abelianization(TREFOIL)
    with pytest.raises(ValueError, match=r"^not a Wirtinger presentation: relator 0 \(x y\)"):
        expand_length1(parse_presentation("gens x y\nrel x y\nrel y"))


def test_expand_handles_negative_single_letter_labels():
    # a = c^-1 b c: the label may surface as a single negative letter.
    p = parse_presentation("gens a b c\nrel a c^-1 b^-1 c\nrel b c a^-1 c^-1")
    log = is_wirtinger(p)
    assert isinstance(log, LOG)
    q = expand_length1(p)
    qlog = is_wirtinger(q)
    assert isinstance(qlog, LOG)
    assert all(len(e.label) <= 1 for e in qlog.edges)
    assert all(
        e.label == IDENTITY or e.label.syllables[0][1] == 1 for e in qlog.edges
    )
    assert abelianization(q) == abelianization(p)


def test_expand_skips_fresh_names_already_taken():
    # The presentation names a generator v1, so the fresh one is v2.
    p = parse_presentation("gens t v1\nrel v1 = t v1 t v1^-1 t^-1")
    q = expand_length1(p)
    assert q.generators == ("t", "v1", "v2")
    log = is_wirtinger(q)
    assert isinstance(log, LOG)
    assert all(len(e.label) == 1 for e in log.edges)
    assert eq_up_to_unit(alexander_polynomial(q), alexander_polynomial(p))


def test_tietze_roundtrip_preserves_invariants():
    p = TREFOIL
    q = introduce_generator(p, "d", parse_word("a b"))
    assert abelianization(q) == abelianization(p)
    assert deficiency(q) == deficiency(p)
    back = eliminate_generator(q, "d", parse_word("a b"), len(q.relators) - 1)
    assert back == p


def test_eliminate_trusted_semantics():
    p = parse_presentation("gens x y\nrel y x^-2\nrel y^3")
    q = eliminate_generator(p, "y", parse_word("x^2"), 0)
    assert q.generators == ("x",)
    assert q.relators == (gen("x", 6),)
    with pytest.raises(ValueError):
        eliminate_generator(p, "y", parse_word("y"), 0)
    with pytest.raises(ValueError):
        eliminate_generator(p, "z", parse_word("x"), 0)


def test_tietze_preserves_coset_enumeration():
    from ribbonknots.cosets import todd_coxeter

    p = introduce_generator(TREFOIL, "d", parse_word("a b"))
    for q in (TREFOIL, p, eliminate_generator(p, "d", parse_word("a b"), 2)):
        killed = Presentation(q.generators, q.relators + (parse_word("a"),))
        t = todd_coxeter(killed, (), 100)
        assert t.closed and t.n_cosets == 1


def test_parse_format_roundtrip():
    text = format_presentation(TREFOIL)
    assert parse_presentation(text) == TREFOIL
    with pytest.raises(ValueError):
        parse_presentation("rel x")
    with pytest.raises(ValueError):
        parse_presentation("gens x\nbogus y")


def test_parse_accepts_any_whitespace_after_keyword():
    tabbed = parse_presentation("gens\ta b c\nrel\ta = b c b^-1\nrel \t b = c a c^-1")
    assert tabbed == TREFOIL


def test_dot_export():
    log = is_wirtinger(TREFOIL)
    dot = dot_export(log)
    assert dot.startswith("digraph {")
    assert "->" in dot
    # Generator names spelled like DOT keywords (any case) are quoted.
    p = parse_presentation(
        "gens t graph Node\nrel graph^-1 t graph t^-1\nrel Node^-1 t Node t^-1"
    )
    assert dot_export(is_wirtinger(p)) == (
        "digraph {\n"
        "  t;\n"
        '  "graph";\n'
        '  "Node";\n'
        '  "graph" -> "graph" [label="t"];\n'
        '  "Node" -> "Node" [label="t"];\n'
        "}\n"
    )


def test_tietze_script_parsing():
    steps = parse_tietze_script("intro d a b\nelim d a b 2\n# comment\n")
    assert steps[0].func is introduce_generator and steps[1].keywords["relator_index"] == 2
    p = apply_tietze_script(TREFOIL, steps[:1])
    assert "d" in p.generators
    with pytest.raises(ValueError):
        parse_tietze_script("elim d a\n")
    with pytest.raises(ValueError):
        parse_tietze_script("elim d\n")
    # An empty word is the identity: eliminate a generator set to 1.
    (step,) = parse_tietze_script("elim t 1\n")
    assert step.func is eliminate_generator
    assert step.keywords == {"target": "t", "replacement": IDENTITY, "relator_index": 1}
    p = parse_presentation("gens t u\nrel u^-1 t u t u^-1 t^-1\nrel t")
    assert apply_tietze_script(p, [step]) == parse_presentation("gens u\nrel u^-1")
