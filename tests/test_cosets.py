import random

import pytest

from ribbonknots.constructions import realize_cyclic
from ribbonknots.cosets import MAX_COSETS, todd_coxeter, weight_one_certificate
from ribbonknots.laurent import from_coeffs
from ribbonknots.presentations import Presentation, parse_presentation
from ribbonknots.words import gen, parse_word
from reference import act, todd_coxeter_reference, trace


def test_cyclic_group():
    p = Presentation(("x",), (gen("x", 5),))
    t = todd_coxeter(p)
    assert t.closed and t.n_cosets == 5
    assert trace(t, 0, gen("x", 5)) == 0


def test_symmetric_group_s3():
    p = parse_presentation("gens a b\nrel a^2\nrel b^3\nrel a b a b")
    full = todd_coxeter(p)
    assert full.closed and full.n_cosets == 6
    sub = todd_coxeter(p, (gen("a"),))
    assert sub.closed and sub.n_cosets == 3


def test_trivialized_quotient():
    # trefoil group with a meridian killed is trivial
    p = parse_presentation(
        "gens a b c\nrel a = b c b^-1\nrel b = c a c^-1\nrel a"
    )
    t = todd_coxeter(p)
    assert t.closed and t.n_cosets == 1


def test_overflow_is_a_value():
    free = Presentation(("x", "y"), ())
    t = todd_coxeter(free, (), max_cosets=50)
    assert not t.closed
    assert t.limit == 50
    with pytest.raises(ValueError):
        act(t, 0, "x")
    with pytest.raises(ValueError, match="^max_cosets must be >= 1$"):
        todd_coxeter(free, (), 0)


def test_action_consistency():
    p = parse_presentation("gens a b\nrel a^2\nrel b^3\nrel a b a b")
    t = todd_coxeter(p)
    # relators act trivially on every coset
    for r in p.relators:
        for c in range(t.n_cosets):
            assert trace(t, c, r) == c
    # generator actions are permutations
    for g in p.generators:
        images = [act(t, c, g) for c in range(t.n_cosets)]
        assert sorted(images) == list(range(t.n_cosets))


def test_determinism():
    p = parse_presentation("gens a b\nrel a^2\nrel b^3\nrel a b a b")
    assert todd_coxeter(p) == todd_coxeter(p)


def test_weight_one_certificate():
    spun = parse_presentation("gens t u\nrel u^-1 t u t u^-1 t^-1")
    assert weight_one_certificate(spun, "t", 100) == "certified"
    free = Presentation(("x", "y"), ())
    assert weight_one_certificate(free, "x", 20) == "inconclusive"
    with pytest.raises(ValueError):
        weight_one_certificate(spun, "nope")


def test_subgroup_word_validation():
    p = Presentation(("x",), (gen("x", 3),))
    with pytest.raises(ValueError):
        todd_coxeter(p, (gen("z"),))


# The flat-table enumerator must define the same cosets in the same order
# as the union-find reference, so whole tables agree, overflows included
# (random presentations: test_properties.py).

SPUN_KILLED = "gens t u\nrel u^-1 t u t u^-1 t^-1\nrel t"
A5 = "gens a b\nrel a^2\nrel b^3\nrel a b a b a b a b a b"


@pytest.mark.parametrize("name", ["spun_trefoil", "trotter_2", "lemma4_companion", "lemma3_companion"])
def test_corpus_matches_union_find_reference(name, corpus):
    p = parse_presentation((corpus / f"{name}.pres").read_text())
    killed = Presentation(p.generators, p.relators + (gen("t"),))
    for limit in (1, 2, 5, 20, 100, 1000):
        for q, subgroup in ((p, (gen("t"),)), (killed, ())):
            assert todd_coxeter(q, subgroup, limit) == todd_coxeter_reference(q, subgroup, limit)


def killed_wirtinger_form(rng: random.Random, n: int) -> Presentation:
    """The Wirtinger form of alpha = 1 + (t - 1) beta for a random beta of
    n terms, with the meridian t killed by a relator."""
    beta = [rng.choice((-2, -1, 1, 2)) for _ in range(n)]
    alpha = [1 - beta[0]] + [beta[i - 1] - beta[i] for i in range(1, len(beta))] + [beta[-1]]
    p = realize_cyclic(from_coeffs(alpha)).wirtinger_presentation
    return Presentation(p.generators, p.relators + (gen("t"),))


def test_killed_wirtinger_forms_match_union_find_reference():
    rng = random.Random(2027)
    closed = 0
    for _ in range(12):
        q = killed_wirtinger_form(rng, rng.randint(1, 25))
        for limit in (10, 60, 300, 2000):
            table = todd_coxeter(q, (), limit)
            assert table == todd_coxeter_reference(q, (), limit)
            closed += table.closed
    assert 0 < closed < 48  # both outcomes occur


@pytest.mark.parametrize(
    "text, subgroup, least, index",
    [(SPUN_KILLED, "", 2, 1), (A5, "b", 28, 20), (A5, "", 82, 60)],
)
def test_least_closing_limit(text, subgroup, least, index):
    # max_cosets bounds the cosets defined, merged ones included, so the
    # least limit that closes can exceed the index.
    p = parse_presentation(text)
    sub = (parse_word(subgroup),) if subgroup else ()
    table = todd_coxeter(p, sub, least)
    assert table.closed and table.n_cosets == index
    assert table == todd_coxeter_reference(p, sub, least)
    below = todd_coxeter(p, sub, least - 1)
    assert not below.closed and below == todd_coxeter_reference(p, sub, least - 1)


def least_closing_limit(p: Presentation) -> int:
    """The least ``max_cosets`` at which the enumeration of ``p`` closes.
    Under a limit it runs as the unbounded enumeration does until it
    would define one coset too many, so closing is monotone in the limit."""
    lo, hi = 1, MAX_COSETS
    assert todd_coxeter(p, (), hi).closed
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if todd_coxeter(p, (), mid).closed else (mid + 1, hi)
    return lo


def test_killed_meridians_close_within_a_few_cosets(corpus):
    # The killing relator t fixes every coset as it is defined, so no scan
    # defines t-edges that a coincidence folds back.  Cosets defined to
    # reach index 1, where each new coset has no loops: 9-13 on the four
    # realized corpus cases and 81 on yoshikawa; 49-4,721 on the forms of
    # 25-413 letters below.
    for name in ("spun_trefoil", "trotter_2", "lemma4_companion", "lemma3_companion", "yoshikawa"):
        p = parse_presentation((corpus / f"{name}.pres").read_text())
        assert least_closing_limit(Presentation(p.generators, p.relators + (gen("t"),))) <= 8, name
    rng = random.Random(2027)
    for n in (5, 10, 20, 40, 60):
        for _ in range(3):
            assert least_closing_limit(killed_wirtinger_form(rng, n)) <= 32, n
