import pytest

from ribbonknots.cosets import todd_coxeter, weight_one_certificate
from ribbonknots.presentations import Presentation, parse_presentation
from ribbonknots.words import gen
from reference import act, trace


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
