import random

import pytest

from ribbonknots.presentations import Presentation
from ribbonknots.words import (
    IDENTITY,
    Word,
    gen,
    inverse,
    normalize,
    parse_word,
    power,
    product,
    substitute,
)
from reference import exponent_sums


def random_word(rng, gens, max_len):
    return normalize(
        (rng.choice(gens), rng.choice([-2, -1, 1, 2]))
        for _ in range(rng.randrange(max_len + 1))
    )


def test_normalize_reduces():
    assert normalize([("x", 2), ("x", -2)]) == IDENTITY
    assert normalize([("x", 1), ("x", 1)]) == Word((("x", 2),))
    assert normalize([("x", 1), ("y", 0), ("x", -1)]) == IDENTITY


def test_invalid_words_rejected():
    with pytest.raises(ValueError):
        Word((("x", 0),))
    with pytest.raises(ValueError):
        Word((("x", 1), ("x", 1)))
    # Names are checked where they enter, not by Word itself.
    bad = Word((("1bad", 1),))
    for enter in (
        lambda: parse_word("1bad"),
        lambda: Presentation(("1bad",), ()),
        lambda: Presentation(("x",), (bad,)),
    ):
        with pytest.raises(ValueError):
            enter()


def test_group_axioms_randomized():
    rng = random.Random(7)
    gens = ["a", "b", "c"]
    for _ in range(200):
        u, v, w = (random_word(rng, gens, 8) for _ in range(3))
        assert product(product(u, v), w) == product(u, product(v, w))
        assert product(u, inverse(u)) == IDENTITY
        assert inverse(inverse(u)) == u
        assert inverse(product(u, v)) == product(inverse(v), inverse(u))


def test_power_and_len():
    x = gen("x")
    assert power(x, 5) == gen("x", 5)
    assert power(product(x, gen("y")), -1) == parse_word("y^-1 x^-1")
    assert len(parse_word("x^3 y^-2")) == 5


def test_parse_and_str_roundtrip():
    for text in ("", "x", "x^-3 y x", "a_1^2 B"):
        w = parse_word(text)
        assert parse_word(str(w)) == w
    with pytest.raises(ValueError):
        parse_word("x^0")
    with pytest.raises(ValueError):
        parse_word("x^a")


def test_exponent_sums():
    assert exponent_sums(parse_word("x y x^-3"), ["x", "y"]) == (-2, 1)
    with pytest.raises(ValueError):
        exponent_sums(gen("z"), ["x"])


def test_endo_apply_and_compose():
    # endomorphisms as generator -> image maps, applied by substitute
    f = {"x": parse_word("x y"), "y": gen("y")}
    g = {"x": gen("y"), "y": gen("x")}
    assert substitute(parse_word("x^-1"), f) == parse_word("y^-1 x^-1")
    # generators without an image stay as they are
    assert substitute(parse_word("x z^2 x^-1"), {"x": parse_word("y")}) == parse_word("y z^2 y^-1")
    fg = tuple(substitute(g[x], f) for x in ("x", "y"))  # x -> f(g(x))
    assert fg == (gen("y"), parse_word("x y"))
    assert tuple(substitute(gen(x), f) for x in ("x", "y")) == (f["x"], f["y"])


def test_abelianization_matrix_contravariance():
    rng = random.Random(3)
    dom = ("x", "y")
    for _ in range(50):
        f = (random_word(rng, list(dom), 5), random_word(rng, list(dom), 5))
        g = (random_word(rng, list(dom), 5), random_word(rng, list(dom), 5))
        fg = tuple(substitute(img, dict(zip(dom, f))) for img in g)  # x -> f(g(x))
        af, ag, comp = (
            tuple(exponent_sums(img, dom) for img in h) for h in (f, g, fg)
        )
        expected = tuple(
            tuple(sum(ag[i][k] * af[k][j] for k in range(2)) for j in range(2))
            for i in range(2)
        )
        assert comp == expected
