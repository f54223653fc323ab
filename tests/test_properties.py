"""Property tests of the word kernel, of the consumers of cyclic words
and of the one-pass Alexander matrix."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ribbonknots.acmoves import ACPresentation, canonical_form  # noqa: E402
from ribbonknots.fox import abelianize_to_lambda, alexander_matrix, fox_derivative  # noqa: E402
from ribbonknots.presentations import LOG, Presentation, is_wirtinger  # noqa: E402
from ribbonknots.words import Word, gen, inverse, normalize, product, substitute  # noqa: E402

GENS = ("a", "b", "c")
PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)


def words(gens=GENS, max_size=8):
    syllable = st.tuples(st.sampled_from(gens), st.integers(-3, 3).filter(bool))
    return st.lists(syllable, max_size=max_size).map(normalize)


def rotate(w: Word, k: int) -> Word:
    """A cyclic conjugate of ``w``: its letters rotated by ``k``."""
    letters = list(w.letters())
    if not letters:
        return w
    k %= len(letters)
    return normalize(letters[k:] + letters[:k])


images = st.dictionaries(st.sampled_from(GENS + ("d",)), words(max_size=4), max_size=4)


@PROPERTY
@given(words(), words(), images)
def test_substitute_respects_products_and_inverses(u, v, imgs):
    assert substitute(product(u, v), imgs) == product(substitute(u, imgs), substitute(v, imgs))
    assert substitute(inverse(u), imgs) == inverse(substitute(u, imgs))
    assert substitute(u, {}) == u


@PROPERTY
@given(st.lists(words(("a", "b")), min_size=2, max_size=2), st.integers(0, 20),
       st.booleans(), st.booleans())
def test_canonical_form_invariant_under_rotation_and_inversion(rels, k, invert, swap):
    p = ACPresentation(("a", "b"), tuple(rels))
    moved = rotate(rels[0], k)
    if invert:
        moved = inverse(moved)
    q_rels = (rels[1], moved) if swap else (moved, rels[1])
    assert canonical_form(ACPresentation(("a", "b"), q_rels)) == canonical_form(p)


def conjugation_relators():
    """Relators ``g_j w g_i^-1 w^-1`` over GENS."""
    return st.tuples(st.sampled_from(GENS), st.sampled_from(GENS), words(max_size=4)).map(
        lambda t: product(gen(t[0]), t[2], gen(t[1], -1), inverse(t[2]))
    )


@PROPERTY
@given(st.lists(st.one_of(conjugation_relators(), words()), min_size=1, max_size=3),
       st.integers(0, 20), st.booleans())
def test_is_wirtinger_invariant_under_rotation_and_inversion(rels, k, invert):
    moved = rotate(rels[-1], k)
    if invert:
        moved = inverse(moved)
    before = is_wirtinger(Presentation(GENS, tuple(rels)))
    after = is_wirtinger(Presentation(GENS, tuple(rels[:-1]) + (moved,)))
    assert isinstance(after, LOG) == isinstance(before, LOG)
    if isinstance(before, LOG):
        assert after == before


def powered_words():
    """Words whose syllables have exponents of magnitude 2 to 5 (before
    free reduction merges neighbours)."""
    syllable = st.tuples(st.sampled_from(GENS), st.integers(-5, 5).filter(lambda e: abs(e) >= 2))
    return st.lists(syllable, max_size=8).map(normalize)


@PROPERTY
@given(st.lists(powered_words(), min_size=1, max_size=3),
       st.tuples(*[st.sampled_from((-2, -1, 0, 1, 2))] * len(GENS)))
def test_alexander_matrix_matches_group_ring_fox(rels, weights):
    m = alexander_matrix(Presentation(GENS, tuple(rels)), weights)
    named = dict(zip(GENS, weights))
    for r, row in zip(rels, m.entries):
        for g, entry in zip(GENS, row):
            assert entry == abelianize_to_lambda(fox_derivative(r, g), named)
