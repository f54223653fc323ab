"""Property tests of the word kernel, of the consumers of cyclic words,
of the Wirtinger matcher against its every-rotation reference, of the
packed-letter AC search against its Word-based reference (its least
rotation against every slice, its direct conjugation against two
reduced products, its removal plan against the Word-level planner, and
the lemma that lets it skip joins that cancel nothing), of the
flat-table Todd-Coxeter enumeration against its union-find one, of the
one-pass Alexander matrix, of the Alexander polynomial under Tietze
moves, of those moves written as a script and parsed back, of the
sparse cokernel invariants (on matrices mostly of units, too) against sympy and against their
full-rescan reference, pivot for pivot, of the group side of cover
homology against the rewritten cover presentation and against every
column of the Fox matrix less the cover's vertices, of the module side
of cover homology (T^N - I where t has a known action) against the
cokernel of the Kronecker matrix, of the pivoting determinant (on
sparse matrices of units, too) and of exact division over Z[t, t^-1] against sympy, and of the CLI's
exit-code contract on generated, often malformed, input."""

import contextlib
import io
import random
import re
from collections import Counter
from math import gcd, prod
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

import reference  # noqa: E402
from ribbonknots import acmoves, cli, covers  # noqa: E402
from ribbonknots.acmoves import (  # noqa: E402
    ACPresentation,
    Budget,
    Multiply,
    _conjugate,
    _least_rotation,
    _reduced_product,
    ac_trivialize_search,
    apply_moves,
    canonical_form,
    pack,
    removal_plan,
)
from ribbonknots.constructions import (  # noqa: E402
    AdmissibilityError,
    KnotModuleSpec,
    realize_cyclic,
    realize_lemma4,
    realize_sum,
    realize_trotter,
)
from ribbonknots.cosets import todd_coxeter, weight_one_certificate  # noqa: E402
from ribbonknots.covers import (  # noqa: E402
    cover_homology,
    cyclic_cover_presentation,
    module_cover_homology,
)
from ribbonknots.fox import alexander_matrix, alexander_polynomial  # noqa: E402
from ribbonknots.intlinalg import (  # noqa: E402
    AbelianGroupInvariants,
    Matrix,
    cokernel_invariants,
    matrix,
    smith_normal_form,
)
from ribbonknots.laurent import ONE, ZERO, det_lambda, from_coeffs, laurent  # noqa: E402
from ribbonknots.presentations import (  # noqa: E402
    LOG,
    Presentation,
    _match_wirtinger,
    apply_tietze_script,
    expand_length1,
    exponent_rows,
    introduce_generator,
    is_wirtinger,
    parse_tietze_script,
    weight_vector,
)
from ribbonknots.words import (  # noqa: E402
    IDENTITY,
    Word,
    cyclic_letters,
    gen,
    inverse,
    normalize,
    power,
    product,
    substitute,
)
from reference import (  # noqa: E402
    _successors,
    abelianize_to_lambda,
    ac_trivialize_search_reference,
    canonical_form_reference,
    cokernel_invariants_reference,
    cokernel_of,
    dense,
    det_int,
    diagonal_invariants,
    diagonal_of,
    eq_up_to_unit,
    fox_derivative,
    kronecker_matrix,
    least_rotation_reference,
    match_wirtinger_reference,
    matmul,
    random_unimodular,
    relative_cover_homology,
    removal_plan_reference,
    spelled_presentation,
    todd_coxeter_reference,
    unit_block_matrix,
    weight_vector_reference,
)

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


def ac_key(p: ACPresentation) -> tuple:
    return canonical_form(pack(p).least)


@PROPERTY
@given(st.lists(words(("a", "b")), min_size=2, max_size=2), st.integers(0, 20),
       st.booleans(), st.booleans())
def test_canonical_form_invariant_under_rotation_and_inversion(rels, k, invert, swap):
    p = ACPresentation(("a", "b"), tuple(rels))
    moved = rotate(rels[0], k)
    if invert:
        moved = inverse(moved)
    q_rels = (rels[1], moved) if swap else (moved, rels[1])
    assert ac_key(ACPresentation(("a", "b"), q_rels)) == ac_key(p)


def balanced(max_size=3):
    """Balanced presentations on 2 or 3 of GENS, in any order, with short
    relators: presentation order and code rank (sorted order) differ."""
    def on(gens):
        syllable = st.tuples(st.sampled_from(gens), st.integers(-2, 2).filter(bool))
        relator = st.lists(syllable, max_size=max_size).map(normalize)
        return st.lists(relator, min_size=len(gens), max_size=len(gens)).map(
            lambda rels: ACPresentation(gens, tuple(rels)))
    return st.tuples(st.integers(2, 3), st.permutations(GENS)).flatmap(
        lambda t: on(tuple(t[1][: t[0]])))


@st.composite
def removable(draw, least=1):
    """Balanced presentations on ``least`` to 3 generators that pair
    removal empties: the relator of the k-th generator removed is
    u g^+-1 v, u and v words in the generators removed after it (v often
    u^-1, so rotations cancel), in shuffled generator and relator order."""
    order = draw(st.permutations(GENS))[: draw(st.integers(least, 3))]
    rels = []
    for k, g in enumerate(order):
        later = order[k + 1 :]
        u = draw(words(later, max_size=3)) if later else IDENTITY
        v = draw(st.one_of(words(later, max_size=3), st.just(inverse(u)))) if later else IDENTITY
        rels.append(product(u, gen(g, draw(st.sampled_from((1, -1)))), v))
    return ACPresentation(tuple(draw(st.permutations(order))), tuple(draw(st.permutations(rels))))


@st.composite
def scrambled(draw):
    """A ``removable()`` presentation on 2 or 3 generators after one or two
    random joins R_i *= c . R_j^e . c^-1 (c none or one letter), with a
    length bound from its total length to 6 more, whose start has no
    removal plan: the search can undo a join by a cancelling one, so it
    reaches ripe states past the start."""
    p = draw(removable(least=2))
    conjugators = [IDENTITY] + [gen(g, s) for g in p.generators for s in (1, -1)]
    for _ in range(draw(st.integers(1, 2))):
        i, j = draw(st.permutations(range(len(p.relators))))[:2]
        c = draw(st.sampled_from(conjugators))
        w = product(c, power(p.relators[j], draw(st.sampled_from((1, -1)))), inverse(c))
        relators = p.relators[:i] + (product(p.relators[i], w),) + p.relators[i + 1 :]
        p = ACPresentation(p.generators, relators)
    assume(removal_plan_reference(p) is None)  # else the start is all the search tries
    return p, draw(st.integers(p.total_length(), p.total_length() + 6))


@PROPERTY
@given(balanced())
def test_canonical_form_spells_the_word_key(p):
    """The packed key is the Word-based key with each (index, sign)
    letter written as one code, chr(2 index + (sign > 0))."""
    decoded = tuple(tuple((ord(c) >> 1, 1 if ord(c) & 1 else -1) for c in r) for r in ac_key(p))
    assert (len(p.generators), decoded) == canonical_form_reference(p)


@PROPERTY
@given(balanced(), st.integers(1, 10), st.integers(1, 3))
def test_ac_search_matches_word_reference(p, max_len, depth):
    out = ac_trivialize_search(p, max_len, depth)
    assert out == ac_trivialize_search_reference(p, max_len, depth)


@PROPERTY
@given(balanced(), st.integers(1, 10), st.integers(1, 3), st.integers(1, 40))
def test_ac_search_node_budget_only_cuts_the_search(p, max_len, depth, max_nodes):
    """A node budget small enough to bite, on the last level too, where
    candidates are keyed out of order, gives ``Budget`` or the outcome
    of the unbudgeted search, and keeps at most ``max_nodes`` distinct
    keys; the default budget gives the unbudgeted outcome."""
    expected = ac_trivialize_search_reference(p, max_len, depth)
    assert ac_trivialize_search(p, max_len, depth) == expected
    keys = set()

    def counted(least):
        key = canonical_form(least)
        keys.add(key)
        return key

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(acmoves, "canonical_form", counted)
        assert ac_trivialize_search(p, max_len, depth, max_nodes) in (expected, Budget())
    assert len(keys) <= max_nodes


def ripe(q: ACPresentation) -> bool:
    """Some generator occurs exactly once in ``q``."""
    counts = Counter(g for r in q.relators for g, e in r.syllables for _ in range(abs(e)))
    return 1 in counts.values()


def cancels(node: ACPresentation, moves: tuple, q: ACPresentation) -> bool:
    """Whether the join R_i *= c . R_j^e . c^-1 that ``moves`` spell
    from ``node`` to ``q`` cancels letters."""
    k = next(k for k, m in enumerate(moves) if isinstance(m, Multiply))
    i, j = moves[k].i, moves[k].j
    factor = apply_moves(node, moves[:k]).relators[j]
    return len(q.relators[i]) < len(node.relators[i]) + len(factor)


@PROPERTY
@given(st.one_of(balanced(), removable()))
def test_removal_plan_matches_word_reference(p):
    """Spelled from the packed strings or by applying each move to
    ``Word`` relators, the plan is the same move list, or None for both."""
    assert removal_plan(p.generators, pack(p).relators) == removal_plan_reference(p)


@PROPERTY
@given(balanced())
def test_a_join_that_cancels_nothing_is_no_new_ripe_state(p):
    """A join that cancels nothing makes a generator occur once only if
    its state has one, and has a plan only if its state has one."""
    stuck = removal_plan_reference(p) is None
    successors, _ = _successors(p, 10**6)
    for moves, q in successors:
        if not cancels(p, moves, q):
            assert ripe(p) or not ripe(q)
            assert not stuck or removal_plan_reference(q) is None


@PROPERTY
@given(st.one_of(st.tuples(balanced(), st.integers(1, 10)), scrambled()), st.integers(1, 3))
def test_ac_search_tries_a_plan_on_each_new_ripe_state(case, depth):
    """The packed search tries ``removal_plan`` on the start and then on
    exactly the new states, in the reference's order, that a join
    cancelling letters built and in which some generator occurs once."""
    p, max_len = case
    tried: dict[str, list] = {"packed": [], "reference": []}
    built_by_cancelling: dict[int, ACPresentation] = {}  # by id, kept alive so ids stay unique

    def successors(node, max_total_length):
        out, pruned = _successors(node, max_total_length)
        built_by_cancelling.update((id(q), q) for moves, q in out if cancels(node, moves, q))
        return out, pruned

    def packed(generators, relators):
        tried["packed"].append((generators, relators))
        return removal_plan(generators, relators)

    def word(q):
        if not tried["reference"] or (id(q) in built_by_cancelling and ripe(q)):
            tried["reference"].append((q.generators, pack(q).relators))
        return removal_plan_reference(q)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(acmoves, "removal_plan", packed)
        mp.setattr(reference, "_successors", successors)
        mp.setattr(reference, "removal_plan_reference", word)
        assert ac_trivialize_search(p, max_len, depth) == ac_trivialize_search_reference(
            p, max_len, depth)
    assert tried["packed"] == tried["reference"]


def free_codes(codes) -> str:
    """The freely reduced code string of a list of letter codes."""
    out: list[int] = []
    for c in codes:
        if out and out[-1] == c ^ 1:
            out.pop()
        else:
            out.append(c)
    return "".join(map(chr, out))


@st.composite
def code_words(draw):
    """Freely reduced code strings over 1-3 generators: plain words (few
    codes, so the least code repeats), powers of a word, conjugates
    u x u^-1 (ends that are not cyclically reduced), commutators, spelled
    backwards with the same letters, and the empty word."""
    n = draw(st.integers(1, 3))
    word = st.lists(st.integers(0, 2 * n - 1), max_size=8)
    u, v = draw(word), draw(word)
    inv_u, inv_v = [c ^ 1 for c in reversed(u)], [c ^ 1 for c in reversed(v)]
    kind = draw(st.sampled_from(("plain", "power", "conjugate", "commutator", "empty")))
    codes = {"plain": u, "power": u * draw(st.integers(2, 4)), "conjugate": u + v + inv_u,
             "commutator": u + v + inv_u + inv_v, "empty": []}[kind]
    return free_codes(codes), {c: c ^ 1 for c in range(2 * n)}


@PROPERTY
@given(code_words())
def test_least_rotation_matches_every_slice_reference(case):
    s, inv = case
    assert _least_rotation(s, inv) == least_rotation_reference(s, inv)


@PROPERTY
@given(code_words(), st.integers(0, 5))
def test_direct_conjugation_is_two_reduced_products(case, c):
    s, inv = case
    c = chr(c % len(inv))
    assert _conjugate(c, s) == _reduced_product(_reduced_product(c, s), chr(ord(c) ^ 1))


@st.composite
def enumerations(draw):
    gens = GENS[: draw(st.integers(1, 3))]
    rels = draw(st.lists(words(gens, max_size=7), max_size=4))
    subgroup = draw(st.lists(words(gens, max_size=7), max_size=2))
    return Presentation(gens, tuple(rels)), tuple(subgroup), draw(st.integers(1, 2000))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(enumerations())
def test_todd_coxeter_matches_union_find_reference(case):
    """Whole tables agree, overflows included: max_cosets counts every
    coset defined, so both must define the same cosets in order."""
    assert todd_coxeter(*case) == todd_coxeter_reference(*case)


@PROPERTY
@given(enumerations(), st.integers(0, 2))
def test_killing_by_substitution_matches_appending_the_generator(case, pick):
    # Setting g = 1 in every relator on the other generators is a Tietze
    # move away from appending the relator g: where both enumerations
    # close, the index is the same.  The weight-1 certificate is the
    # substituted enumeration's.
    p, _, budget = case
    g = p.generators[pick % len(p.generators)]
    appended = todd_coxeter(Presentation(p.generators, p.relators + (gen(g),)), (), budget)
    rest = tuple(h for h in p.generators if h != g)
    killed = Presentation(rest, tuple(substitute(r, {g: IDENTITY}) for r in p.relators))
    substituted = todd_coxeter(killed, (), budget)
    if appended.closed and substituted.closed:
        assert appended.n_cosets == substituted.n_cosets
    trivial = substituted.closed and substituted.n_cosets == 1
    assert weight_one_certificate(p, g, budget) == ("certified" if trivial else "inconclusive")


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


@st.composite
def near_wirtinger_words(draw):
    """Random words; conjugation relators, rotated and/or inverted, with
    or without one letter's sign flipped; powers of short words and of
    conjugation relators."""
    kind = draw(st.sampled_from(("random", "conjugation", "flipped", "periodic")))
    if kind == "random":
        return draw(words())
    if kind == "periodic":
        base = draw(st.one_of(words(max_size=3), conjugation_relators()))
        return power(base, draw(st.integers(2, 5)))
    w = rotate(draw(conjugation_relators()), draw(st.integers(0, 30)))
    if draw(st.booleans()):
        w = inverse(w)
    letters = list(w.letters())
    if kind == "flipped" and letters:
        i = draw(st.integers(0, len(letters) - 1))
        letters[i] = (letters[i][0], -letters[i][1])
    return normalize(letters)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(near_wirtinger_words())
def test_wirtinger_matcher_matches_rotation_reference(r):
    letters = cyclic_letters(r)
    assert _match_wirtinger(letters) == match_wirtinger_reference(letters)


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


def dense_matrices(max_dim=6, bound=50):
    """Any shape from 0 x 0 to 6 x 6, about half the entries zero, so
    zero rows and columns occur."""
    entry = st.one_of(st.just(0), st.integers(-bound, bound))
    return st.tuples(st.integers(0, max_dim), st.integers(0, max_dim)).flatmap(
        lambda shape: st.lists(
            st.lists(entry, min_size=shape[1], max_size=shape[1]),
            min_size=shape[0], max_size=shape[0],
        ).map(lambda grid: matrix(grid, cols=shape[1]))
    )


def low_rank_matrices(max_dim=6):
    """Products ``A B`` of an r x k and a k x c matrix with k < r, c:
    singular, with torsion from the factors' entries."""
    def factor(rows, cols):
        return st.lists(
            st.lists(st.integers(-7, 7), min_size=cols, max_size=cols),
            min_size=rows, max_size=rows,
        ).map(matrix)

    def product_of(shape):
        r, k, c = shape
        return st.tuples(factor(r, k), factor(k, c)).map(lambda ab: matmul(*ab))

    return st.tuples(
        st.integers(2, max_dim), st.integers(1, 2), st.integers(2, max_dim)
    ).filter(lambda s: s[1] < min(s[0], s[2])).flatmap(product_of)


@st.composite
def permuted_triangular(draw, max_dim=6, bound=50):
    """Nonsingular squares: upper triangular with a nonzero diagonal,
    rows and columns permuted, so elimination has rows to swap, an odd
    number of times in some draws."""
    n = draw(st.integers(1, max_dim))
    entry = st.one_of(st.just(0), st.integers(-bound, bound))
    diagonal = st.integers(-bound, bound).filter(bool)
    grid = [[draw(diagonal) if i == j else draw(entry) if j > i else 0 for j in range(n)]
            for i in range(n)]
    return matrix(draw(permuted(grid)))


def block_circulant_matrices(max_rank=3, max_order=8):
    """The Kronecker substitution t -> (N x N cyclic shift) applied to an
    r x r matrix of sparse Laurent polynomials, as the module side of the
    cover-homology oracle builds it."""
    term = st.tuples(st.integers(-2, 2), st.integers(-3, 3).filter(bool))
    entry = st.one_of(st.just(()), st.lists(term, max_size=2))

    def substitute(args):
        r, n, polys = args
        grid = [[0] * (r * n) for _ in range(r * n)]
        for i in range(r):
            for j in range(r):
                for e, c in polys[i * r + j]:
                    for a in range(n):
                        grid[i * n + a][j * n + (a + e) % n] += c
        return matrix(grid, cols=r * n)

    return st.tuples(st.integers(1, max_rank), st.integers(1, max_order)).flatmap(
        lambda rn: st.tuples(
            st.just(rn[0]), st.just(rn[1]),
            st.lists(entry, min_size=rn[0] ** 2, max_size=rn[0] ** 2),
        )
    ).map(substitute)


@st.composite
def unit_block_matrices(draw):
    """``reference.unit_block_matrix`` of up to 15 x 12: ±1 rows around a
    non-unit block of up to 4 x 4, with copied, negated and summed rows,
    permuted, so that unit pivots fill, empty rows and move the Markowitz
    costs of other entries up and down."""
    rng = random.Random(draw(st.integers(0, 2**32)))  # one draw, not one per cell
    return unit_block_matrix(rng, draw(st.integers(1, 8)), draw(st.integers(0, 4)),
                             draw(st.integers(1, 12)))


def check_against_sympy(m: Matrix) -> None:
    """``cokernel_invariants`` agrees with sympy's invariant factors over
    ZZ and with the diagonal of this package's transform-tracking SNF;
    on square input ``det_int`` agrees with sympy's determinant."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    flat = [x for row in m.entries for x in row]
    reference = sympy.Matrix(m.rows, m.cols, flat)
    if m.rows == m.cols:
        assert det_int(m) == reference.det()
    factors = invariant_factors(reference, domain=sympy.ZZ)
    nonzero = [abs(int(d)) for d in factors if d != 0]
    expected = AbelianGroupInvariants(m.cols - len(nonzero), tuple(d for d in nonzero if d > 1))
    got = cokernel_of(m)
    assert got == expected
    _, s, _ = smith_normal_form(m)
    assert got == diagonal_invariants(diagonal_of(s), m.cols)


@PROPERTY
@given(st.one_of(dense_matrices(), low_rank_matrices(), permuted_triangular(), unit_block_matrices()))
def test_cokernel_invariants_match_sympy_snf(m):
    check_against_sympy(m)


@PROPERTY
@given(block_circulant_matrices())
def test_cokernel_invariants_match_sympy_snf_block_circulant(m):
    check_against_sympy(m)


@st.composite
def tied_sparse_matrices(draw):
    """Sparse matrices of up to 25 x 26 at density 5% to 80%, with
    entries from {±1}, {±1, ±2} or a few non-units, so that many
    nonzeros tie on |x| and on Markowitz cost, pivots can be non-units,
    row operations fill in, and a pivot row can keep a remainder."""
    rows, cols = draw(st.integers(1, 25)), draw(st.integers(1, 26))
    density = draw(st.integers(5, 80)) / 100
    values = draw(st.sampled_from(((1, -1), (1, -1, 2, -2), (2, -2, 3, 4, -6))))
    rng = random.Random(draw(st.integers(0, 2**32)))  # one draw, not one per cell
    return matrix([[rng.choice(values) if rng.random() < density else 0 for _ in range(cols)]
                   for _ in range(rows)], cols=cols)


@PROPERTY
@given(st.one_of(tied_sparse_matrices(), unit_block_matrices()))
def test_cokernel_invariants_match_full_rescan_reference(m):
    # The same pivots, so the same entries written, as well as the same
    # invariants.
    got, want = Counter(), Counter()
    assert cokernel_of(m, got) == cokernel_invariants_reference(m, want)
    assert got == want


def weighted_to_zero(w: Word, gens, weights, unit: int) -> Word:
    """``w`` followed by the power of ``gens[unit]``, whose weight is ±1,
    that makes its weighted exponent sum 0."""
    total = sum(weights[gens.index(g)] * e for g, e in w.syllables)
    return product(w, gen(gens[unit], -total * weights[unit]))


@st.composite
def weight_presentations(draw):
    """Presentations on 1 to 5 generators with exponents up to ±5:
    random relators (any free rank, torsion), relators made weighted-sum
    0 under drawn weights with one unit, or relators whose exponents add
    up to 0 (all weights 1, as in a Wirtinger form)."""
    gens = tuple(f"x{i}" for i in range(draw(st.integers(1, 5))))
    syllable = st.tuples(st.sampled_from(gens), st.integers(-5, 5).filter(bool))
    relators = draw(st.lists(st.lists(syllable, max_size=6).map(normalize), max_size=6))
    kind = draw(st.sampled_from(("random", "weighted", "zero-sum")))
    if kind == "random":
        return Presentation(gens, tuple(relators))
    weights = [1] * len(gens)
    unit = draw(st.integers(0, len(gens) - 1))
    if kind == "weighted":
        weights = draw(st.lists(st.integers(-3, 3), min_size=len(gens), max_size=len(gens)))
        weights[unit] = draw(st.sampled_from((-1, 1)))
    return Presentation(gens, tuple(weighted_to_zero(w, gens, weights, unit) for w in relators))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(weight_presentations())
def test_weight_vector_matches_the_smith_form_reference(p):
    # The integer-kernel reduction against the free column of the dense
    # Smith form's V: the same tuple, or the same error where H1 is not Z.
    try:
        want = weight_vector_reference(p)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            weight_vector(p)
        assert str(got.value) == str(exc)
    else:
        assert weight_vector(p) == want


@st.composite
def cover_inputs(draw):
    """A presentation, its weights and a cover order N in 1..12.  The
    random kind has 1 to 3 generators with weights in -3..3, one of them
    a unit, and ends each relator with a power of that generator so that
    its weighted sum is 0.  The invalid kind (about 1 draw in 5) breaks
    such a case for N >= 2: its weights become multiples of N, or its
    first relator gets weighted sum ±1.  The Trotter (rank 1-2) and
    lemma-4 (rank 2-3) kinds are realized Wirtinger forms with their
    weight vector."""
    n = draw(st.integers(1, 12))
    # "random" twice: under derandomize about 1 draw in 5 is invalid.
    kind = draw(st.sampled_from(("random", "invalid", "trotter", "random", "lemma4")))
    if kind in ("random", "invalid"):
        gens = GENS[: draw(st.integers(1, 3))]
        weights = draw(st.lists(st.integers(-3, 3), min_size=len(gens), max_size=len(gens)))
        unit = draw(st.integers(0, len(gens) - 1))
        weights[unit] = draw(st.sampled_from((-1, 1)))
        relators = [weighted_to_zero(w, gens, weights, unit)
                    for w in draw(st.lists(words(gens), max_size=3))]
        if kind == "invalid":
            n = max(n, 2)
            if draw(st.booleans()):
                weights = [w * n for w in weights]
            else:
                relators[:1] = [product(*relators[:1], gen(gens[unit]))]
        return Presentation(gens, tuple(relators)), tuple(weights), n
    rng = random.Random(draw(st.integers(0, 2**32)))  # retried until admissible
    while True:
        if kind == "trotter":
            r = rng.randint(1, 2)
            m = matrix([[rng.randint(-2, 2) for _ in range(r)] for _ in range(r)])
        else:
            m = random_unimodular(rng, rng.randint(2, 3), rng.randrange(8))
        try:
            res = (realize_trotter if kind == "trotter" else realize_lemma4)(m)
        except AdmissibilityError:
            continue
        p = res.wirtinger_presentation
        return p, weight_vector(p), n


def maps_onto(p: Presentation, weights, n: int) -> bool:
    """Whether the weights kill every relator and generate Z/N: a map of
    the group to Z and onto Z/N, the contract of both cover functions."""
    return gcd(n, *weights) == 1 and not any(
        sum(weights[j] * e for j, e in row.items()) for row in exponent_rows(p))


def refused_by_both(p: Presentation, weights, n: int) -> None:
    for f in (cover_homology, cyclic_cover_presentation):
        with pytest.raises(ValueError, match="onto"):
            f(p, n, weights)


@PROPERTY
@example((Presentation(("a", "b"), (normalize([("a", 9), ("b", -6)]),)), (2, 3), 5))
@example((Presentation(("t", "x"), (normalize([("x", 2), ("t", 4)]),)), (1, 0), 4))
@given(cover_inputs())
def test_cover_rows_are_the_exponent_rows_of_the_rewritten_cover(case):
    # The group side's invariants are those of the exponent rows of the
    # Reidemeister-Schreier presentation, whether a weight is ±1 or none is
    # (the first example).  Weights that do not map the group to Z and onto
    # Z/N are refused by both, as in the second example, onto Z/4 only.
    p, weights, n = case
    if not maps_onto(p, weights, n):
        refused_by_both(p, weights, n)
        return
    q = cyclic_cover_presentation(p, n, weights)
    want = cokernel_invariants_reference(dense(exponent_rows(q), len(q.generators)))
    assert cover_homology(p, n, weights) == want


SPUN_TREFOIL = Presentation(("t", "u"), (normalize([("u", -1), ("t", 1), ("u", 1), ("t", 1),
                                                    ("u", -1), ("t", -1)]),))


def spelled(*rows: dict) -> Presentation:
    """``reference.spelled_presentation`` of rows ``{j: coefficients from
    t^0}``, for the examples below."""
    cols = 1 + max((j for row in rows for j in row), default=-1)
    return spelled_presentation([{j: from_coeffs(c) for j, c in row.items()} for row in rows], cols)


def unit_free_relator(w: Word) -> Word:
    """``w`` times a^s b^-s, which makes its sum 0 under a -> 2, b -> 3."""
    s = sum({"a": 2, "b": 3}[g] * e for g, e in w.syllables)
    return product(w, gen("a", s), gen("b", -s))


@st.composite
def group_side_inputs(draw):
    """A presentation, its weights and N in 1..8, drawn to reach every
    route of the group side of cover homology.  Mostly
    ``reference.spelled_presentation`` of an m x m matrix B over Z[t, 1/t]
    (m <= 3, degree d <= 3, so d >= N happens) whose top coefficient B_d
    is unimodular, or only its bottom one B_0, or neither, or with a row
    added or removed (not square); up to two ±t^k pivots are mixed in,
    some in rows that also touch B, and some generators x_j are rewritten
    as x_j t^w, so that the weights and the generator of weight ±1 move;
    or t^N ends the first relator, so that the weights map onto Z/N but
    not onto Z, which both cover functions refuse.  Otherwise a
    presentation on a, b with weights 2, 3 (no weight ±1), or the spun
    trefoil at 6 | N, whose cover has free rank 3."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(("top", "bottom", "neither", "nonsquare", "unit-free", "spun")))
    if kind == "spun":
        return SPUN_TREFOIL, (1, 1), 6 * draw(st.integers(1, 3))
    if kind == "unit-free":
        rels = draw(st.lists(words(("a", "b"), max_size=6), max_size=3))
        return Presentation(("a", "b"), tuple(map(unit_free_relator, rels))), (2, 3), n
    rng = random.Random(draw(st.integers(0, 2**32)))
    m, d = rng.randint(1, 3), rng.randint(0, 3)
    grids = [[[rng.randint(-2, 2) for _ in range(m)] for _ in range(m)] for _ in range(d + 1)]
    unimodular = {"top": [d], "bottom": [0]}.get(kind, [])
    for k in unimodular:
        grids[k] = [list(row) for row in random_unimodular(rng, m, rng.randrange(8)).entries]
    for k in {0, d} - set(unimodular):
        grids[k][0] = [2 * x for x in grids[k][0]]  # an even determinant
    rows = [{j: laurent({k: grids[k][i][j] for k in range(d + 1)}) for j in range(m)}
            for i in range(m)]
    if kind == "nonsquare":
        rows = rows[1:] if rng.random() < 0.5 else rows + [rows[0]]
    for y in range(m, m + rng.randint(0, 2)):  # a column y with a ±t^k pivot
        for row in rows:
            if rng.random() < 0.5:
                row[y] = laurent({rng.randint(-1, 1): rng.choice((-2, -1, 1, 2))})
        pivot = {y: laurent({rng.randint(-2, 2): rng.choice((-1, 1))})}
        if rng.random() < 0.5:
            pivot[rng.randrange(m)] = laurent({rng.randint(0, 2): rng.randint(-2, 2)})
        rows.append(pivot)
    p = spelled_presentation(rows, 1 + max((j for row in rows for j in row), default=m - 1))
    weights = [1] + [0] * (len(p.generators) - 1)
    images = {}
    for j, g in enumerate(p.generators[1:], 1):
        if rng.random() < 0.3:
            weights[j] = rng.choice((-1, 1, 2))
            images[g] = product(gen(g), gen("t", -weights[j]))
    relators = tuple(substitute(r, images) for r in p.relators)
    if relators and rng.random() < 0.2:
        relators = (product(relators[0], gen("t", n)),) + relators[1:]
    order = rng.sample(range(len(weights)), len(weights))
    return (Presentation(tuple(p.generators[i] for i in order), relators),
            tuple(weights[i] for i in order), n)


# One input for each route: a 2 x 2 block with unimodular top end
# (I t^2 + ...), only a unimodular bottom end (1 + 2t, reversed), neither
# (2 + 3t), a ±t^k pivot left of a 1 x 1 block, a non-square block,
# d >= N, N = 1, no weight ±1, weights onto Z/N only (refused), and the
# spun trefoil at 6 | N.
@PROPERTY
@example((spelled({0: [1, 2, 1], 1: [0, 2]}, {0: [2], 1: [-1, 2, 1]}), (1, 0, 0), 5))
@example((spelled({0: [1, 2]}), (1, 0), 4))
@example((spelled({0: [2, 3]}), (1, 0), 4))
@example((spelled({0: [0, 1], 1: [1, 1]}, {0: [3], 1: [2, 1]}), (1, 0, 0), 3))
@example((spelled({0: [1, 1]}, {0: [2]}), (1, 0), 3))
@example((spelled({0: [1, 1, 0, 1]}), (1, 0), 2))
@example((spelled({0: [1, -1, 1]}), (1, 0), 1))
@example((Presentation(("a", "b"), (unit_free_relator(gen("a", 3)),)), (2, 3), 5))
@example((Presentation(("t", "x0"), (product(spelled({0: [1, 2]}).relators[0], gen("t", 5)),)),
          (1, 0), 5))
@example((SPUN_TREFOIL, (1, 1), 12))
@given(group_side_inputs())
def test_group_side_matches_the_rewritten_cover_reference(case):
    # Every route of cover_homology against the full-rescan elimination of
    # the exponent rows of the Reidemeister-Schreier presentation; weights
    # onto Z/N only (t^N ends the first relator) are refused by both.
    p, weights, n = case
    if not maps_onto(p, weights, n):
        refused_by_both(p, weights, n)
        return
    q = cyclic_cover_presentation(p, n, weights)
    want = cokernel_invariants_reference(dense(exponent_rows(q), len(q.generators)))
    assert cover_homology(p, n, weights) == want


@PROPERTY
@given(group_side_inputs())
def test_every_fox_column_less_the_cover_vertices_gives_the_group_side(case):
    # Where a weight is ±1 the group side drops that generator's column and
    # adds Z.  Keeping every column instead presents the homology of the
    # cover relative to its N vertices, so taking away Z^(N-1) must give
    # the same group: the claim of the unit-free route, checked without
    # the rewritten cover.
    p, weights, n = case
    assume(maps_onto(p, weights, n) and {1, -1} & set(weights))
    assert cover_homology(p, n, weights) == relative_cover_homology(p, n, weights)


UNITS = st.sampled_from((-1, 1))
NONUNITS = st.sampled_from((-3, -2, 2, 3))


@st.composite
def summands(draw):
    """A polynomial of degree 0 to 6 whose top coefficient is ±1, or
    whose only unit coefficient is the constant one (the reversed
    companion), or with no unit end coefficient (Kronecker rows at every
    N); its low exponent may be nonzero."""
    d = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(("top", "constant", "neither")))
    inner = st.integers(-3, 3) if kind == "top" else st.sampled_from((-3, -2, 0, 2, 3))
    coeffs = draw(st.lists(inner, min_size=d + 1, max_size=d + 1))
    ends = {"top": inner.filter(bool), "constant": UNITS, "neither": NONUNITS}
    coeffs[0] = draw(ends[kind])
    if d or kind == "top":
        coeffs[-1] = draw(UNITS if kind == "top" else NONUNITS)
    return from_coeffs(coeffs, draw(st.integers(-2, 2)))


SPUN_TREFOIL_MODULE = KnotModuleSpec("cyclic", polys=(from_coeffs([1, -1, 1]),))


@st.composite
def module_orders(draw):
    """A module spec and a cover order N in 1..64: a ``taction`` or
    ``tminus1`` matrix of rank 1 to 3 (any integer matrix: the identity
    needs no unimodularity), a ``cyclic`` summand, a ``sum`` of 2 or 3
    (companion and Kronecker blocks mixed, as N falls below some degrees),
    or the spun trefoil at 6 | N, whose cover module is free of rank 2."""
    kind = draw(st.sampled_from(("taction", "tminus1", "cyclic", "sum", "spun")))
    if kind == "spun":
        return SPUN_TREFOIL_MODULE, 6 * draw(st.integers(1, 10))
    n = draw(st.integers(1, 64))
    if kind in ("cyclic", "sum"):
        count = 1 if kind == "cyclic" else draw(st.integers(2, 3))
        return KnotModuleSpec(kind, polys=tuple(draw(summands()) for _ in range(count))), n
    r = draw(st.integers(1, 3))
    row = st.lists(st.integers(-3, 3), min_size=r, max_size=r)
    grid = draw(st.lists(row, min_size=r, max_size=r))
    return KnotModuleSpec(kind, matrix=matrix(grid)), n


@settings(PROPERTY, max_examples=300)  # about 4 ms an example
@given(module_orders())
def test_module_cover_homology_matches_the_kronecker_cokernel(case):
    """Z plus the cokernel of the module's presentation matrix with the
    N x N shift for t, by the full-rescan reference elimination."""
    spec, n = case
    coker = cokernel_invariants_reference(kronecker_matrix(spec, n))
    want = AbelianGroupInvariants(coker.free_rank + 1, coker.torsion)
    assert module_cover_homology(spec, n) == want


class BlockSpec:
    """A module presented by any square matrix over Z[t, 1/t], for the module
    side of cover homology and ``reference.kronecker_matrix``."""

    polys = ()

    def __init__(self, grid) -> None:
        self.grid = matrix(grid)

    def presentation_matrix(self) -> Matrix:
        return self.grid

    def lambda_rows(self) -> list[dict]:
        return [{j: dict(x.terms()) for j, x in enumerate(row) if not x.is_zero()}
                for row in self.grid.entries]


@st.composite
def modulus_blocks(draw, sizes=(3, 3, 40)):
    """An m x m matrix B over Z[t, 1/t] (m, its degree d and N up to
    ``sizes``; each row from t^-1, t^0 or t^1), drawn to reach the modulus
    route's cases: ends B_d and B_0 whose determinants a and c are coprime
    non-units ("any"); a first row (alpha, 0, ...) with alpha = t + t^2
    mod 2, so that 2 divides a, c and D ("shared"), or alpha = t mod 2, which
    leaves D odd ("split"); the first row times 1 + t at even N, so R = 0
    ("zero"); and for m >= 2 a first row of constants, so a = 0 after the
    row shift ("a0").  Unit ends and d >= N come up too.  The kinds that
    fold the Kronecker rows by design keep N <= 12."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(("any", "shared", "any", "split", "zero", "a0")))
    m, d = rng.randint(1, sizes[0]), rng.randint(1, sizes[1])
    n = rng.randint(1, sizes[2] if kind in ("any", "split", "a0") else min(sizes[2], 12))
    while True:  # about one try in four has coprime non-unit ends
        ends = [[[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)] for _ in range(d + 1)]
        a, c = det_int(matrix(ends[d])), det_int(matrix(ends[0]))
        if kind != "any" or abs(a) > 1 and abs(c) > 1 and gcd(a, c) == 1:
            break
    grid = [[from_coeffs([ends[k][i][j] for k in range(d + 1)], low) for j in range(m)]
            for i, low in enumerate(rng.choices((-1, 0, 1), k=m))]
    if kind in ("shared", "split"):
        beta = [rng.choice((-2, -1, 1, 2)) for _ in range(4)]
        odd = (0, 1, 1, 0) if kind == "shared" else (0, 1, 0, 0)
        grid[0] = [from_coeffs([2 * b + o for b, o in zip(beta, odd)])] + [ZERO] * (m - 1)
    elif kind == "zero":
        grid[0] = [x * from_coeffs([1, 1]) for x in grid[0]]
        n += n % 2
    elif kind == "a0" and m > 1:
        grid[0] = [from_coeffs([rng.choice((-3, -2, 2, 3))]) for _ in range(m)]
    return grid, n


TROTTER3 = [[from_coeffs([1 - x, x]) if i == j else from_coeffs([-x, x]) for j, x in enumerate(row)]
            for i, row in enumerate([[2, 1, 0], [0, 2, 1], [1, 0, 2]])]


# One input per case: gcd(a, c) = 2 with D odd; 2 dividing a, c and D (the
# fold); R = 0; a = 0 after the row shift (c = 4); the 3 x 3 Trotter form.
@PROPERTY
@example(([[from_coeffs([2, -3, 2])]], 7))
@example(([[from_coeffs([2, 3, 3, 2])]], 5))
@example(([[from_coeffs([2, 1, 2, 3])]], 6))
@example(([[from_coeffs([2, 1]), from_coeffs([1, 1])], [from_coeffs([2]), from_coeffs([3])]], 4))
@example((TROTTER3, 16))
@given(modulus_blocks())
def test_both_sides_of_a_block_match_the_kronecker_cokernel(case):
    # The group side of the spelled presentation (its Fox rows are B) and
    # the module side of B, against Z plus the full-rescan cokernel of B
    # with the N x N shift for t.
    grid, n = case
    spec = BlockSpec(grid)
    coker = cokernel_invariants_reference(kronecker_matrix(spec, n))
    want = AbelianGroupInvariants(coker.free_rank + 1, coker.torsion)
    p = spelled_presentation([{j: x for j, x in enumerate(row) if not x.is_zero()} for row in grid],
                             len(grid))
    assert cover_homology(p, n, (1,) + (0,) * len(grid)) == want
    assert module_cover_homology(spec, n) == want


@settings(PROPERTY, max_examples=40)  # sympy's determinant and resultant, about 10 ms an example
@example(([[from_coeffs([2, -3, 2])]], 7))
@example(([[from_coeffs([2, 1]), from_coeffs([1, 1])], [from_coeffs([2]), from_coeffs([3])]], 4))
@given(modulus_blocks(sizes=(2, 2, 12)))
def test_the_cover_order_is_the_resultant(case):
    # The order of coker B(C_N), which the modulus route computes by CRT,
    # against sympy: |Res(t^N - 1, det B)|, and infinite where it is 0.
    sympy = pytest.importorskip("sympy")
    grid, n = case
    t = sympy.Symbol("t")
    det = sympy.Matrix([[sum(c * t ** (e + 1) for e, c in x.terms()) for x in row] for row in grid]).det()
    res = abs(sympy.resultant(t ** n - 1, sympy.expand(det), t))
    rows = [{j: dict(x.terms()) for j, x in enumerate(row) if not x.is_zero()} for row in grid]
    coker = cokernel_invariants(*covers._cover_rows(rows, list(range(len(grid))), n))
    if res:
        assert coker.free_rank == 0 and prod(coker.torsion) == res
    else:
        assert coker.free_rank > 0


SHIFT = 2


def polys(nonzero=False):
    """Laurent polynomials of up to three terms from t^-SHIFT on; about
    half are zero unless ``nonzero``."""
    lead = st.sampled_from((-3, -2, -1, 1, 2, 3))
    poly = st.tuples(st.integers(-SHIFT, 0), lead, st.lists(st.integers(-3, 3), max_size=2)).map(
        lambda a: from_coeffs([a[1], *a[2]], a[0])
    )
    return poly if nonzero else st.one_of(st.just(ZERO), poly)


def squares(n, entry):
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)


@st.composite
def permuted(draw, grid):
    """``grid`` with its rows and its columns each permuted at random."""
    n = len(grid)
    rows = draw(st.permutations(range(n)))
    cols = draw(st.permutations(range(n)))
    return [[grid[i][j] for j in cols] for i in rows]


@st.composite
def block_diagonal(draw):
    """Blocks of size 1 to 3 on the diagonal, rows and columns permuted."""
    blocks = draw(st.lists(st.integers(1, 3).flatmap(lambda k: squares(k, polys())),
                           min_size=1, max_size=5))
    n = sum(len(b) for b in blocks)
    grid = [[ZERO] * n for _ in range(n)]
    start = 0
    for block in blocks:
        for i, row in enumerate(block):
            grid[start + i][start:start + len(row)] = row
        start += len(block)
    return draw(permuted(grid))


@st.composite
def with_zero_line(draw):
    """A matrix with one row or one column of zeros."""
    grid = draw(st.integers(1, 6).flatmap(lambda n: squares(n, polys())))
    k = draw(st.integers(0, len(grid) - 1))
    if draw(st.booleans()):
        grid[k] = [ZERO] * len(grid)
    else:
        for row in grid:
            row[k] = ZERO
    return grid


@st.composite
def bordered_core(draw):
    """A dense core of size 2 to 7 bordered by rows and columns that hold
    one nonzero entry each, permuted; peeling leaves the core to Bareiss."""
    grid = draw(st.integers(2, 7).flatmap(lambda k: squares(k, polys(nonzero=True))))
    for _ in range(draw(st.integers(1, 3))):
        n = len(grid)
        lone = draw(polys(nonzero=True))
        other = draw(st.lists(polys(), min_size=n, max_size=n))
        if draw(st.booleans()):  # new row (0, ..., 0, lone), new column arbitrary
            grid = [row + [x] for row, x in zip(grid, other)] + [[ZERO] * n + [lone]]
        else:  # new column (0, ..., 0, lone)^T, new row arbitrary
            grid = [row + [ZERO] for row in grid] + [other + [lone]]
    return draw(permuted(grid))


@st.composite
def sparse_units(draw):
    """Up to 6 x 6, each entry 0, +-t^k (k in -3..3) or a binomial of gap
    1 or 2: units that are not alone in their row or column, so the pivot
    loop clears their columns by row operations."""
    unit = st.builds(lambda s, k: from_coeffs([s], k), st.sampled_from((-1, 1)), st.integers(-3, 3))
    ends = st.sampled_from((-2, -1, 1, 2))
    binomial = st.builds(lambda a, b, gap, k: from_coeffs([a] + [0] * (gap - 1) + [b], k),
                         ends, ends, st.integers(1, 2), st.integers(-3, 1))
    entry = st.one_of(st.just(ZERO), st.just(ZERO), unit, unit, binomial)
    return draw(st.integers(1, 6).flatmap(lambda n: squares(n, entry)))


def sympy_det(grid):
    """The determinant from sympy's ``DomainMatrix`` over Z[t], after
    multiplying every entry by t^s, s = -(least low exponent), shifted
    back."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    ring = sympy.ZZ[sympy.Symbol("t")]
    n = len(grid)
    shift = max(-p.low for row in grid for p in row)
    cells = [
        [ring.ring.from_dict({(k + shift,): c for k, c in p.terms()}) for p in row]
        for row in grid
    ]
    det = DomainMatrix(cells, (n, n), ring).det()
    return laurent({k - shift * n: int(c) for (k,), c in det.terms()})


@PROPERTY
@given(st.one_of(block_diagonal(), sparse_units()))
def test_det_lambda_matches_sympy_block_diagonal(grid):
    assert det_lambda(matrix(grid)) == sympy_det(grid)


@PROPERTY
@given(with_zero_line())
def test_det_lambda_matches_sympy_zero_line(grid):
    assert det_lambda(matrix(grid)) == sympy_det(grid) == ZERO


@settings(PROPERTY, max_examples=40)  # each example runs two 3x3 to 10x10 determinants
@given(bordered_core())
def test_det_lambda_matches_sympy_bordered_core(grid):
    assert det_lambda(matrix(grid)) == sympy_det(grid)


@st.composite
def tietze_moves(draw):
    """A cyclic or sum Wirtinger form of polynomials 1 + (t - 1) beta,
    beta of degree 0 to 3, with the product of those polynomials; and the
    form after ``expand_length1`` and up to three introductions of new
    generators s1, s2, ... by words in the generators already there."""
    betas = draw(st.lists(st.lists(st.integers(-3, 3), min_size=1, max_size=4), min_size=1, max_size=3))
    polys = [from_coeffs([1 - b[0]] + [b[i - 1] - b[i] for i in range(1, len(b))] + [b[-1]])
             for b in betas]
    p = (realize_cyclic(polys[0]) if len(polys) == 1 else realize_sum(polys)).wirtinger_presentation
    expanded = draw(st.booleans())
    q = expand_length1(p) if expanded else p
    for k in range(1, draw(st.integers(0 if expanded else 1, 3)) + 1):
        q = introduce_generator(q, f"s{k}", draw(words(q.generators, max_size=4)))
    return p, q, prod(polys, start=ONE)


@PROPERTY
@given(tietze_moves())
def test_alexander_polynomial_is_a_tietze_invariant(case):
    # The elementary ideals of the Alexander matrix are Tietze invariants
    # (Crowell-Fox, ch. VII), so no module data is needed.
    p, q, alpha = case
    assert eq_up_to_unit(alexander_polynomial(p), alpha)
    assert eq_up_to_unit(alexander_polynomial(q), alpha)


SPUN = realize_cyclic(from_coeffs([1, -1, 1])).wirtinger_presentation
SPUN_S1 = introduce_generator(SPUN, "s1", IDENTITY)


@PROPERTY
@given(tietze_moves())
@example((SPUN, introduce_generator(SPUN_S1, "s2", IDENTITY), None))
@example((SPUN, introduce_generator(SPUN_S1, "s2", product(gen("s1"), gen("t", -1))), None))
def test_tietze_script_text_round_trip(case):
    # The introductions that built q, written as script text, rebuild q
    # from the form they started on; each one's elimination, in reverse
    # and naming the relator it appended, gives that form back.  An
    # empty word is 1.
    _, q, _ = case
    k = sum(g.startswith("s") for g in q.generators)
    n, r = len(q.generators) - k, len(q.relators) - k
    start = Presentation(q.generators[:n], q.relators[:r])
    intros = [(s, inverse(product(gen(s, -1), rel))) for s, rel in zip(q.generators[n:], q.relators[r:])]
    script = "".join(f"intro {s} {w}\n" for s, w in intros)
    assert apply_tietze_script(start, parse_tietze_script(script)) == q
    script += "".join(f"elim {s} {w} {r + i}\n" for i, (s, w) in reversed(list(enumerate(intros))))
    assert apply_tietze_script(start, parse_tietze_script(script)) == start


def runs(nonzero=False):
    """Laurent polynomials of up to eight terms, low exponent -4 to 4,
    their end coefficients often not units."""
    poly = st.builds(from_coeffs, st.lists(st.integers(-4, 4), max_size=8), st.integers(-4, 4))
    return poly.filter(lambda p: not p.is_zero()) if nonzero else poly


@PROPERTY
@given(runs(), runs(nonzero=True), runs())
@example(ONE, from_coeffs([-1, 1]), from_coeffs([0, 1, 2, 1], -2))
@example(from_coeffs([1, 1]), from_coeffs([2, 2]), ZERO)  # exact over Q, not over Z
def test_exact_division_matches_sympy(a, b, c):
    assert (c * b) // b == c
    with pytest.raises(ZeroDivisionError):
        a // ZERO
    # b divides a + b c where it divides a (a = 0, say): both outcomes
    # are drawn.  Shifted to low 0, b has a nonzero constant term, so it
    # divides over Z[t, 1/t] exactly when it divides over Z[t].
    a = a + b * c
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    shifted = [sympy.Poly(p.coeffs[::-1], t, domain=sympy.ZZ) for p in (a, b)]
    q, r = shifted[0].div(shifted[1], auto=False)
    if r.is_zero:
        assert a // b == from_coeffs([int(x) for x in q.all_coeffs()[::-1]], a.low - b.low)
    else:
        with pytest.raises(ValueError, match="inexact polynomial division"):
            a // b


# The CLI's exit-code contract, at small sizes only: exponents of at most
# 9 and budgets that end every search at once.  A name may be invalid, an
# exponent 0 or not a number, a matrix ragged, a module kind unknown; each
# file is a corpus one, which reaches the library, half the time.
CLI_NAMES = st.sampled_from(("t", "x", "y", "u1", "b_2", "1x", "x-y"))
CLI_WORDS = st.lists(
    st.builds(
        str.__add__, CLI_NAMES,
        st.one_of(st.sampled_from(("", "^0", "^x")), st.integers(-9, 9).map("^{}".format)),
    ),
    max_size=4,
).map(" ".join)
CORPUS = Path(cli.__file__).with_name("corpus")
CLI_INTS = st.lists(st.integers(-3, 3).map(str), min_size=1, max_size=4)
CLI_COEFFS = st.one_of(st.sampled_from(("1,-1,1", "2,-3,2", "-1,1,1", "1,x")), CLI_INTS.map(",".join))
CLI_POLY_LINES = st.builds(
    lambda low, cs: " ".join(("poly", str(low), *cs)), st.integers(-2, 2), CLI_INTS
)
CLI_MODULE_LINES = st.one_of(
    CLI_POLY_LINES.map("module cyclic {}".format),
    st.lists(CLI_POLY_LINES, min_size=2, max_size=3).map(lambda ps: "module sum " + ";".join(ps)),
    st.sampled_from(("trotter", "tminus1", "taction", "knot")).map("module {} m.mat".format),
)
CLI_SCRIPT_LINES = st.one_of(
    CLI_WORDS.map("intro s1 {}".format),
    st.builds("elim {} {} {}".format, CLI_NAMES, CLI_WORDS, st.integers(-1, 3)),
    st.just("swap x"),
)
CLI_ORDERS = st.builds(
    str.__add__, st.lists(st.integers(1, 9).map(str), min_size=1, max_size=3).map(",".join),
    st.sampled_from(("", ",0")),
)
COSET_BUDGET = ("--max-cosets", "50")
AC_BUDGET = ("--max-len", "8", "--max-depth", "2", "--max-nodes", "200")


@st.composite
def cli_presentations(draw):
    gens = " ".join(draw(st.lists(CLI_NAMES, min_size=1, max_size=3)))
    rels = "".join(f"rel {w}\n" for w in draw(st.lists(CLI_WORDS, max_size=3)))
    return f"gens {gens}\n{rels}" + draw(st.sampled_from(("", "junk\n", "gens t\n")))


@st.composite
def cli_matrices(draw):
    """An n x n matrix file, n <= 3, whose rows are ragged half the time."""
    n = draw(st.integers(1, 3))
    lengths = st.just(n) if draw(st.booleans()) else st.integers(1, 3)
    rows = [" ".join(draw(st.lists(st.integers(-3, 3).map(str), min_size=k, max_size=k)))
            for k in draw(st.lists(lengths, min_size=n, max_size=n))]
    return "\n".join((f"{n} {n}", *rows)) + "\n"


@st.composite
def cli_inputs(draw):
    """The files the subcommands read, by name, and one argv for each."""
    case = draw(st.sampled_from(("spun_trefoil", "trotter_2", "lemma4_companion", "lemma3_companion")))
    matrix_file = "trotter_2.mat" if case == "spun_trefoil" else f"{case}.mat"
    files = {
        "p.pres": (CORPUS / f"{case}.pres").read_text(),
        "m.mat": (CORPUS / matrix_file).read_text(),
        "s.module": (CORPUS / f"{case}.module").read_text().replace(f"{case}.mat", "m.mat"),
        "s.tz": (CORPUS / "yoshikawa.tz").read_text(),
    }
    generated = {
        "p.pres": cli_presentations(), "m.mat": cli_matrices(),
        "s.module": CLI_MODULE_LINES.map("{}\n".format),
        "s.tz": st.lists(CLI_SCRIPT_LINES, max_size=3).map(lambda ls: "".join(f"{ln}\n" for ln in ls)),
    }
    for name, strategy in generated.items():
        if draw(st.booleans()):
            files[name] = draw(strategy)
    name = draw(st.sampled_from(("t", "x", "1x")))
    realize = draw(st.sampled_from(("cyclic", "sum", "trotter", "lemma4", "lemma3")))
    coeffs = ";".join(draw(st.lists(CLI_COEFFS, min_size=1, max_size=3)))
    orders = draw(CLI_ORDERS)
    emit = draw(st.sampled_from(("hnn", "wirtinger", "both")))
    argvs = [
        ["realize", realize, *(("--coeffs", coeffs) if realize in ("cyclic", "sum") else ("-m", "m.mat")),
         "--emit", emit],
        ["alex", "p.pres"],
        ["covers", "p.pres", "-N", orders, *draw(st.sampled_from(((), ("--module", "s.module"))))],
        ["tc", "p.pres", "--subgroup", ";".join(draw(st.lists(CLI_WORDS, max_size=2))), *COSET_BUDGET],
        ["ac-search", "p.pres", "--kill", name, *AC_BUDGET],
        ["lot", "p.pres"],
        ["tietze", "p.pres", "--script", "s.tz"],
        ["verify", "p.pres", "--module", "s.module", "-N", orders, "--meridian", name, *COSET_BUDGET],
    ]
    return files, argvs


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@settings(PROPERTY, max_examples=100)  # eight invocations an example
@given(cli_inputs())
def test_cli_exit_codes_on_generated_input(cli_dir, case):
    """Every subcommand exits 0, 1, 2 or 3, nothing escapes main, and
    exit 3 comes with exactly one stderr line, ``error: ...``."""
    files, argvs = case
    for name, text in files.items():
        (cli_dir / name).write_text(text)
    for argv in argvs:
        argv = [str(cli_dir / arg) if arg in files else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 1, 2, 3), argv
        if code == 3:
            assert re.fullmatch(r"error: [^\n]*\n", err.getvalue()), (argv, err.getvalue())
