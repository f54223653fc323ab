from collections import Counter
from math import prod

import pytest

from ribbonknots import covers, presentations, words
from ribbonknots.constructions import (
    KnotModuleSpec,
    cyclic_module,
    matrix_module,
    parse_module_spec,
    realize_cyclic,
    realize_trotter,
)
from ribbonknots.covers import (
    cover_homology,
    cyclic_cover_presentation,
    module_cover_homology,
)
from ribbonknots.intlinalg import AbelianGroupInvariants, cokernel_invariants, matrix
from ribbonknots.laurent import from_coeffs, laurent
from ribbonknots.presentations import (
    Presentation,
    abelianization,
    exponent_rows,
    parse_presentation,
    weight_vector,
)
from reference import (
    CountingRow,
    cokernel_invariants_reference,
    compare_realization,
    count_calls,
    cyclic_alpha,
    dense,
    expanded_cyclic_form,
    kronecker_matrix,
    matmul,
    record_cokernel_calls,
    spelled_presentation,
    t_action,
)

SPUN_TREFOIL = parse_presentation("gens t u\nrel u^-1 t u t u^-1 t^-1")
SPUN_WEIGHTS = weight_vector(SPUN_TREFOIL)
RANK3_TROTTER = [[-2, -1, 1], [0, -1, 1], [-1, -2, -1]]


def test_cover_presentation_counts():
    for n in (2, 3, 5):
        q = cyclic_cover_presentation(SPUN_TREFOIL, n, SPUN_WEIGHTS)
        assert len(q.generators) == n * 2 - (n - 1)
        assert len(q.relators) == n * 1


def test_order_one_cover_is_the_group():
    q = cyclic_cover_presentation(SPUN_TREFOIL, 1, SPUN_WEIGHTS)
    assert abelianization(q) == abelianization(SPUN_TREFOIL)


def test_spun_trefoil_cover_homology():
    assert cover_homology(SPUN_TREFOIL, 2, SPUN_WEIGHTS) == AbelianGroupInvariants(1, (3,))
    assert cover_homology(SPUN_TREFOIL, 3, SPUN_WEIGHTS) == AbelianGroupInvariants(1, (2, 2))
    assert cover_homology(SPUN_TREFOIL, 6, SPUN_WEIGHTS) == AbelianGroupInvariants(3)


def test_module_oracle_matches_by_hand():
    spec = cyclic_module(from_coeffs([1, -1, 1]))
    assert module_cover_homology(spec, 2) == AbelianGroupInvariants(1, (3,))
    assert module_cover_homology(spec, 3) == AbelianGroupInvariants(1, (2, 2))
    assert module_cover_homology(spec, 6) == AbelianGroupInvariants(3)
    spec = matrix_module("trotter", matrix([[2]]))
    assert module_cover_homology(spec, 3) == AbelianGroupInvariants(1, (7,))
    with pytest.raises(ValueError, match="^cover order must be >= 1$"):
        module_cover_homology(spec, 0)


def test_compare_realization_agrees():
    res = realize_cyclic(from_coeffs([1, -1, 1]))
    triples = compare_realization(res, [2, 3, 6])
    assert all(group == module for _, group, module in triples)
    assert [n for n, _, _ in triples] == [2, 3, 6]
    res = realize_trotter(matrix([[2]]))
    assert all(group == module for _, group, module in compare_realization(res, [2, 3, 4]))


def test_free_rank_at_least_one():
    res = realize_cyclic(from_coeffs([2, -3, 2]))
    for _, group, module in compare_realization(res, [2, 3, 4]):
        assert group == module
        assert group.free_rank >= 1


def test_explicit_weights_and_errors():
    q = cyclic_cover_presentation(SPUN_TREFOIL, 2, weights=(1, 1))
    assert abelianization(q) == AbelianGroupInvariants(1, (3,))
    with pytest.raises(ValueError):
        cyclic_cover_presentation(SPUN_TREFOIL, 0, SPUN_WEIGHTS)
    with pytest.raises(ValueError):
        cyclic_cover_presentation(SPUN_TREFOIL, 2, weights=(1,))


def test_weights_must_map_onto_the_cyclic_group():
    # (2, 2) sends the spun trefoil into the zero subgroup of Z/2, so the
    # rewrite would give two disjoint copies of the group, not the kernel.
    # (1, -2) is (1, 1) mod 3, a map onto Z/3 that is not one onto Z: the
    # relator's weighted sum is 3.  Both functions refuse such weights.
    for weights, n in (((2, 2), 2), ((3, 3), 6), ((1, 2), 3), ((1, -2), 3)):
        with pytest.raises(ValueError, match="onto"):
            cover_homology(SPUN_TREFOIL, n, weights)
        with pytest.raises(ValueError, match="onto"):
            cyclic_cover_presentation(SPUN_TREFOIL, n, weights)
    # (-1, -1): a valid map that is not the weight vector.
    assert cover_homology(SPUN_TREFOIL, 3, (-1, -1)) == AbelianGroupInvariants(1, (2, 2))


@pytest.mark.parametrize("spec, want", [
    (matrix_module("trotter", matrix([[2, 1, 0], [0, 2, 1], [1, 0, 2]])),
     {3: (2, 266), 64: (1261, 9349868816554519625331753120911942387163825692761235298095)}),
    (matrix_module("tminus1", matrix([[0, 1], [1, 1]])), {3: (4, 4), 64: (10610209857723, 53051049288615)}),
    (matrix_module("taction", matrix([[0, 1], [-1, 1]])), {3: (2, 2), 64: (3,)}),
], ids=["trotter", "tminus1", "taction"])
def test_module_side_of_a_pencil_builds_no_laurent_polynomial(spec, want, monkeypatch):
    # The module side reads the spec's sparse rows over Z[t, 1/t]: no grid
    # of Laurent polynomials is built and taken apart again.
    grids = []
    original = KnotModuleSpec.presentation_matrix
    monkeypatch.setattr(KnotModuleSpec, "presentation_matrix",
                        lambda self: grids.append(self) or original(self))
    calls, patched = count_calls(monkeypatch, laurent)
    assert patched
    for n in (3, 64):
        assert module_cover_homology(spec, n) == AbelianGroupInvariants(1, want[n])
    assert grids == [] and calls == []


def test_rank3_trotter_n64_sides_agree():
    # 192 x 192 module matrix; the group side is a 192 x 193 exponent
    # matrix.  Each side took seconds with the dense, transform-tracking SNF.
    res = realize_trotter(matrix(RANK3_TROTTER))
    p = res.verification_presentation()
    group = cover_homology(p, 64, weight_vector(p))
    assert group == module_cover_homology(res.module_spec, 64)


def test_corpus_spun_trefoil_n6_singular_module_side(corpus):
    # 1 - t + t^2 divides t^6 - 1, so the 6 x 6 module matrix is singular.
    p = parse_presentation((corpus / "spun_trefoil.pres").read_text())
    spec = parse_module_spec(
        (corpus / "spun_trefoil.module").read_text(), lambda rel: (corpus / rel).read_text()
    )
    group = cover_homology(p, 6, weight_vector(p))
    assert group == module_cover_homology(spec, 6) == AbelianGroupInvariants(3)


def corpus_case(corpus, name):
    p = parse_presentation((corpus / f"{name}.pres").read_text())
    spec = parse_module_spec(
        (corpus / f"{name}.module").read_text(), lambda rel: (corpus / rel).read_text()
    )
    return p, spec


def cover_cases(corpus):
    """The four corpus modules and rank-3 Trotter."""
    cases = [
        corpus_case(corpus, name)
        for name in ("lemma3_companion", "lemma4_companion", "spun_trefoil", "trotter_2")
    ]
    res = realize_trotter(matrix(RANK3_TROTTER))
    return cases + [(res.verification_presentation(), res.module_spec)]


@pytest.mark.parametrize("n", (2, 7, 24, 64))
def test_cover_matrices_match_full_rescan_reference(n, corpus, monkeypatch):
    # Every cokernel both sides take, for the four corpus modules and
    # rank-3 Trotter, against the elimination that rescans every nonzero;
    # and each presents its side's group: the cokernel of the module's
    # Kronecker matrix, and Z less than the rewritten cover's homology.
    cases = cover_cases(corpus)
    weights = [weight_vector(p) for p, _ in cases]  # it may take a cokernel too
    handed = record_cokernel_calls(monkeypatch)
    for (p, spec), w in zip(cases, weights):
        cover_homology(p, n, w)
        module_cover_homology(spec, n)
    assert len(handed) == 2 * len(cases)
    for rows, cols, got in handed:
        # The same pivots, so the same entries written.
        work, want = Counter(), Counter()
        cokernel_invariants([CountingRow(row, work) for row in rows], cols)
        assert got == cokernel_invariants_reference(dense(rows, cols), want)
        assert work == want
    for (p, spec), w, group, module in zip(cases, weights, handed[::2], handed[1::2]):
        q = cyclic_cover_presentation(p, n, w)
        rewritten = cokernel_invariants_reference(dense(exponent_rows(q), len(q.generators)))
        assert AbelianGroupInvariants(group[2].free_rank + 1, group[2].torsion) == rewritten
        assert module[2] == cokernel_invariants_reference(kronecker_matrix(spec, n))


def test_trotter_cover_elimination_does_no_more_work_than_the_reference_order():
    # The Kronecker rows of both sides of the 3x3 Trotter form at N = 128
    # (the rewritten cover's exponent rows and the module's Kronecker
    # matrix, which the sides handed in before they took the modulus
    # route), counted by CountingRow rows: in the full-rescan reference's
    # pivot order the group side writes 38,006 entries and the module side
    # 44,407, none over 386 bits.  A unit pivot search that did not track
    # falling Markowitz costs wrote 79,888 on the module side, and more at
    # larger N.
    res = realize_trotter(matrix([[2, 1, 0], [0, 2, 1], [1, 0, 2]]))
    p = res.wirtinger_presentation
    q = cyclic_cover_presentation(p, 128, weight_vector(p))
    module = kronecker_matrix(res.module_spec, 128)
    handed = [(exponent_rows(q), len(q.generators)),
              ([dict(enumerate(row)) for row in module.entries], module.cols)]
    work = [Counter(), Counter()]
    for (rows, cols), w in zip(handed, work):
        cokernel_invariants([CountingRow({j: x for j, x in row.items() if x}, w) for row in rows], cols)
    assert work[0]["writes"] <= 38006 and work[1]["writes"] <= 44407, work
    assert max(w["bits"] for w in work) <= 386, work


@pytest.mark.parametrize("n", (1, 2, 3, 6, 7, 12, 24))
def test_module_rows_match_dense_kronecker_reference(n, corpus, monkeypatch):
    # Every kind goes through its presentation matrix B.  Where B has
    # degree d >= N (all five at N = 1, the spun trefoil at N = 2) the
    # sparse row (i, a) is row i N + a of the dense Kronecker grid, entry
    # for entry.  Else a cyclic or taction/tminus1 module, whose B has a
    # unimodular end, hands T^N - I, T^N taken as N products with the
    # reference t-action (at 6 | N the spun trefoil's is zero); and a
    # Trotter pencil hands an md x md matrix with the Kronecker cokernel:
    # T^N - I for trotter_2 (I - M = -1), the modulus route's invariant
    # factors for the rank-3 form (det M = -6, det(I - M) = 19).
    handed = record_cokernel_calls(monkeypatch)
    folds = 0
    for _, spec in cover_cases(corpus):
        module_cover_homology(spec, n)
        rows, cols, got = handed.pop()
        assert all(0 not in row.values() for row in rows)
        m = spec.presentation_matrix().rows
        if n <= max(len(x.coeffs) - 1 for row in spec.presentation_matrix().entries for x in row):
            folds += 1
            assert dense(rows, cols) == kronecker_matrix(spec, n)
        elif spec.kind == "trotter":
            assert len(rows) == cols == m
            assert got == cokernel_invariants_reference(kronecker_matrix(spec, n))
        else:
            t = t_action(spec)
            power = matrix([[int(i == j) for j in range(t.cols)] for i in range(t.rows)])
            for _ in range(n):
                power = matmul(power, t)
            want = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(power.entries)]
            assert dense(rows, cols) == matrix(want)
    assert folds == {1: 5, 2: 1}.get(n, 0)


def test_module_side_of_a_z_free_module_does_not_grow_with_the_order(corpus, monkeypatch):
    # A module that is Z^d with t acting by T hands cokernel_invariants the
    # d x d rows of T^N - I: 4 entries on N = 8 -> 1024 for each of these
    # rank-2 modules, where the Kronecker rows held 24 -> 3,072 (spun
    # trefoil).  Their bits grow with the spectral radius of T: 11, 22,
    # 44, ..., 1,422 for lemma4 (the golden ratio), 2 throughout for the
    # other two (T^6 = I).
    handed = record_cokernel_calls(monkeypatch)
    for name in ("lemma4_companion", "lemma3_companion", "spun_trefoil"):
        _, spec = corpus_case(corpus, name)
        d = t_action(spec).rows
        counts, bits = [], []
        for n in (8, 16, 32, 64, 128, 256, 512, 1024):
            module_cover_homology(spec, n)
            rows, _, _ = handed.pop()
            counts.append(sum(map(len, rows)))
            bits.append(max(abs(x).bit_length() for row in rows for x in row.values()))
        assert max(counts) <= d * d, (name, counts)
        assert all(b1 <= 2.2 * b0 for b0, b1 in zip(bits, bits[1:])), (name, bits)


def test_cover_work_grows_linearly_in_the_order(corpus, monkeypatch):
    # Entries handed to cokernel_invariants by each side on the ladder
    # N = 8, 16, 32, 64: one count at every N where a side hands T^N - I or
    # the modulus route's factors (4 for the spun trefoil and
    # lemma4_companion on both sides, 1 for trotter_2, 3 for the 3x3
    # Trotter form), where its Kronecker rows held 102, 198, 390, 774 on
    # the group side and 96, 192, 384, 768 on the module side; and linear
    # in N where the group side folds the block left by its ±t^k pivots:
    # a non-square one (2 rows over x0, 1 + t and 2) holds 3N entries, where
    # a dense grid grows fourfold per doubling.
    cases = [corpus_case(corpus, name) for name in ("spun_trefoil", "lemma4_companion", "trotter_2")]
    res = realize_trotter(matrix([[2, 1, 0], [0, 2, 1], [1, 0, 2]]))
    cases.append((res.wirtinger_presentation, res.module_spec))
    weights = [weight_vector(p) for p, _ in cases]
    folded = spelled_presentation([{0: from_coeffs([1, 1])}, {0: from_coeffs([2])}], 1)
    normalized, patched = count_calls(monkeypatch, words.normalize)
    assert "ribbonknots.covers" in patched
    handed = record_cokernel_calls(monkeypatch)
    for (p, spec), w in zip(cases, weights):
        counts = set()
        for n in (8, 16, 32, 64):
            cover_homology(p, n, w)
            module_cover_homology(spec, n)
            counts.add(tuple(sum(map(len, rows)) for rows, _, _ in handed[-2:]))
        assert len(counts) == 1 and max(max(c) for c in counts) <= 9, counts
    counts = []
    for n in (8, 16, 32, 64):
        cover_homology(folded, n, (1, 0))
        counts.append(sum(map(len, handed[-1][0])))
    assert counts == [3 * n for n in (8, 16, 32, 64)], counts
    assert not normalized


def test_group_side_of_a_unit_end_form_does_not_grow_with_the_order(corpus, monkeypatch):
    # Once its ±t^k pivots are gone, each of these forms leaves a block
    # with a unimodular end, so the group side hands cokernel_invariants
    # T^N - I of one size on N = 8 -> 1024: 2 x 2 with 4 entries, where
    # the spun trefoil's Kronecker rows held 27, 51, 99, 195 entries on
    # N = 8 -> 64.  Bits grow with the spectral radius of T, as on the
    # module side: 12, 23, 45, ..., 1,423 for lemma4, 2 for the others.
    handed = record_cokernel_calls(monkeypatch)
    for name in ("spun_trefoil", "lemma4_companion", "lemma3_companion"):
        p, _ = corpus_case(corpus, name)
        weights = weight_vector(p)
        handed.clear()
        shapes, bits = set(), []
        for n in (8, 16, 32, 64, 128, 256, 512, 1024):
            cover_homology(p, n, weights)
            [(rows, cols, _)] = handed[-1:]
            shapes.add((len(rows), cols, sum(map(len, rows))))
            bits.append(max(abs(x).bit_length() for row in rows for x in row.values()))
        assert len(handed) == 8 and len(shapes) == 1, (name, shapes)
        ((r, c, entries),) = shapes
        assert r == c and entries <= c * c, (name, shapes)
        assert all(b1 <= 2.2 * b0 for b0, b1 in zip(bits, bits[1:])), (name, bits)


def test_the_companion_route_builds_no_schreier_transversal(corpus, monkeypatch):
    # The group side needs only the weight map, whichever route the block
    # left takes: T^N - I (the corpus forms), the modulus route (the 3 x 3
    # Trotter form) or the fold (d >= N for it at N = 1; every Fox column
    # kept where no weight is ±1, as for a, b -> 2, 3 and 3, 2 below).
    # Only cyclic_cover_presentation numbers the Schreier generators.
    builds, _ = count_calls(monkeypatch, covers._transversal)
    for name in ("spun_trefoil", "lemma4_companion", "lemma3_companion"):
        p, _ = corpus_case(corpus, name)
        weights = weight_vector(p)
        for n in (8, 16, 32, 64, 128, 256, 512, 1024):
            cover_homology(p, n, weights)
    p = realize_trotter(matrix([[2, 1, 0], [0, 2, 1], [1, 0, 2]])).verification_presentation()
    for n in (1, 8):
        cover_homology(p, n, weight_vector(p))
    for word, weights in (("a^3 b^-2", (2, 3)), ("a^2 b^-3", (3, 2))):
        for n in (1, 8, 64):
            cover_homology(Presentation(("a", "b"), (words.parse_word(word),)), n, weights)
    assert not builds
    cyclic_cover_presentation(SPUN_TREFOIL, 8, SPUN_WEIGHTS)
    assert builds


def test_cover_homology_calls_no_rewrite_and_no_abelianization(corpus, monkeypatch):
    # Every group side goes through the Fox rows over Z[t, 1/t]: no package
    # code rewrites the cover, numbers its Schreier generators or
    # abelianizes a presentation, on the corpus forms, the 3 x 3 Trotter
    # form or a^2 b^-3, which has no generator of weight ±1.
    forms = [parse_presentation(path.read_text()) for path in sorted(corpus.glob("*.pres"))]
    forms += [realize_trotter(matrix([[2, 1, 0], [0, 2, 1], [1, 0, 2]])).wirtinger_presentation,
              parse_presentation("gens a b\nrel a^2 b^-3")]
    weights = [weight_vector(p) for p in forms]  # it may abelianize
    guarded = (covers.cyclic_cover_presentation, covers._transversal, presentations.abelianization)
    counts = [count_calls(monkeypatch, f) for f in guarded]
    assert all(patched for _, patched in counts)
    for p, w in zip(forms, weights):
        for n in (1, 2, 7, 64):
            cover_homology(p, n, w)
    assert [calls for calls, _ in counts] == [[], [], []]


@pytest.mark.parametrize("rows, n, size", [
    ([{0: [1, 2, 1], 1: [0, 2]}, {0: [2], 1: [-1, 2, 1]}], 5, 4),  # B_2 = I: 2 x 2, d = 2
    ([{0: [1, 2]}], 4, 1),  # only the bottom end is a unit: the reversed companion
    ([{0: [2, 3]}], 4, 1),  # no unit end, D = 65: the modulus route
    ([{0: [0, 1], 1: [1, 1]}, {0: [3], 1: [2, 1]}], 3, 2),  # the pivot t, then 1 x 1, d = 2
    ([{0: [1, 1]}, {0: [2]}], 3, 3),  # two rows, one column: the fold, N columns
    ([{0: [1, 1, 0, 1]}], 2, 2),  # d = 3 >= N: the fold
    ([{0: [2, 1, 2, 3]}], 6, 6),  # (1 + t)(2 - t + 3t^2): R = 0 at even N, the fold
    ([{0: [2, 3, 3, 2]}], 4, 4),  # a = c = 2 and 2 | D: the fold
    ([{0: [2, 1], 1: [1, 1]}, {0: [2], 1: [3]}], 4, 2),  # a = 0, c = 4: the modulus route
])
def test_group_side_route(rows, n, size, monkeypatch):
    # The relators of spelled_presentation have these Fox rows over x0, x1
    # (coefficients from t^0) at weights t -> 1, x -> 0.  The group side
    # hands T^N - I or the modulus route's factors, md x md, or the fold of
    # the block, m N columns.
    p = spelled_presentation([{j: from_coeffs(c) for j, c in row.items()} for row in rows],
                             max(j for row in rows for j in row) + 1)
    weights = (1,) + (0,) * (len(p.generators) - 1)
    handed = record_cokernel_calls(monkeypatch)
    cover_homology(p, n, weights)
    [(_, cols, _)] = handed
    assert cols == size


def test_modulus_route_does_not_grow_with_the_order(monkeypatch):
    # Neither the 3 x 3 Trotter form (det M = 9, det(I - M) = -2; both
    # sides) nor the degree-40 cyclic module (ends -11 and -14) has a
    # unimodular end, so on N = 64 -> 1,024 they take the modulus route.
    # cokernel_invariants gets the md x md diagonal of the invariant
    # factors (3 x 3, 40 x 40), T^N - I mod D_1 and mod D_2 is md x md too,
    # and no Kronecker row is folded (they held 3N x 3N entries).  The order
    # D, the product of those moduli, has 203, 406, 812, 1,624 and 3,247 bits
    # on the Trotter form, 366, 725, 1,447, 2,897 and 5,795 on degree 40.
    folds, _ = count_calls(monkeypatch, covers._fold)
    moduli = []
    original = covers._power_minus_identity

    def recording(end, n, q=0):
        rows = original(end, n, q)
        if q > 1 and q not in covers._PRIMES:  # mod D_1 or D_2, not a CRT prime
            moduli.append((q, len(rows), {len(r) for r in rows}))
        return rows

    monkeypatch.setattr(covers, "_power_minus_identity", recording)
    handed = record_cokernel_calls(monkeypatch)
    res = realize_trotter(matrix([[2, 1, 0], [0, 2, 1], [1, 0, 2]]))
    p = res.wirtinger_presentation
    weights = weight_vector(p)
    sides = [(lambda n: cover_homology(p, n, weights), 3),
             (lambda n: module_cover_homology(res.module_spec, n), 3),
             (lambda n: module_cover_homology(KnotModuleSpec("cyclic", polys=(cyclic_alpha(40),)), n), 40)]
    for side, md in sides:
        bits = []
        for n in (64, 128, 256, 512, 1024):
            moduli.clear()
            side(n)
            rows, cols, _ = handed[-1]
            assert len(rows) == cols == md and not folds, (md, n, len(rows), cols)
            assert moduli and all((k, widths) == (md, {md}) for _, k, widths in moduli), moduli
            bits.append(prod(q for q, _, _ in moduli).bit_length())
            assert all(b1 <= 2.2 * b0 for b0, b1 in zip(bits, bits[1:])), (md, bits)


def test_the_crt_primes_are_the_61_bit_primes_from_the_top():
    # The modulus route's CRT primes, found by Miller-Rabin as first needed,
    # against sympy: each is prime, has 61 bits, and is the prime just
    # below the one before it.
    sympy = pytest.importorskip("sympy")
    module_cover_homology(KnotModuleSpec("cyclic", polys=(from_coeffs([2, -3, 2]),)), 100)
    assert len(covers._PRIMES) >= 4
    for p, below in zip(covers._PRIMES, [2**61] + covers._PRIMES):
        assert sympy.isprime(p) and p.bit_length() == 61 and sympy.prevprime(below) == p


class CountingLambdaRow(dict):
    """A row of the Laurent elimination that counts, in ``work``, the
    entries written into it."""

    def __init__(self, entries, work: Counter) -> None:
        super().__init__(entries)
        self.work = work

    def __setitem__(self, g, f) -> None:
        self.work["writes"] += 1
        super().__setitem__(g, f)


class CountingRows(list):
    """The row list of the Laurent elimination, which counts in ``work``
    the rows read from it."""

    def __init__(self, rows, work: Counter) -> None:
        super().__init__(CountingLambdaRow(row, work) for row in rows)
        self.work = work

    def __getitem__(self, i):
        self.work["visits"] += 1
        return super().__getitem__(i)

    def __iter__(self):
        self.work["visits"] += len(self)
        return super().__iter__()


def test_unit_pivot_elimination_work_is_linear_in_the_relator_letters(monkeypatch):
    # On the expand_length1 forms of cyclic realizations of degree 5 -> 40
    # (432 -> 3,256 relator letters), the group side eliminates every
    # ±t^k pivot over Z[t, 1/t] before N enters: 107, 408, 816, 1,624
    # entries written and 645, 1,233, 2,457, 4,881 row visits.  A pivot
    # search that rescans the rows for each pivot made 6,423 -> 335,772.
    work = Counter()
    original = covers._unit_pivots
    monkeypatch.setattr(covers, "_unit_pivots",
                        lambda rows, cols: original(CountingRows(rows, work), cols))
    ladder = []
    for d in (5, 10, 20, 40):
        p = expanded_cyclic_form(d)
        work.clear()
        cover_homology(p, 2, weight_vector(p))
        letters = sum(len(r) for r in p.relators)
        ladder.append((letters, work["writes"], work["visits"]))
        assert work["writes"] <= letters and work["visits"] <= 2 * letters, ladder
    for (l0, w0, v0), (l1, w1, v1) in zip(ladder, ladder[1:]):
        assert w1 <= 2.2 * w0 * l1 / l0 and v1 <= 2.2 * v0 * l1 / l0, ladder
