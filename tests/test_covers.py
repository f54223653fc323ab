from collections import Counter

import pytest

from ribbonknots import covers, words
from ribbonknots.constructions import (
    cyclic_module,
    parse_module_spec,
    realize_cyclic,
    realize_trotter,
    trotter_module,
)
from ribbonknots.covers import (
    CoverReport,
    cover_homology,
    cyclic_cover_presentation,
    module_cover_homology,
)
from ribbonknots.intlinalg import AbelianGroupInvariants, cokernel_invariants, matrix
from ribbonknots.laurent import from_coeffs
from ribbonknots.presentations import abelianization, parse_presentation, weight_vector
from reference import (
    CountingRow,
    cokernel_invariants_reference,
    compare_realization,
    count_calls,
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
    spec = trotter_module(matrix([[2]]))
    assert module_cover_homology(spec, 3) == AbelianGroupInvariants(1, (7,))


def test_compare_realization_agrees():
    res = realize_cyclic(from_coeffs([1, -1, 1]))
    reports = compare_realization(res, [2, 3, 6])
    assert all(r.agrees for r in reports)
    assert [r.order for r in reports] == [2, 3, 6]
    res = realize_trotter(matrix([[2]]))
    assert all(r.agrees for r in compare_realization(res, [2, 3, 4]))


def test_report_str_and_mismatch():
    ok = CoverReport(2, AbelianGroupInvariants(1), AbelianGroupInvariants(1))
    bad = CoverReport(2, AbelianGroupInvariants(1), AbelianGroupInvariants(2))
    assert "ok" in str(ok) and "MISMATCH" in str(bad)
    assert not bad.agrees


def test_free_rank_at_least_one():
    res = realize_cyclic(from_coeffs([2, -3, 2]))
    for rep in compare_realization(res, [2, 3, 4]):
        assert rep.agrees
        assert rep.group_invariants.free_rank >= 1


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
    for weights, n in (((2, 2), 2), ((3, 3), 6), ((1, 2), 3)):
        with pytest.raises(ValueError, match="onto"):
            cover_homology(SPUN_TREFOIL, n, weights)
        with pytest.raises(ValueError, match="onto"):
            cyclic_cover_presentation(SPUN_TREFOIL, n, weights)
    # (1, -2) is (1, 1) mod 3: a valid map that is not the weight vector.
    assert cover_homology(SPUN_TREFOIL, 3, (1, -2)) == AbelianGroupInvariants(1, (2, 2))


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
    # rank-3 Trotter, against the elimination that rescans every nonzero.
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


def test_trotter_cover_elimination_does_no_more_work_than_the_reference_order(monkeypatch):
    # Both sides of the 3x3 Trotter form at N = 128, counted by CountingRow
    # rows: in the full-rescan reference's pivot order the group side writes
    # 38,006 entries and the module side 44,407, none over 386 bits.  A
    # unit phase that did not track falling Markowitz costs wrote 79,888 on
    # the module side, and more at larger N.
    res = realize_trotter(matrix([[2, 1, 0], [0, 2, 1], [1, 0, 2]]))
    weights = weight_vector(res.wirtinger_presentation)
    handed = record_cokernel_calls(monkeypatch)
    cover_homology(res.wirtinger_presentation, 128, weights)
    module_cover_homology(res.module_spec, 128)
    assert len(handed) == 2
    work = [Counter(), Counter()]
    for (rows, cols, got), w in zip(handed, work):
        assert cokernel_invariants([CountingRow(row, w) for row in rows], cols) == got
    assert work[0]["writes"] <= 38006 and work[1]["writes"] <= 44407, work
    assert max(w["bits"] for w in work) <= 386, work


@pytest.mark.parametrize("n", (1, 2, 3, 6, 7, 12, 24))
def test_module_rows_match_dense_kronecker_reference(n, corpus, monkeypatch):
    # Where the module side substitutes the N x N shift for t (Trotter, and
    # the spun trefoil at N <= 2, its degree), row (i, a) of the sparse rows
    # is row i N + a of the dense grid, entry for entry.  Elsewhere the rows
    # are T^N - I, T^N taken as N products with the reference t-action; at
    # 6 | N the spun trefoil's T^N - I is zero.
    handed = record_cokernel_calls(monkeypatch)
    kronecker = 0
    for _, spec in cover_cases(corpus):
        module_cover_homology(spec, n)
        rows, cols, _ = handed.pop()
        assert all(0 not in row.values() for row in rows)
        if spec.kind == "trotter" or spec.kind == "cyclic" and len(spec.polys[0].coeffs) > n:
            kronecker += 1
            assert dense(rows, cols) == kronecker_matrix(spec, n)
            continue
        t = t_action(spec)
        power = matrix([[int(i == j) for j in range(t.cols)] for i in range(t.rows)])
        for _ in range(n):
            power = matmul(power, t)
        want = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(power.entries)]
        assert dense(rows, cols) == matrix(want)
    assert kronecker == (3 if n <= 2 else 2)


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
    # N = 8, 16, 32, 64: linear in N where a side writes Kronecker rows
    # (the 3x3 Trotter form: 102, 198, 390, 774 group, 96, 192, 384, 768
    # module; trotter_2: 16, 32, 64, 128 module), constant where it hands
    # T^N - I (4 for the spun trefoil and lemma4_companion on both sides,
    # 1 for trotter_2's group side), where a dense grid grows 4x per
    # doubling.
    cases = [corpus_case(corpus, name) for name in ("spun_trefoil", "lemma4_companion", "trotter_2")]
    res = realize_trotter(matrix([[2, 1, 0], [0, 2, 1], [1, 0, 2]]))
    cases.append((res.wirtinger_presentation, res.module_spec))
    weights = [weight_vector(p) for p, _ in cases]
    normalized, patched = count_calls(monkeypatch, words.normalize)
    assert "ribbonknots.covers" in patched
    handed = record_cokernel_calls(monkeypatch)
    for (p, spec), w in zip(cases, weights):
        counts = []
        for n in (8, 16, 32, 64):
            cover_homology(p, n, w)
            module_cover_homology(spec, n)
            counts.append([sum(map(len, rows)) for rows, _, _ in handed[-2:]])
        for (g0, m0), (g1, m1) in zip(counts, counts[1:]):
            assert g1 <= 2.0 * g0 and m1 <= 2.0 * m0, counts
    assert counts[-1][0] > 7 * counts[0][0], counts  # the 3x3 Trotter group side's rows
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
    # T^N - I needs only the weight map; the transversal that numbers the
    # Schreier generators is built where the group side folds its rows
    # mod N, as on the 3 x 3 Trotter form below.
    builds, _ = count_calls(monkeypatch, covers._transversal)
    for name in ("spun_trefoil", "lemma4_companion", "lemma3_companion"):
        p, _ = corpus_case(corpus, name)
        weights = weight_vector(p)
        for n in (8, 16, 32, 64, 128, 256, 512, 1024):
            cover_homology(p, n, weights)
    assert not builds
    p = realize_trotter(matrix([[2, 1, 0], [0, 2, 1], [1, 0, 2]])).verification_presentation()
    cover_homology(p, 8, weight_vector(p))
    assert builds


@pytest.mark.parametrize("rows, n, size", [
    ([{0: [1, 2, 1], 1: [0, 2]}, {0: [2], 1: [-1, 2, 1]}], 5, 4),  # B_2 = I: 2 x 2, d = 2
    ([{0: [1, 2]}], 4, 1),  # only the bottom end is a unit: the reversed companion
    ([{0: [2, 3]}], 4, None),  # no unit end
    ([{0: [0, 1], 1: [1, 1]}, {0: [3], 1: [2, 1]}], 3, 2),  # the pivot t, then 1 x 1, d = 2
    ([{0: [1, 1]}, {0: [2]}], 3, None),  # two rows, one column
    ([{0: [1, 1, 0, 1]}], 2, None),  # d = 3 >= N
])
def test_group_side_route(rows, n, size, monkeypatch):
    # The relators of spelled_presentation have these Fox rows over x0, x1
    # (coefficients from t^0) at weights t -> 1, x -> 0.  The group side
    # hands T^N - I, md x md, or the Kronecker rows of the rewritten cover.
    p = spelled_presentation([{j: from_coeffs(c) for j, c in row.items()} for row in rows],
                             max(j for row in rows for j in row) + 1)
    weights = (1,) + (0,) * (len(p.generators) - 1)
    handed = record_cokernel_calls(monkeypatch)
    cover_homology(p, n, weights)
    [(_, cols, _)] = handed
    assert cols == (size or len(cyclic_cover_presentation(p, n, weights).generators))


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
