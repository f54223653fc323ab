import itertools
import random

import pytest

from ribbonknots.acmoves import (
    ACPresentation,
    Budget,
    Conjugate,
    Exhausted,
    Found,
    Invert,
    Multiply,
    RemovePair,
    ac_trivialize_search,
    apply_move,
    apply_moves,
    canonical_form,
    format_moves,
    kill_meridian,
    pack,
    removal_plan,
    verify_move_sequence,
)
from ribbonknots.constructions import realize_lemma4
from ribbonknots.intlinalg import matrix
from ribbonknots.presentations import parse_presentation
from ribbonknots.words import IDENTITY, gen, normalize, parse_word
from reference import (
    ac_trivialize_search_reference,
    cokernel_of,
    count_calls,
    exponent_sums,
    parse_moves,
)

SPUN = parse_presentation("gens t u\nrel u^-1 t u t u^-1 t^-1")


def ab_invariants(p: ACPresentation):
    rows = [exponent_sums(r, p.generators) for r in p.relators]
    return cokernel_of(matrix(rows, cols=len(p.generators)))


def test_balanced_invariant():
    with pytest.raises(ValueError):
        ACPresentation(("x",), ())
    with pytest.raises(ValueError):
        ACPresentation(("x",), (gen("y"),))


def test_kill_meridian():
    killed = kill_meridian(SPUN, "t")
    assert killed.relators[-1] == gen("t")
    with pytest.raises(ValueError):
        kill_meridian(parse_presentation("gens x"), "y")
    with pytest.raises(ValueError):
        kill_meridian(parse_presentation("gens x\nrel x"), "x")


def test_apply_move_examples():
    p = ACPresentation(("x", "y"), (parse_word("x y"), gen("y")))
    assert apply_move(p, Invert(0)).relators[0] == parse_word("y^-1 x^-1")
    assert apply_move(p, Multiply(0, 1)).relators[0] == parse_word("x y^2")
    q = apply_move(p, Conjugate(1, "x", 1))
    assert q.relators[1] == parse_word("x y x^-1")


def test_move_validation():
    p = ACPresentation(("x",), (gen("x"),))
    with pytest.raises(ValueError):
        apply_move(p, Invert(3))
    with pytest.raises(ValueError):
        apply_move(p, Multiply(0, 0))
    with pytest.raises(ValueError):
        apply_move(p, Conjugate(0, "z", 1))
    q = ACPresentation(("t", "u"), (parse_word("u t"), gen("t")))
    with pytest.raises(ValueError, match=r"^conjugation sign must be \+-1$"):
        apply_move(q, Conjugate(0, "t", 2))


def test_remove_pair_strict_pattern():
    p = ACPresentation(("x", "y"), (parse_word("x y"), gen("y")))
    # x occurs once, relator starts with x: removable
    q = apply_move(p, RemovePair("x"))
    assert q.generators == ("y",)
    # y occurs in both relators: not removable
    with pytest.raises(ValueError):
        apply_move(p, RemovePair("y"))
    # w is not a generator of p
    with pytest.raises(ValueError, match="^no relator of the form w . z with 'w' occurring once$"):
        apply_move(p, RemovePair("w"))
    # pattern must start with the generator, exponent +1
    r = ACPresentation(("x", "y"), (parse_word("y x"), gen("y")))
    with pytest.raises(ValueError):
        apply_move(r, RemovePair("x"))


def test_moves_preserve_abelianization():
    rng = random.Random(51)
    gens = ("a", "b", "c")
    for _ in range(100):
        rels = tuple(
            normalize((rng.choice(gens), rng.choice([-1, 1])) for _ in range(rng.randrange(6)))
            for _ in range(3)
        )
        p = ACPresentation(gens, rels)
        before = ab_invariants(p)
        n = len(p.relators)
        moves = [Invert(rng.randrange(n)),
                 Conjugate(rng.randrange(n), rng.choice(gens), rng.choice([-1, 1]))]
        i, j = rng.sample(range(n), 2)
        moves.append(Multiply(i, j))
        q = apply_moves(p, moves)
        assert ab_invariants(q) == before


def test_moves_preserve_coset_enumeration():
    from ribbonknots.cosets import todd_coxeter
    from ribbonknots.presentations import Presentation

    p = ACPresentation(("a", "b"), (gen("a", 2), parse_word("a b^-1")))

    def index(q):
        t = todd_coxeter(Presentation(q.generators, q.relators), (), 100)
        assert t.closed
        return t.n_cosets

    before = index(p)
    rng = random.Random(52)
    q = p
    for _ in range(20):
        kind = rng.randrange(3)
        if kind == 0:
            q = apply_move(q, Invert(rng.randrange(2)))
        elif kind == 1:
            q = apply_move(q, Conjugate(rng.randrange(2), rng.choice(("a", "b")), rng.choice([-1, 1])))
        else:
            i, j = rng.sample(range(2), 2)
            q = apply_move(q, Multiply(i, j))
        assert index(q) == before


def key(p: ACPresentation) -> tuple:
    return canonical_form(pack(p).least)


def test_canonical_form_invariances():
    p = ACPresentation(("x", "y"), (parse_word("x y"), gen("y")))
    assert key(p) == key(apply_move(p, Invert(0)))
    assert key(p) == key(apply_move(p, Conjugate(0, "y", 1)))
    a = ACPresentation(("x",), (gen("x"),))
    b = ACPresentation(("z",), (gen("z", -1),))
    assert key(a) == key(b)
    rot1 = ACPresentation(("x", "y"), (parse_word("x y"), gen("x")))
    rot2 = ACPresentation(("x", "y"), (parse_word("y x"), gen("x")))
    assert key(rot1) == key(rot2)


def test_pack_codes_follow_name_then_sign():
    p = ACPresentation(("t", "b", "a"), (parse_word("a t^2 b^-1"), IDENTITY, gen("b", -1)))
    assert pack(p).relators == ("\x01\x05\x05\x02", "", "\x02")
    # the least rotation comes from the inverse b t^-2 a^-1
    assert pack(p).least == ("\x00\x03\x04\x04", "", "\x02")


def test_removal_plan_trivial_cases():
    p = ACPresentation(("x",), (gen("x"),))
    plan = removal_plan(p.generators, pack(p).relators)
    assert plan is not None and verify_move_sequence(p, plan)
    stuck = ACPresentation(("x",), (gen("x", 2),))
    assert removal_plan(stuck.generators, pack(stuck).relators) is None
    # y occurs once, negatively, inside a conjugate: invert to x y x^-1,
    # then one rotation, which cancels the conjugating x ... x^-1
    q = ACPresentation(("y", "x"), (parse_word("x y^-1 x^-1"), gen("x")))
    assert removal_plan(q.generators, pack(q).relators) == (
        Invert(0), Conjugate(0, "x", -1), RemovePair("y"), RemovePair("x"))


def test_search_found_cases():
    r = ac_trivialize_search(ACPresentation(("x",), (gen("x"),)), 8, 1)
    assert isinstance(r, Found) and len(r.moves) == 1

    p = ACPresentation(("x", "y"), (parse_word("x y"), gen("y")))
    r = ac_trivialize_search(p, 32, 4)
    assert isinstance(r, Found)
    assert verify_move_sequence(p, r.moves)

    killed = kill_meridian(SPUN, "t")
    r = ac_trivialize_search(killed, 32, 12)
    assert isinstance(r, Found)
    assert verify_move_sequence(killed, r.moves)


def test_search_outcomes_budget_exhausted():
    # (x^2) presents Z/2: no two relators to combine, so nothing is left to expand
    stuck = ACPresentation(("x",), (gen("x", 2),))
    assert ac_trivialize_search(stuck, 4, 3) == Exhausted()
    # every candidate of (x^2, y^2) is longer than 4, so only pruning ends the search
    pruned = ACPresentation(("x", "y"), (gen("x", 2), gen("y", 2)))
    assert ac_trivialize_search(pruned, 4, 3) == Budget()
    # oversized start is a budget outcome
    assert isinstance(ac_trivialize_search(stuck, 1, 3), Budget)
    # with both relators empty every candidate is the start state again:
    # nothing is pruned and nothing new is seen on the last level
    empty = ACPresentation(("a", "b"), (IDENTITY, IDENTITY))
    # (a, 1): the candidates are (a, 1) again and (a, c a^+-1 c^-1), at
    # most 4 letters, none with a generator occurring once; so at length
    # 4 nothing is pruned and only the new last-level states give Budget
    fresh = ACPresentation(("a", "b"), (gen("a"), IDENTITY))
    for p, depth, outcome in ((empty, 1, Exhausted()), (empty, 3, Exhausted()),
                              (fresh, 1, Budget())):
        assert ac_trivialize_search(p, 4, depth) == outcome
        assert ac_trivialize_search_reference(p, 4, depth) == outcome


def test_search_keeps_candidates_of_exactly_the_length_bound():
    """Each of these searches keeps states of exactly
    ``max_total_length`` letters, built by joins that cancel and by
    joins that do not, and its moves depend on them: pruning them too
    gives Budget or other moves."""
    cases = [(("a", "b"), ("a b^2", "a b"), 6, 2),
             (("a", "b", "c"), ("b^2 a^-1", "c", "b^-1 c^-2 a"), 8, 1),
             (("a", "b"), ("a b", "a b^-2 a^-2"), 7, 3)]
    for gens, rels, max_len, depth in cases:
        p = ACPresentation(gens, tuple(map(parse_word, rels)))
        out = ac_trivialize_search(p, max_len, depth)
        assert isinstance(out, Found)
        assert out == ac_trivialize_search_reference(p, max_len, depth)


def lemma4_rank2(bound: int = 3):
    """Every 2 x 2 matrix M with entries in [-bound, bound] such that M
    and I + M are unimodular, in lexicographic order."""
    for a, b, c, d in itertools.product(range(-bound, bound + 1), repeat=4):
        if abs(a * d - b * c) == 1 and abs((a + 1) * (d + 1) - b * c) == 1:
            yield matrix([[a, b], [c, d]])


def test_search_matches_word_reference(corpus):
    """The packed-letter search and the Word-based reference agree,
    found move lists included, on every killed rank-2 lemma4 Wirtinger
    form with entries in [-3, 3] and on the four corpus cases, and on
    the corpus cases again at the benchmark's bounds (32, 2)."""
    cases = [realize_lemma4(m).wirtinger_presentation for m in lemma4_rank2()]
    assert len(cases) == 36
    names = ("spun_trefoil", "trotter_2", "lemma4_companion", "lemma3_companion")
    cases += [parse_presentation((corpus / f"{name}.pres").read_text()) for name in names]
    outcomes = []
    for p in cases:
        killed = kill_meridian(p, "t")
        out = ac_trivialize_search(killed, 14, 3)
        assert out == ac_trivialize_search_reference(killed, 14, 3)
        outcomes.append(type(out))
    assert {Found, Budget} <= set(outcomes)
    found = {}
    for name, p in zip(names, cases[-4:]):
        killed = kill_meridian(p, "t")
        out = ac_trivialize_search(killed, 32, 2)
        assert out == ac_trivialize_search_reference(killed, 32, 2)
        found[name] = len(out.moves) if isinstance(out, Found) else out
    assert found == {"spun_trefoil": 10, "trotter_2": Budget(),
                     "lemma4_companion": 12, "lemma3_companion": 14}
    # lemma4_companion has no plan at depth 1: its plan comes from a last
    # level candidate, after keying the candidates queued before it
    assert ac_trivialize_search(kill_meridian(cases[-2], "t"), 32, 1) == Budget()


def test_search_keys_no_state_on_the_last_level_of_a_budget_search(corpus, monkeypatch):
    """Killed trotter_2 at --max-len 32 prunes candidates on its third
    level, none of which has a generator occurring once, so at depth 3
    the outcome is ``Budget`` without keying that level: the search keys
    the start state and its first two levels (1 + 20 + 240 candidates).
    The depth-2 search tells ``Budget`` from ``Exhausted`` on its
    unpruned last level by keying it up to the first new state, the
    first of its 240 candidates (1 + 20 + 1)."""
    import ribbonknots.acmoves as acmoves

    calls = []

    def counted(least):
        calls.append(least)
        return canonical_form(least)

    monkeypatch.setattr(acmoves, "canonical_form", counted)
    trotter = parse_presentation((corpus / "trotter_2.pres").read_text())
    killed = kill_meridian(trotter, "t")
    assert ac_trivialize_search(killed, 32, 3) == Budget()
    assert len(calls) == 261
    calls.clear()
    assert ac_trivialize_search(killed, 32, 2) == Budget()
    assert len(calls) == 22


def test_search_keys_only_the_ripe_candidates_signature_on_the_last_level(corpus, monkeypatch):
    """Killed lemma4_companion and lemma3_companion at (32, 2) find their
    plans on the last level.  Each ripe candidate there is compared only
    with the queued candidates of its sorted cyclically reduced relator
    lengths, so the searches make 86 and 95 ``canonical_form`` calls;
    keying every candidate queued before a ripe one makes 3,247 and
    1,521."""
    import ribbonknots.acmoves as acmoves

    calls, _ = count_calls(monkeypatch, acmoves.canonical_form)
    for name, moves, bound in (("lemma4_companion", 12, 100), ("lemma3_companion", 14, 110)):
        calls.clear()
        killed = kill_meridian(parse_presentation((corpus / f"{name}.pres").read_text()), "t")
        out = ac_trivialize_search(killed, 32, 2)
        assert isinstance(out, Found) and len(out.moves) == moves
        assert len(calls) <= bound, name


def test_search_node_budget_bounds_the_states_kept(corpus, monkeypatch):
    """Killed trotter_2 at --max-len 32 --max-depth 5 keys 10,507
    distinct states; with ``max_nodes=1000`` it stops with ``Budget``
    once 1,000 are kept and another candidate is to be keyed."""
    import ribbonknots.acmoves as acmoves

    keys = []

    def counted(least):
        keys.append(canonical_form(least))
        return keys[-1]

    monkeypatch.setattr(acmoves, "canonical_form", counted)
    trotter = parse_presentation((corpus / "trotter_2.pres").read_text())
    killed = kill_meridian(trotter, "t")
    assert ac_trivialize_search(killed, 32, 5, max_nodes=1000) == Budget()
    assert len(set(keys)) == 1000
    with pytest.raises(ValueError):
        ac_trivialize_search(killed, 32, 12, max_nodes=0)


def test_search_reduces_only_cancelling_joins(corpus, monkeypatch):
    """Killed trotter_2 at (32, 3) reduces letter by letter only the
    joins R_i . w whose ends cancel, 1,083 of them.  Building every
    factor c . R_j^e . c^-1 at every node by two reductions, and
    reducing every join, would make 8,580 calls."""
    import ribbonknots.acmoves as acmoves

    calls, _ = count_calls(monkeypatch, acmoves._reduced_product)
    trotter = parse_presentation((corpus / "trotter_2.pres").read_text())
    assert ac_trivialize_search(kill_meridian(trotter, "t"), 32, 3) == Budget()
    assert len(calls) <= 1200


def test_search_tries_no_plan_on_a_join_that_cancels_nothing(monkeypatch):
    """(a^2, b^-1) has b occurring once but no plan.  A join that cancels
    nothing, such as (a^2, b^-1 a^2), makes a generator occur once only
    where its state had one, so only the start state is tried."""
    import ribbonknots.acmoves as acmoves

    calls, _ = count_calls(monkeypatch, acmoves.removal_plan)
    p = ACPresentation(("a", "b"), (gen("a", 2), gen("b", -1)))
    assert ac_trivialize_search(p, 9, 1) == ac_trivialize_search_reference(p, 9, 1)
    assert len(calls) == 1


def test_search_deterministic_and_worker_independent():
    killed = kill_meridian(SPUN, "t")
    base = ac_trivialize_search(killed, 32, 12)
    for _ in range(3):
        assert ac_trivialize_search(killed, 32, 12) == base


def test_verify_move_sequence_negative():
    p = ACPresentation(("x", "y"), (parse_word("x y x"), parse_word("y x")))
    assert not verify_move_sequence(p, ())
    assert not verify_move_sequence(p, (Invert(9),))


def test_verify_move_sequence_needs_the_moves_to_empty_it():
    # pair removal alone empties (x y, y), but the replay does not supply it
    p = ACPresentation(("x", "y"), (parse_word("x y"), gen("y")))
    assert not verify_move_sequence(p, ())
    assert not verify_move_sequence(p, (RemovePair("x"),))
    assert verify_move_sequence(p, (RemovePair("x"), RemovePair("y")))


def test_move_text_roundtrip():
    moves = (
        Invert(0),
        Conjugate(0, "t", -1),
        Multiply(0, 1),
        RemovePair("y"),
    )
    text = format_moves(moves)
    assert text.splitlines() == [
        "inv 1",
        "conj 1 t -1",
        "mul 1 2",
        "rm y",
    ]
    assert parse_moves(text) == moves
    with pytest.raises(ValueError):
        parse_moves("bogus 1")
