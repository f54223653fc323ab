import locale
import os
import subprocess
import sys
import time

import pytest

from ribbonknots import cli, intlinalg, presentations, words
from ribbonknots.presentations import parse_presentation
from reference import count_calls


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_realize_cyclic_wirtinger(capsys):
    code, out, _ = run(capsys, "realize", "cyclic", "--coeffs", "1,-1,1", "--emit", "wirtinger")
    assert code == 0
    assert "rel u^-1 t u t u^-1 t^-1" in out
    p = parse_presentation(out)
    assert p.generators == ("t", "u")


def test_realize_both_and_dot(capsys, tmp_path):
    dot = tmp_path / "lot.dot"
    code, out, _ = run(
        capsys, "realize", "cyclic", "--coeffs", "1,-1,1", "--emit", "both", "--dot", str(dot)
    )
    assert code == 0
    assert out.count("gens") == 2
    assert dot.read_text().startswith("digraph {")


def test_realize_bad_matrix(capsys, tmp_path):
    bad = tmp_path / "bad.mat"
    bad.write_text("1 1\n1\n")
    code, _, err = run(capsys, "realize", "trotter", "-m", str(bad))
    assert code == 3
    assert "det(M - I)" in err


def test_realize_lemma3_refuses_wirtinger(capsys, corpus):
    code, _, err = run(
        capsys, "realize", "lemma3", "-m", str(corpus / "lemma3_companion.mat"),
        "--emit", "wirtinger",
    )
    assert code == 3
    code, out, _ = run(
        capsys, "realize", "lemma3", "-m", str(corpus / "lemma3_companion.mat"),
        "--emit", "hnn",
    )
    assert code == 0 and "gens t x1 x2" in out


def test_alex(capsys, corpus):
    code, out, _ = run(capsys, "alex", str(corpus / "spun_trefoil.pres"))
    assert code == 0
    assert out.strip() == "poly 0 1 -1 1"


def test_covers_with_module(capsys, corpus):
    code, out, _ = run(
        capsys, "covers", str(corpus / "spun_trefoil.pres"), "-N", "2,3,6",
        "--module", str(corpus / "spun_trefoil.module"),
    )
    assert code == 0
    assert "N=2: group Z + Z/3 | module Z + Z/3 [ok]" in out


def test_covers_without_module(capsys, corpus):
    code, out, _ = run(capsys, "covers", str(corpus / "trotter_2.pres"), "-N", "3")
    assert code == 0
    assert out.strip() == "N=3: Z + Z/7"


def test_covers_two_oracles_with_no_generator_of_weight_one(capsys, corpus, tmp_path):
    # <a, b | a^2 b^-3> is the trefoil group with weights (3, 2), so the
    # group side keeps every Fox column; the bytes are those its
    # abelianized Reidemeister-Schreier rewrite gave.
    pres = tmp_path / "a2b3.pres"
    pres.write_text("gens a b\nrel a^2 b^-3\n")
    code, out, _ = run(capsys, "covers", str(pres), "-N", "1,2,3,4,5,6,12,64",
                       "--module", str(corpus / "spun_trefoil.module"))
    assert code == 0
    assert out == (
        "N=1: group Z | module Z [ok]\n"
        "N=2: group Z + Z/3 | module Z + Z/3 [ok]\n"
        "N=3: group Z + Z/2 + Z/2 | module Z + Z/2 + Z/2 [ok]\n"
        "N=4: group Z + Z/3 | module Z + Z/3 [ok]\n"
        "N=5: group Z | module Z [ok]\n"
        "N=6: group Z + Z + Z | module Z + Z + Z [ok]\n"
        "N=12: group Z + Z + Z | module Z + Z + Z [ok]\n"
        "N=64: group Z + Z/3 | module Z + Z/3 [ok]\n"
    )


def test_alex_and_verify_with_no_generator_of_weight_one(capsys, corpus, tmp_path):
    # The minor that drops b (weight 2) is (1 + t)(1 - t + t^2); dividing
    # by 1 + t leaves the trefoil's polynomial.
    pres = tmp_path / "a2b3.pres"
    pres.write_text("gens a b\nrel a^2 b^-3\n")
    assert run(capsys, "alex", str(pres)) == (0, "poly 0 1 -1 1\n", "")
    code, out, _ = run(capsys, "verify", str(pres), "--module", str(corpus / "spun_trefoil.module"),
                       "-N", "2,3", "--meridian", "a", "--max-cosets", "100")
    assert code == 1  # not a Wirtinger presentation
    assert "alexander       PASS          1 - t + t^2 vs 1 - t + t^2\n" in out


def test_tc(capsys, corpus, tmp_path):
    pres = tmp_path / "z5.pres"
    pres.write_text("gens x\nrel x^5\n")
    code, out, _ = run(capsys, "tc", str(pres), "--max-cosets", "50")
    assert code == 0 and out.strip() == "closed index=5"
    free = tmp_path / "free.pres"
    free.write_text("gens x y\n")
    code, out, _ = run(capsys, "tc", str(free), "--max-cosets", "10")
    assert code == 2 and "overflow" in out


def test_ac_search(capsys, corpus, tmp_path):
    moves = tmp_path / "moves.txt"
    code, out, err = run(
        capsys, "ac-search", str(corpus / "spun_trefoil.pres"), "--kill", "t",
        "--max-len", "32", "--max-depth", "12", "--emit-moves", str(moves),
    )
    assert code == 0
    assert "found" in err
    assert moves.read_text().strip().endswith("rm t")


def test_ac_search_budget(capsys, tmp_path):
    pres = tmp_path / "hard.pres"
    pres.write_text("gens x\n")  # free group: killing x leaves <x | x>, trivial
    code, _, _ = run(capsys, "ac-search", str(pres), "--kill", "x",
                     "--max-len", "8", "--max-depth", "2")
    assert code == 0  # immediate removal
    pres.write_text("gens x\nrel x^2 # Z/2, never AC-trivial\n")
    # deficiency 0: kill_meridian rejects -> input error
    code, _, _ = run(capsys, "ac-search", str(pres), "--kill", "x",
                     "--max-len", "8", "--max-depth", "2")
    assert code == 3


def test_ac_search_stops_when_frontier_empties(capsys, corpus):
    # killed trotter_2 at --max-len 7 finds no new state at depth 3,
    # so a huge depth bound must end there, not loop over empty levels
    pres = str(corpus / "trotter_2.pres")
    base = run(capsys, "ac-search", pres, "--kill", "t", "--max-len", "7", "--max-depth", "3")
    start = time.perf_counter()
    huge = run(capsys, "ac-search", pres, "--kill", "t", "--max-len", "7",
               "--max-depth", str(10**12))
    assert time.perf_counter() - start < 1.0
    assert huge == base == (2, "", "budget\n")


def test_ac_search_node_budget(capsys, corpus):
    # killed spun_trefoil is found at --max-len 32 --max-depth 12 after
    # keeping 17 states: 16 leave no room for the state whose plan is found
    pres = str(corpus / "spun_trefoil.pres")
    args = ("ac-search", pres, "--kill", "t", "--max-len", "32", "--max-depth", "12")
    found = run(capsys, *args)
    assert found[0] == 0 and found[2] == "found moves=10\n"
    assert run(capsys, *args, "--max-nodes", "17") == found
    assert run(capsys, *args, "--max-nodes", "16") == (2, "", "budget\n")


def test_ac_search_bounds_must_be_positive(capsys, corpus):
    pres = str(corpus / "spun_trefoil.pres")
    both = ("--max-len", "32", "--max-depth", "12")
    for option, other in (("--max-len", both[2:]), ("--max-depth", both[:2]), ("--max-nodes", both)):
        for value in ("0", "-3", "x", "¹", "+3", "1_0"):
            code, out, err = run(capsys, "ac-search", pres, "--kill", "t", option, value, *other)
            assert code == 3 and out == "" and err.count("\n") == 1
            assert err.startswith(f"error: argument {option}: expected a positive integer")


def test_lot(capsys, corpus, tmp_path):
    code, out, err = run(capsys, "lot", str(corpus / "trotter_2.pres"))
    assert code == 0 and out.startswith("digraph {") and "tree=yes" in err
    bad = tmp_path / "bad.pres"
    bad.write_text("gens x y\nrel x y\nrel y\n")
    code, _, err = run(capsys, "lot", str(bad))
    assert code == 1 and "not a Wirtinger" in err


def test_tietze(capsys, corpus):
    code, out, _ = run(
        capsys, "tietze", str(corpus / "yoshikawa.pres"),
        "--script", str(corpus / "yoshikawa.tz"),
    )
    assert code == 0
    p = parse_presentation(out)
    assert len(p.generators) == 4 and len(p.relators) == 3


def test_verify_pass(capsys, corpus):
    code, out, _ = run(
        capsys, "verify", str(corpus / "spun_trefoil.pres"),
        "--module", str(corpus / "spun_trefoil.module"),
        "-N", "2,3,6", "--meridian", "t", "--max-cosets", "100",
    )
    assert code == 0
    assert "FAIL" not in out and "INCONCLUSIVE" not in out


def test_verify_computes_weight_vector_once(capsys, corpus, monkeypatch):
    calls, patched = count_calls(monkeypatch, presentations.weight_vector)
    assert {"ribbonknots.fox", "ribbonknots.cli"} <= patched
    code, _, _ = run(
        capsys, "verify", str(corpus / "spun_trefoil.pres"),
        "--module", str(corpus / "spun_trefoil.module"),
        "-N", "2,3,6", "--meridian", "t", "--max-cosets", "100",
    )
    assert code == 0 and len(calls) == 1


def test_verify_eliminates_once_per_side_and_order(capsys, corpus, monkeypatch):
    # weight_vector proves H1 = Z on a Wirtinger form without elimination,
    # so the abelianization row costs no cokernel; only the two sides of
    # each cover order call cokernel_invariants.  Calling abelianization
    # first made 5 calls here.
    calls, patched = count_calls(monkeypatch, intlinalg.cokernel_invariants)
    assert "ribbonknots.covers" in patched
    code, out, _ = run(
        capsys, "verify", str(corpus / "spun_trefoil.pres"),
        "--module", str(corpus / "spun_trefoil.module"),
        "-N", "2,3", "--meridian", "t", "--max-cosets", "100",
    )
    assert code == 0 and out.startswith("abelianization  PASS          Z\n")
    assert len(calls) == 4


def test_covers_and_verify_run_no_smith_normal_form(capsys, corpus, monkeypatch, tmp_path):
    # The weight vector is the integer kernel of the sparse exponent rows;
    # the dense Smith form with both transforms is only the tests' oracle.
    calls, _ = count_calls(monkeypatch, intlinalg.smith_normal_form)
    code, out, _ = run(capsys, "realize", "trotter", "-m", str(corpus / "trotter_2.mat"),
                       "--emit", "wirtinger")
    assert code == 0
    pres = tmp_path / "trotter.pres"
    pres.write_text(out)
    module = str(corpus / "trotter_2.module")
    code, out, _ = run(capsys, "covers", str(pres), "-N", "2,3", "--module", module)
    assert code == 0 and out.count("[ok]") == 2
    code, _, _ = run(capsys, "verify", str(pres), "--module", module, "-N", "2,3", "--meridian", "t")
    assert code == 0 and calls == []


def test_names_are_checked_where_they_enter(capsys, corpus, monkeypatch, tmp_path):
    # A Word does not re-check its names: realize -> verify checks each
    # distinct name of a parsed word once (u, t: 2) and each generator of
    # every presentation built (the realized pair 4, the parsed file 2, the
    # killed meridian 1: t is substituted away).  The covers build no
    # presentation.  Per-syllable checks made 90 calls, per-token checks and
    # cover presentations 21.
    calls, patched = count_calls(monkeypatch, words.check_generator_name)
    assert {"ribbonknots.words", "ribbonknots.presentations"} <= patched
    code, out, _ = run(capsys, "realize", "cyclic", "--coeffs", "1,-1,1", "--emit", "wirtinger")
    assert code == 0
    pres = tmp_path / "spun.pres"
    pres.write_text(out)
    code, _, _ = run(
        capsys, "verify", str(pres), "--module", str(corpus / "spun_trefoil.module"),
        "-N", "2,3", "--meridian", "t", "--max-cosets", "100",
    )
    assert code == 0 and len(calls) == 9


def test_verify_mismatch(capsys, corpus, tmp_path):
    mutated = tmp_path / "mut.pres"
    mutated.write_text("gens t u\nrel u^-1 t u t^2 u^-1 t^-2\n")
    code, out, _ = run(
        capsys, "verify", str(mutated),
        "--module", str(corpus / "spun_trefoil.module"),
        "-N", "2,3", "--meridian", "t", "--max-cosets", "100",
    )
    assert code == 1
    assert "FAIL" in out


def test_exit_code_3_on_bad_input(capsys, tmp_path):
    code, _, err = run(capsys, "alex", str(tmp_path / "missing.pres"))
    assert code == 3 and "error:" in err
    code, _, err = run(capsys, "covers", str(tmp_path / "missing.pres"), "-N", "x")
    assert code == 3


@pytest.mark.skipif(locale.getpreferredencoding(False).lower().replace("-", "") != "utf8",
                    reason="the messages name the 'utf-8' codec")
def test_decode_errors_exit_3_with_one_line(capsys, corpus, tmp_path, monkeypatch):
    # A presentation's and a module spec's decode error name the file the
    # user gave, the module's nested matrix included; a matrix's and a
    # script's carry no prefix.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.pres").write_bytes(b"gens t\n\xff\n")
    (tmp_path / "bad.mat").write_bytes(b"1 1\n\xff\n")
    (tmp_path / "bad.module").write_bytes(b"module trotter bad.mat\n")
    (tmp_path / "bad.tz").write_bytes(b"elim \xff\n")
    pres = str(corpus / "spun_trefoil.pres")
    codec = "'utf-8' codec can't decode byte 0xff in position {}: invalid start byte"
    cases = [
        (("alex", "bad.pres"), "bad.pres: " + codec.format(7)),
        (("covers", pres, "-N", "2", "--module", "bad.module"), "bad.module: " + codec.format(4)),
        (("realize", "trotter", "-m", "bad.mat"), codec.format(4)),
        (("tietze", pres, "--script", "bad.tz"), codec.format(5)),
    ]
    for argv, message in cases:
        assert run(capsys, *argv) == (3, "", f"error: {message}\n"), argv


# For each subcommand, a library call it makes, patched through the name
# the CLI reads, and an argv that reaches that call before any output.
LIBRARY_CALLS = {
    "realize": ("constructions.realize_cyclic", ("realize", "cyclic", "--coeffs", "1,-1,1")),
    "alex": ("fox.alexander_polynomial", ("alex", "{pres}")),
    "covers": ("covers.cover_homology", ("covers", "{pres}", "-N", "2,3")),
    "tc": ("todd_coxeter", ("tc", "{pres}")),
    "ac-search": ("acmoves.ac_trivialize_search",
                  ("ac-search", "{pres}", "--kill", "t", "--max-len", "8", "--max-depth", "2")),
    "lot": ("is_wirtinger", ("lot", "{pres}")),
    "tietze": ("apply_tietze_script", ("tietze", "{pres}", "--script", "{script}")),
    "verify": ("weight_one_certificate",
               ("verify", "{pres}", "--module", "{module}", "-N", "2", "--meridian", "t")),
}


@pytest.mark.parametrize("command", sorted(LIBRARY_CALLS))
def test_library_value_errors_exit_3_in_main(capsys, corpus, monkeypatch, command):
    # main is the one place a library ValueError becomes exit 3: no
    # subcommand needs a handler of its own.
    target, argv = LIBRARY_CALLS[command]
    owner, _, name = target.rpartition(".")

    def boom(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(getattr(cli, owner) if owner else cli, name, boom)
    paths = {
        "pres": corpus / "spun_trefoil.pres", "module": corpus / "spun_trefoil.module",
        "script": corpus / "yoshikawa.tz",
    }
    assert run(capsys, *(arg.format(**paths) for arg in argv)) == (3, "", "error: boom\n")


def test_byte_stable_outputs(capsys, corpus):
    cases = [
        ("realize", "cyclic", "--coeffs", "1,-1,1", "--emit", "both"),
        ("realize", "trotter", "-m", str(corpus / "trotter_2.mat"), "--emit", "both"),
        ("alex", str(corpus / "lemma4_companion.pres")),
        ("covers", str(corpus / "lemma4_companion.pres"), "-N", "2,3",
         "--module", str(corpus / "lemma4_companion.module")),
        ("lot", str(corpus / "spun_trefoil.pres")),
        ("tietze", str(corpus / "yoshikawa.pres"), "--script", str(corpus / "yoshikawa.tz")),
        ("verify", str(corpus / "trotter_2.pres"), "--module",
         str(corpus / "trotter_2.module"), "-N", "2,3", "--meridian", "t"),
    ]
    for argv in cases:
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second, argv


def test_emitted_presentations_reparse(capsys, corpus):
    for name in ("cyclic",):
        code, out, _ = run(capsys, "realize", name, "--coeffs", "2,-3,2", "--emit", "wirtinger")
        assert code == 0
        parse_presentation(out)


def test_realize_negative_coeffs(capsys):
    # A leading "-" in the value must not be read as an option.
    code, out, _ = run(capsys, "realize", "cyclic", "--coeffs", "-1,1,1", "--emit", "hnn")
    assert (code, out) == run(capsys, "realize", "cyclic", "--coeffs=-1,1,1", "--emit", "hnn")[:2]
    assert code == 0 and "gens t x" in out
    code, out, _ = run(capsys, "realize", "sum", "--coeffs", "-1,1,1;1,-1,1", "--emit", "wirtinger")
    assert code == 0 and "gens t u1 u2" in out


def test_max_cosets_must_be_positive(capsys, corpus):
    pres = str(corpus / "spun_trefoil.pres")
    for value in ("0", "-3", "x", "²", "+3", "1_0"):
        code, out, err = run(
            capsys, "verify", pres, "--module", str(corpus / "spun_trefoil.module"),
            "-N", "2", "--meridian", "t", "--max-cosets", value,
        )
        assert code == 3 and out == ""
        assert err == f"error: argument --max-cosets: expected a positive integer, got {value!r}\n"
        code, _, err = run(capsys, "tc", pres, "--max-cosets", value)
        assert code == 3 and err.count("\n") == 1


def test_cover_orders_take_the_same_token_rule(capsys, corpus):
    # -N reads each order as --max-cosets reads its value: decimal digits only
    pres = str(corpus / "spun_trefoil.pres")
    module = str(corpus / "spun_trefoil.module")
    for value in ("²", "+3", "1_0", "2,+3"):
        for argv in (("covers", pres), ("verify", pres, "--module", module, "--meridian", "t")):
            code, out, err = run(capsys, *argv, "-N", value)
            assert (code, out, err) == (3, "", f"error: bad cover-order list {value!r}\n"), argv
    code, _, err = run(capsys, "covers", pres, "-N", "2,-3")
    assert (code, err) == (3, "error: cover orders must be positive integers\n")
    code, out, _ = run(capsys, "covers", pres, "-N", " 2, 3 ")
    assert code == 0 and out.startswith("N=2: ")


def test_file_and_coeff_integers_take_the_same_token_rule(capsys, corpus, tmp_path):
    # Every integer in a file or in --coeffs is an optional '-' and decimal
    # digits, as -N reads its orders: int() would also take '_' and '+'.
    # With those dropped each input is valid, so only the rule rejects it.
    _, alpha, _ = run(capsys, "realize", "cyclic", "--coeffs", "1,-10,10", "--emit", "wirtinger")
    files = {
        "word.pres": "gens t u\nrel u^-1 t u t u^-1_0 t^-1\n",
        "plus.pres": "gens t u\nrel u^-1 t u t^+1 u^-1 t^-1\n",
        "entry.mat": "1 1\n1_0\n",
        "alpha.pres": alpha,
        "poly.module": "module cyclic poly 0 1 -1_0 1_0\n",
        "index.tz": "elim b t +0\n",
    }
    calls = (
        ("alex", "{d}/word.pres"),
        ("alex", "{d}/plus.pres"),
        ("realize", "cyclic", "--coeffs=1_0,-1_0,1"),
        ("realize", "trotter", "-m", "{d}/entry.mat"),
        ("covers", "{d}/alpha.pres", "-N", "2", "--module", "{d}/poly.module"),
        ("tietze", "{c}/yoshikawa.pres", "--script", "{d}/index.tz"),
    )
    for d, want in ((tmp_path / "bad", 3), (tmp_path / "good", 0)):
        def clean(text):
            return text if want else text.replace("_", "").replace("+", "")

        d.mkdir()
        for name, text in files.items():
            (d / name).write_text(clean(text))
        for argv in calls:
            code, out, err = run(capsys, *(clean(a).format(d=d, c=corpus) for a in argv))
            assert code == want, (argv, err)
            if want:
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv


def test_unwritable_output_path(capsys, corpus, tmp_path):
    target = str(tmp_path / "missing-dir" / "out.txt")
    pres = str(corpus / "spun_trefoil.pres")
    for argv in (
        ("realize", "cyclic", "--coeffs", "1,-1,1", "--dot", target),
        ("lot", pres, "--dot", target),
        ("ac-search", pres, "--kill", "t", "--max-len", "32", "--max-depth", "12",
         "--emit-moves", target),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "", argv
        assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1


def test_reused_parser_matches_fresh_processes(capsys, corpus, tmp_path):
    # main() keeps one parser per process; a failed parse and a parse with
    # an option set must leave nothing behind for the next call.  The
    # expanded lemma-4 form's killed meridian needs 7 cosets, so a budget
    # of 5 is inconclusive.
    expanded = tmp_path / "lemma4_expanded.pres"
    p = parse_presentation((corpus / "lemma4_companion.pres").read_text())
    expanded.write_text(presentations.format_presentation(presentations.expand_length1(p)))
    verify = [
        "verify", str(expanded), "--module", str(corpus / "lemma4_companion.module"),
        "-N", "2", "--meridian", "t",
    ]
    calls = [verify + ["--max-cosets", "0"], verify + ["--max-cosets", "5"], verify]
    env = dict(os.environ, PYTHONPATH=str(corpus.parent.parent))
    for argv, want_code in zip(calls, (3, 2, 0)):
        fresh = subprocess.run(
            [sys.executable, "-m", "ribbonknots.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert fresh.returncode == want_code
