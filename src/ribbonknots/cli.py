"""Command-line front end.

Subcommands: realize, alex, covers, tc, ac-search, lot, tietze, verify.
Exit codes: 0 success/verified, 1 verification mismatch, 2 inconclusive
(search budget or enumeration overflow), 3 input/parse error.  All
diagnostics go to stderr; artifacts go to stdout or to files.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import acmoves, constructions, covers, fox
from .cosets import MAX_COSETS, todd_coxeter, weight_one_certificate
from .intlinalg import parse_matrix
from .laurent import det_lambda, format_poly_line, normalize_unit, parse_coeffs
from .presentations import (
    NotWirtinger,
    abelianization,
    apply_tietze_script,
    dot_export,
    format_presentation,
    is_wirtinger,
    parse_presentation,
    parse_tietze_script,
    weight_vector,
)
from .words import parse_int, parse_word

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3


class CLIError(Exception):
    """Input or usage problem; maps to exit code 3, as a library ValueError
    does in :func:`main`.  The path-prefixing loaders pass it unchanged."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Read negative coefficient lists such as "-1,1,1" or
        # "-1,1;2,-1" as option values, the way argparse reads "-1".
        self._negative_number_matcher = re.compile(r"^-\d+([,;]-?\d+)*$|^-\d*\.\d+$")

    def error(self, message: str) -> None:  # type: ignore[override]
        raise CLIError(message)


def _positive_int(text: str) -> int:
    # isdecimal, not isdigit: int() rejects digits such as '²', and a
    # sign or '_' that int() would accept is not part of a count.
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise CLIError(f"cannot read {path}: {exc}")


def _load_presentation(path: str):
    try:
        return parse_presentation(_read(path))
    except ValueError as exc:
        raise CLIError(f"{path}: {exc}")


def _load_module_spec(path: str) -> constructions.KnotModuleSpec:
    base = Path(path).parent

    def read_file(rel: str) -> str:
        return _read(str(base / rel))

    try:
        return constructions.parse_module_spec(_read(path), read_file)
    except ValueError as exc:  # AdmissibilityError included
        raise CLIError(f"{path}: {exc}")


def _parse_orders(text: str) -> list[int]:
    """Comma-separated orders, each read by :func:`parse_int` as every
    input integer is; a leading '-' only selects the message."""
    try:
        orders = [parse_int(tok.strip()) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise CLIError(f"bad cover-order list {text!r}")
    if not orders or any(n < 1 for n in orders):
        raise CLIError("cover orders must be positive integers")
    return orders


def _write_or_stdout(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise CLIError(f"cannot write {path}: {exc}")


@functools.cache
def _parser() -> _Parser:
    """The parser, built once per process: building it takes tens of
    times as long as a ``parse_args`` call, and parsing leaves no state
    on it."""
    parser = _Parser(prog="ribbonknots", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_realize = sub.add_parser(
        "realize", help="build a presentation realizing a knot module"
    )
    p_realize.add_argument(
        "construction", choices=["cyclic", "trotter", "lemma4", "lemma3", "sum"]
    )
    p_realize.add_argument(
        "--coeffs",
        help="polynomial coefficients c0,c1,... (low exponent 0); "
        "for sum, several lists separated by ';'",
    )
    p_realize.add_argument("-m", "--matrix", help="integer matrix file")
    p_realize.add_argument(
        "--emit", choices=["hnn", "wirtinger", "both"], default="both"
    )
    p_realize.add_argument("--dot", help="write the LOT of the Wirtinger form as DOT")

    p_alex = sub.add_parser("alex", help="Alexander polynomial of a presentation")
    p_alex.add_argument("presentation")

    p_covers = sub.add_parser(
        "covers", help="homology of finite cyclic covers (optionally vs a module)"
    )
    p_covers.add_argument("presentation")
    p_covers.add_argument("-N", "--orders", required=True, help="e.g. 2,3,6")
    p_covers.add_argument("--module", help="module-spec file to compare against")

    p_tc = sub.add_parser("tc", help="Todd-Coxeter coset enumeration")
    p_tc.add_argument("presentation")
    p_tc.add_argument(
        "--subgroup", default="", help="subgroup generator words, ';'-separated"
    )
    p_tc.add_argument("--max-cosets", type=_positive_int, default=MAX_COSETS)

    p_ac = sub.add_parser("ac-search", help="bounded Andrews-Curtis trivialization search")
    p_ac.add_argument("presentation")
    p_ac.add_argument("--kill", required=True, help="meridian generator to kill")
    p_ac.add_argument("--max-len", type=_positive_int, required=True)
    p_ac.add_argument("--max-depth", type=_positive_int, required=True)
    p_ac.add_argument("--max-nodes", type=_positive_int, default=acmoves.MAX_NODES)
    p_ac.add_argument("--emit-moves", help="write the move list to this file")

    p_lot = sub.add_parser("lot", help="extract the LOT of a Wirtinger presentation")
    p_lot.add_argument("presentation")
    p_lot.add_argument("--dot", help="output path (default stdout)")

    p_tz = sub.add_parser("tietze", help="apply a Tietze script to a presentation")
    p_tz.add_argument("presentation")
    p_tz.add_argument("--script", required=True)

    p_verify = sub.add_parser(
        "verify", help="full verification table for a realization"
    )
    p_verify.add_argument("presentation")
    p_verify.add_argument("--module", required=True, help="module-spec file")
    p_verify.add_argument("-N", "--orders", required=True, help="e.g. 2,3,4")
    p_verify.add_argument("--meridian", required=True)
    p_verify.add_argument("--max-cosets", type=_positive_int, default=MAX_COSETS)

    return parser


def _cmd_realize(args) -> int:
    if args.construction in ("cyclic", "sum"):
        if not args.coeffs:
            raise CLIError(f"realize {args.construction} needs --coeffs")
    elif not args.matrix:
        raise CLIError(f"realize {args.construction} needs --matrix")
    if args.construction == "cyclic":
        result = constructions.realize_cyclic(parse_coeffs(args.coeffs))
    elif args.construction == "sum":
        polys = [parse_coeffs(part) for part in args.coeffs.split(";")]
        result = constructions.realize_sum(polys)
    else:
        builder = {
            "trotter": constructions.realize_trotter,
            "lemma4": constructions.realize_lemma4,
            "lemma3": constructions.realize_lemma3_group,
        }[args.construction]
        result = builder(parse_matrix(_read(args.matrix)))

    want_wirtinger = args.emit in ("wirtinger", "both")
    if want_wirtinger and result.wirtinger_presentation is None:
        raise CLIError(
            f"construction {args.construction} has no Wirtinger form; use --emit hnn"
        )
    chunks = []
    if args.emit in ("hnn", "both"):
        chunks.append("# hnn\n" + format_presentation(result.primary_presentation))
    if want_wirtinger:
        chunks.append(
            "# wirtinger\n" + format_presentation(result.wirtinger_presentation)
        )
    if args.dot:
        # Validate and write the DOT file first, so a failure leaves stdout empty.
        if result.wirtinger_presentation is None:
            raise CLIError("--dot needs a Wirtinger form")
        log = is_wirtinger(result.wirtinger_presentation)
        if isinstance(log, NotWirtinger):
            raise CLIError(f"emitted presentation not recognized: {log.reason}")
        _write_or_stdout(dot_export(log), args.dot)
    sys.stdout.write("".join(chunks))
    return EXIT_OK


def _cmd_alex(args) -> int:
    p = _load_presentation(args.presentation)
    print(format_poly_line(fox.alexander_polynomial(p)))
    return EXIT_OK


def _cmd_covers(args) -> int:
    p = _load_presentation(args.presentation)
    orders = _parse_orders(args.orders)
    spec = _load_module_spec(args.module) if args.module else None
    weights = weight_vector(p)
    code = EXIT_OK
    for n in orders:
        inv = covers.cover_homology(p, n, weights)
        if spec is None:
            print(f"N={n}: {inv}")
        else:
            module = covers.module_cover_homology(spec, n)
            verdict = "ok" if inv == module else "MISMATCH"
            print(f"N={n}: group {inv} | module {module} [{verdict}]")
            if inv != module:
                code = EXIT_MISMATCH
    return code


def _cmd_tc(args) -> int:
    p = _load_presentation(args.presentation)
    subgroup = [parse_word(part) for part in args.subgroup.split(";") if part.strip()]
    table = todd_coxeter(p, subgroup, args.max_cosets)
    if table.closed:
        print(f"closed index={table.n_cosets}")
        return EXIT_OK
    print(f"overflow limit={table.limit}")
    return EXIT_INCONCLUSIVE


def _cmd_ac_search(args) -> int:
    p = _load_presentation(args.presentation)
    killed = acmoves.kill_meridian(p, args.kill)
    outcome = acmoves.ac_trivialize_search(killed, args.max_len, args.max_depth, args.max_nodes)
    if isinstance(outcome, acmoves.Found):
        text = acmoves.format_moves(outcome.moves)
        _write_or_stdout(text, args.emit_moves)
        print(f"found moves={len(outcome.moves)}", file=sys.stderr)
        return EXIT_OK
    print(type(outcome).__name__.lower(), file=sys.stderr)
    return EXIT_INCONCLUSIVE


def _cmd_lot(args) -> int:
    p = _load_presentation(args.presentation)
    log = is_wirtinger(p)
    if isinstance(log, NotWirtinger):
        print(f"not a Wirtinger presentation: {log.reason}", file=sys.stderr)
        return EXIT_MISMATCH
    _write_or_stdout(dot_export(log), args.dot)
    print(f"tree={'yes' if log.is_tree else 'no'}", file=sys.stderr)
    return EXIT_OK


def _cmd_tietze(args) -> int:
    p = _load_presentation(args.presentation)
    steps = parse_tietze_script(_read(args.script))
    sys.stdout.write(format_presentation(apply_tietze_script(p, steps)))
    return EXIT_OK


def _cmd_verify(args) -> int:
    p = _load_presentation(args.presentation)
    spec = _load_module_spec(args.module)
    orders = _parse_orders(args.orders)
    if args.meridian not in p.generators:
        raise CLIError(f"no generator {args.meridian!r}")

    rows: list[tuple[str, str, str]] = []  # (check, verdict, detail)

    try:
        weights: tuple[int, ...] | None = weight_vector(p)
        rows.append(("abelianization", "PASS", "Z"))
    except ValueError:
        weights = None
        rows.append(("abelianization", "FAIL", str(abelianization(p))))

    log = is_wirtinger(p)
    if isinstance(log, NotWirtinger):
        rows.append(("wirtinger-lot", "FAIL", log.reason))
    else:
        rows.append(
            ("wirtinger-lot", "PASS" if log.is_tree else "FAIL",
             "tree" if log.is_tree else "not a tree")
        )

    if weights is not None:
        target = normalize_unit(det_lambda(spec.presentation_matrix()))
        try:
            alex = fox.alexander_polynomial(p, weights)
            rows.append(
                ("alexander", "PASS" if alex == target else "FAIL", f"{alex} vs {target}")
            )
        except ValueError as exc:
            rows.append(("alexander", "FAIL", str(exc)))
        for n in orders:
            group = covers.cover_homology(p, n, weights)
            module = covers.module_cover_homology(spec, n)
            rows.append((f"covers-N{n}", "PASS" if group == module else "FAIL",
                         f"{group} vs {module}"))
        cert = weight_one_certificate(p, args.meridian, args.max_cosets)
        rows.append(
            ("weight-1", "PASS" if cert == "certified" else "INCONCLUSIVE", cert)
        )
    else:
        rows.append(("alexander", "FAIL", "skipped: abelianization is not Z"))
        for n in orders:
            rows.append((f"covers-N{n}", "FAIL", "skipped: abelianization is not Z"))
        rows.append(("weight-1", "INCONCLUSIVE", "skipped"))

    width = max(len(name) for name, _, _ in rows)
    for name, verdict, detail in rows:
        print(f"{name.ljust(width)}  {verdict:12}  {detail}")
    verdicts = [v for _, v, _ in rows]
    if "FAIL" in verdicts:
        return EXIT_MISMATCH
    if "INCONCLUSIVE" in verdicts:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


_COMMANDS = {
    "realize": _cmd_realize,
    "alex": _cmd_alex,
    "covers": _cmd_covers,
    "tc": _cmd_tc,
    "ac-search": _cmd_ac_search,
    "lot": _cmd_lot,
    "tietze": _cmd_tietze,
    "verify": _cmd_verify,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (CLIError, ValueError) as exc:  # AdmissibilityError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console()
