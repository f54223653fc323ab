"""Per-layer spans for the traced benchmark run.

``Tracer.install()`` wraps the public functions listed in ``TARGETS`` and
rebinds every ``ribbonknots.*`` module attribute that holds one of them,
which also catches ``from .x import f`` bindings (``covers.cokernel_invariants``,
``cli.weight_one_certificate``, ...).  Each call records a span (name,
start, end, parent span, op id) in memory; ``write_jsonl`` writes them at
the end.  Self time is a span's duration minus its children's.

This module is only imported by the traced process.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "constructions", "presentations", "words", "laurent", "fox",
          "intlinalg", "covers", "cosets", "acmoves")


def _letters(relators) -> int:
    return sum(len(r) for r in relators)


def _bits(rows) -> int:
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


def _realize(args, result):
    return {"relator_letters": _letters(result.verification_presentation().relators)}


def _input_letters(args, result):
    return {"relator_letters": _letters(args[0].relators)}


def _det_lambda(args, result):
    m = args[0]
    coeffs = [p.coeffs for row in m.entries for p in row] + [result.coeffs]
    return {"max_dim": m.rows, "max_coeff_bits": _bits(coeffs)}


def _snf(args, result):
    m = args[0]
    u, s, v = result
    return {
        "cells": m.rows * m.cols,
        "nonzeros": sum(1 for row in m.entries for x in row if x),
        "max_dim": max(m.rows, m.cols),
        "max_in_bits": _bits(m.entries),
        "max_uv_bits": max(_bits(u.entries), _bits(v.entries)),
        "max_s_bits": _bits(s.entries),
    }


def _cover_letters(args, result):
    return {"relator_letters": _letters(result.relators)}


def _module_cover(args, result):
    spec, n = args[0], args[1]
    r = spec.matrix.rows if spec.matrix is not None else len(spec.polys)
    return {"matrix_dim": r * n}


def _closed(args, result):
    return {"closed": int(result.closed)}


def _found(args, result):
    return {"found": int(type(result).__name__ == "Found")}


# span name -> (module, functions, counter function or None)
TARGETS = {
    "cli.main": ("cli", ("main",), None),
    "constructions.realize": ("constructions", (
        "realize", "realize_cyclic", "realize_sum", "realize_trotter",
        "realize_lemma4", "realize_lemma3_group"), _realize),
    "presentations.abelianization": ("presentations", ("abelianization",), None),
    "presentations.weight_vector": ("presentations", ("weight_vector",), None),
    "presentations.is_wirtinger": ("presentations", ("is_wirtinger",), _input_letters),
    "fox.alexander_polynomial": ("fox", ("alexander_polynomial",), _input_letters),
    "fox.alexander_matrix": ("fox", ("alexander_matrix",), None),
    "laurent.det_lambda": ("laurent", ("det_lambda",), _det_lambda),
    "intlinalg.smith_normal_form": ("intlinalg", ("smith_normal_form",), _snf),
    "intlinalg.cokernel_invariants": ("intlinalg", ("cokernel_invariants",), None),
    "covers.cyclic_cover_presentation": ("covers", ("cyclic_cover_presentation",), _cover_letters),
    "covers.cover_homology": ("covers", ("cover_homology",), None),
    "covers.module_cover_homology": ("covers", ("module_cover_homology",), _module_cover),
    "cosets.todd_coxeter": ("cosets", ("todd_coxeter",), _closed),
    "cosets.weight_one_certificate": ("cosets", ("weight_one_certificate",), None),
    "acmoves.ac_trivialize_search": ("acmoves", ("ac_trivialize_search",), _found),
    "acmoves.canonical_form": ("acmoves", ("canonical_form",), None),
    "acmoves.removal_plan": ("acmoves", ("removal_plan",), None),
    "acmoves.verify_move_sequence": ("acmoves", ("verify_move_sequence",), None),
    "words.normalize": ("words", ("normalize",), None),
    "words.parse_word": ("words", ("parse_word",), None),
}

# Counters whose roll-up is a maximum; the rest are summed.
MAX_COUNTERS = {"max_dim", "max_coeff_bits", "max_in_bits", "max_uv_bits",
                "max_s_bits", "matrix_dim"}

# Reported per-layer metrics: (name, unit).  ``.calls``, ``.s`` (inclusive,
# outermost span of that name) and ``.self_s`` come from the spans; the
# rest from counters.  Every name here is also in BENCHMARK.json.
PER_LAYER = [
    ("cli.main.calls", "count"), ("cli.main.self_s", "s"),
    ("constructions.realize.calls", "count"), ("constructions.realize.s", "s"),
    ("constructions.realize.relator_letters", "letters"),
    ("presentations.abelianization.calls", "count"), ("presentations.abelianization.s", "s"),
    ("presentations.weight_vector.calls", "count"), ("presentations.weight_vector.s", "s"),
    ("presentations.is_wirtinger.calls", "count"), ("presentations.is_wirtinger.s", "s"),
    ("presentations.is_wirtinger.relator_letters", "letters"),
    ("fox.alexander_polynomial.calls", "count"), ("fox.alexander_polynomial.s", "s"),
    ("fox.alexander_polynomial.self_s", "s"),
    ("fox.alexander_polynomial.relator_letters", "letters"),
    ("fox.alexander_matrix.s", "s"),
    ("laurent.det_lambda.calls", "count"), ("laurent.det_lambda.s", "s"),
    ("laurent.det_lambda.max_dim", "rows"), ("laurent.det_lambda.max_coeff_bits", "bits"),
    ("intlinalg.smith_normal_form.calls", "count"), ("intlinalg.smith_normal_form.s", "s"),
    ("intlinalg.smith_normal_form.cells", "count"),
    ("intlinalg.smith_normal_form.nonzeros", "count"),
    ("intlinalg.smith_normal_form.max_dim", "rows"),
    ("intlinalg.smith_normal_form.max_in_bits", "bits"),
    ("intlinalg.smith_normal_form.max_uv_bits", "bits"),
    ("intlinalg.smith_normal_form.max_s_bits", "bits"),
    ("intlinalg.cokernel_invariants.calls", "count"), ("intlinalg.cokernel_invariants.s", "s"),
    ("covers.cyclic_cover_presentation.calls", "count"),
    ("covers.cyclic_cover_presentation.s", "s"),
    ("covers.cyclic_cover_presentation.relator_letters", "letters"),
    ("covers.cover_homology.s", "s"),
    ("covers.module_cover_homology.s", "s"), ("covers.module_cover_homology.matrix_dim", "rows"),
    ("cosets.todd_coxeter.calls", "count"), ("cosets.todd_coxeter.s", "s"),
    ("cosets.todd_coxeter.closed_share", "share"),
    ("cosets.weight_one_certificate.calls", "count"), ("cosets.weight_one_certificate.s", "s"),
    ("acmoves.ac_trivialize_search.calls", "count"), ("acmoves.ac_trivialize_search.s", "s"),
    ("acmoves.ac_trivialize_search.found_share", "share"),
    ("acmoves.canonical_form.calls", "count"), ("acmoves.canonical_form.unique_share", "share"),
    ("acmoves.removal_plan.calls", "count"), ("acmoves.removal_plan.s", "s"),
    ("acmoves.verify_move_sequence.s", "s"),
    ("words.normalize.calls", "count"), ("words.normalize.s", "s"),
    ("words.parse_word.calls", "count"),
    ("fox.rooted_share", "share"),
] + [(f"{layer}.self_share", "share") for layer in LAYERS]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = list(TARGETS)
        # span records: (name index, start, end, parent record index, op id)
        self.records: list[tuple[int, float, float, int, int]] = []
        self.self_s = [0.0] * len(self.names)
        self.incl_s = [0.0] * len(self.names)
        self.calls = [0] * len(self.names)
        self.counters: dict[str, float] = defaultdict(float)
        self.canonical: set = set()
        self.canonical_unique = 0
        self.op_id = -1
        self._stack: list[list] = []  # open spans: [child seconds, record index]
        self._open = [0] * len(self.names)  # open spans per name, for .s
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n.startswith("ribbonknots.") and m is not None]
        for k, (span, (module, functions, counter)) in enumerate(TARGETS.items()):
            owner = sys.modules[f"ribbonknots.{module}"]
            for fname in functions:
                original = getattr(owner, fname)
                wrapper = self._wrap(k, original, counter)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.canonical_unique += len(self.canonical)
        self.canonical = set()

    def _wrap(self, k: int, fn, counter):
        clock = time.perf_counter
        stack = self._stack
        is_canonical = self.names[k] == "acmoves.canonical_form"

        def traced(*args, **kwargs):
            record = len(self.records)
            self.records.append(None)
            parent = stack[-1][1] if stack else -1
            stack.append([0.0, record])
            self._open[k] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                child = stack.pop()[0]
                self._open[k] -= 1
                duration = end - start
                self.calls[k] += 1
                self.self_s[k] += duration - child
                if not self._open[k]:
                    self.incl_s[k] += duration
                if stack:
                    stack[-1][0] += duration
                self.records[record] = (k, start, end, parent, self.op_id)
            if counter is not None:
                name = self.names[k]
                for key, value in counter(args, result).items():
                    full = f"{name}.{key}"
                    if key in MAX_COUNTERS:
                        self.counters[full] = max(self.counters[full], value)
                    else:
                        self.counters[full] += value
            if is_canonical:
                self.canonical.add(hash(result))
            return result

        traced.__wrapped__ = fn
        return traced

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        """One span per line: ``[name, start, end, parent line, op id]``
        (perf_counter seconds; parent -1 for a root span)."""
        with open(path, "w") as fh:
            for k, start, end, parent, op in self.records:
                fh.write(json.dumps([self.names[k], start, end, parent, op]) + "\n")

    def rollup(self, passes: int, op_seconds: float) -> dict[str, float]:
        """Per-layer metrics per pass over the op list; ``op_seconds`` is
        the traced time of one pass, the base of the ``share`` metrics."""
        unique = self.canonical_unique + len(self.canonical)
        by_name = {n: i for i, n in enumerate(self.names)}
        out: dict[str, float] = {}
        for metric, _unit in PER_LAYER:
            span, _, field = metric.rpartition(".")
            k = by_name.get(span)
            if field == "calls":
                out[metric] = self.calls[k] / passes
            elif field == "s":
                out[metric] = self.incl_s[k] / passes
            elif field == "self_s":
                out[metric] = self.self_s[k] / passes
            elif field == "self_share":
                layer_self = sum(self.self_s[i] for i, n in enumerate(self.names)
                                 if n.startswith(span + "."))
                out[metric] = layer_self / passes / op_seconds
            elif metric == "fox.rooted_share":
                out[metric] = self.incl_s[by_name["fox.alexander_polynomial"]] / passes / op_seconds
            elif metric == "acmoves.canonical_form.unique_share":
                out[metric] = unique / self.calls[k] if self.calls[k] else 0.0
            elif field in ("closed_share", "found_share"):
                base = field.partition("_")[0]
                out[metric] = (self.counters[f"{span}.{base}"] / self.calls[k]
                               if self.calls[k] else 0.0)
            elif field in MAX_COUNTERS:
                out[metric] = self.counters[metric]
            else:
                out[metric] = self.counters[metric] / passes
        return out
