"""Independent checks on the program's CLI output.

Nothing here imports ``ribbonknots``: polynomials are multiplied by plain
integer convolution, words are freely reduced on lists of signed letters,
and Andrews-Curtis move lists are replayed from their text form.  Each
``check_*`` function returns ``(problem, inconclusive)`` where ``problem``
is ``None`` for a correct output.
"""

from __future__ import annotations

import re

Letter = tuple  # (generator name, +1 or -1)

_ROW = re.compile(r"^(\S+)\s+(\S+)\s+(.*)$")


# ---------------------------------------------------------------------------
# Laurent polynomials as (low exponent, coefficient list)


def convolve(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def unit_normal(coeffs: list[int]) -> list[int]:
    """Strip zero ends (a unit shift) and make the constant term positive."""
    lo, hi = 0, len(coeffs)
    while lo < hi and coeffs[lo] == 0:
        lo += 1
    while hi > lo and coeffs[hi - 1] == 0:
        hi -= 1
    core = coeffs[lo:hi]
    if core and core[0] < 0:
        core = [-c for c in core]
    return core


def poly_text(coeffs: list[int]) -> str:
    """The program's human-readable polynomial form (exponents from 0)."""
    parts = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        if k == 0:
            term = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            term = f"{mag}t" if k == 1 else f"{mag}t^{k}"
        parts.append(("- " if c < 0 else "+ ") + term)
    if not parts:
        return "0"
    head = parts[0].replace("+ ", "").replace("- ", "-")
    return " ".join([head] + parts[1:])


# ---------------------------------------------------------------------------
# Free-group words


def parse_letters(text: str) -> list[Letter]:
    """Expand ``g`` / ``g^k`` tokens into signed letters and reduce."""
    raw: list[Letter] = []
    for token in text.split():
        name, _, exp = token.partition("^")
        k = int(exp) if exp else 1
        raw.extend([(name, 1 if k > 0 else -1)] * abs(k))
    return reduce_letters(raw)


def reduce_letters(raw) -> list[Letter]:
    out: list[Letter] = []
    for g, s in raw:
        if out and out[-1] == (g, -s):
            out.pop()
        else:
            out.append((g, s))
    return out


def invert_letters(w: list[Letter]) -> list[Letter]:
    return [(g, -s) for g, s in reversed(w)]


def letters_to_text(w: list[Letter]) -> str:
    """Group equal letters back into ``g^k`` tokens."""
    tokens: list[str] = []
    i = 0
    while i < len(w):
        g, s = w[i]
        j = i
        while j < len(w) and w[j] == (g, s):
            j += 1
        k = s * (j - i)
        tokens.append(g if k == 1 else f"{g}^{k}")
        i = j
    return " ".join(tokens)


def parse_presentation(text: str) -> tuple[list[str], list[list[Letter]]]:
    gens: list[str] = []
    rels: list[list[Letter]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("gens "):
            gens = line.split()[1:]
        elif line.startswith("rel"):
            rels.append(parse_letters(line[3:]))
    return gens, rels


def wirtinger_letters(b: list[int], meridian: str = "t", u: str = "u") -> int:
    """Letter count of the one-relator Wirtinger form built from
    ``beta = (alpha - 1)/(t - 1)`` with coefficients ``b``:
    ``u^-1 W t W^-1`` for ``W = prod_i t^i (u t^-1)^(b_i) t^-i``."""
    w: list[Letter] = []
    for i, bi in enumerate(b):
        piece = [(u, 1), (meridian, -1)] if bi > 0 else [(meridian, 1), (u, -1)]
        w.extend([(meridian, 1)] * i)
        w.extend(piece * abs(bi))
        w.extend([(meridian, -1)] * i)
    w = reduce_letters(w)
    rel = reduce_letters([(u, -1)] + w + [(meridian, 1)] + invert_letters(w))
    return len(rel)


# ---------------------------------------------------------------------------
# Andrews-Curtis replay


def replay_moves(
    gens: list[str], rels: list[list[Letter]], text: str
) -> str | None:
    """Apply a move list to a balanced presentation, then remove ripe
    pairs; ``None`` when the result is empty, else the reason it is not."""
    gens, rels = list(gens), [list(r) for r in rels]
    for line in text.splitlines():
        tok = line.split()
        kind = tok[0]
        if kind == "inv":
            i = int(tok[1]) - 1
            rels[i] = invert_letters(rels[i])
        elif kind == "conj":
            i, g, s = int(tok[1]) - 1, tok[2], int(tok[3])
            if g not in gens or s not in (1, -1):
                return f"bad conjugation {line!r}"
            rels[i] = reduce_letters([(g, s)] + rels[i] + [(g, -s)])
        elif kind == "mul":
            i, j = int(tok[1]) - 1, int(tok[2]) - 1
            if i == j:
                return f"bad multiply {line!r}"
            rels[i] = reduce_letters(rels[i] + rels[j])
        elif kind == "add":
            name, z = tok[1], parse_letters(" ".join(tok[2:]))
            gens.append(name)
            rels.append(reduce_letters([(name, 1)] + z))
        elif kind == "rm":
            if not _remove_pair(gens, rels, tok[1]):
                return f"pair {tok[1]} not removable"
        else:
            return f"unknown move {line!r}"
    while any(_remove_pair(gens, rels, g) for g in list(gens)):
        pass
    return None if not gens and not rels else f"{len(gens)} generators left"


def _remove_pair(gens: list[str], rels: list[list[Letter]], name: str) -> bool:
    holders = [k for k, r in enumerate(rels) if any(g == name for g, _ in r)]
    if name not in gens or len(holders) != 1:
        return False
    r = rels[holders[0]]
    if r[0] != (name, 1) or any(g == name for g, _ in r[1:]):
        return False
    gens.remove(name)
    del rels[holders[0]]
    return True


# ---------------------------------------------------------------------------
# Output checks, one per op kind.  ``calls`` is a list of
# (exit code, stdout, stderr) for the CLI calls the op made.


def check_realize_verify(op: dict, calls: list) -> tuple[str | None, bool]:
    code, out, err = calls[0]
    if code != 0 or err or not out.startswith("# wirtinger\n"):
        return f"realize exit {code}: {err.strip()[:200]}", False
    code, out, err = calls[1]
    rows = {}
    for line in out.splitlines():
        m = _ROW.match(line)
        if not m:
            return f"unparsed verify row {line!r}", False
        rows[m.group(1)] = (m.group(2), m.group(3))
    if err:
        return f"verify stderr {err.strip()[:200]!r}", False
    if op["mutant"]:
        if code == 1 and rows.get("abelianization", ("",))[0] == "FAIL":
            return None, False
        return f"mutant not flagged (exit {code})", False

    alpha = [1]
    for coeffs in op["polys"]:
        alpha = convolve(alpha, coeffs)
    target = poly_text(unit_normal(alpha))
    want = {
        "abelianization": ("PASS", "Z"),
        "wirtinger-lot": ("PASS", "tree"),
        "alexander": ("PASS", f"{target} vs {target}"),
    }
    for name, row in want.items():
        if rows.get(name) != row:
            return f"{name} row {rows.get(name)} != {row}", False
    for n in op["orders"]:
        verdict, detail = rows.get(f"covers-N{n}", ("missing", ""))
        group, _, module = detail.partition(" vs ")
        if verdict != "PASS" or group != module:
            return f"covers-N{n} row {verdict} {detail!r}", False
    weight = rows.get("weight-1")
    if weight == ("PASS", "certified") and code == 0:
        return None, False
    if weight == ("INCONCLUSIVE", "inconclusive") and code == 2:
        return None, True
    return f"weight-1 row {weight} with exit {code}", False


def check_covers(op: dict, calls: list) -> tuple[str | None, bool]:
    code, out, err = calls[0]
    lines = out.splitlines()
    if code != 0 or err or len(lines) != len(op["orders"]):
        return f"covers exit {code}: {err.strip()[:200]}", False
    for n, line in zip(op["orders"], lines):
        m = re.fullmatch(rf"N={n}: group (.+) \| module (.+) \[ok\]", line)
        if not m or m.group(1) != m.group(2):
            return f"cover row {line!r}", False
    return None, False


def check_tc(op: dict, calls: list) -> tuple[str | None, bool]:
    code, out, err = calls[0]
    if err:
        return f"tc stderr {err.strip()[:200]!r}", False
    if code == 0 and out == "closed index=1\n":
        return None, False
    if code == 2 and out == f"overflow limit={op['max_cosets']}\n":
        return None, True
    return f"tc exit {code} {out.strip()[:200]!r}", False


def check_ac(op: dict, calls: list, pres_text: str) -> tuple[str | None, bool]:
    code, out, err = calls[0]
    if code == 2 and not out and err in ("budget\n", "exhausted\n"):
        return None, True
    n_moves = len(out.splitlines())
    if code != 0 or err != f"found moves={n_moves}\n":
        return f"ac-search exit {code} {err.strip()[:200]!r}", False
    gens, rels = parse_presentation(pres_text)
    rels.append([(op["kill"], 1)])
    reason = replay_moves(gens, rels, out)
    return (None if reason is None else f"move list does not replay: {reason}"), False


def matches_golden(kind: str, calls: list, golden: list | None) -> bool:
    """Byte equality with the recorded outputs, except that a recorded
    inconclusive outcome (exit 2) may have become conclusive; the per-op
    check separately confirms that the new outcome is correct."""
    calls = [list(c) for c in calls]
    if calls == golden:
        return True
    if golden is None or golden[-1][0] != 2 or calls[-1][0] == 2:
        return False
    if kind in ("tc", "ac"):
        return True
    if kind == "realize-verify" and calls[0] == golden[0]:
        new = [ln for ln in calls[1][1].splitlines() if not ln.startswith("weight-1")]
        old = [ln for ln in golden[1][1].splitlines() if not ln.startswith("weight-1")]
        return new == old
    return False
