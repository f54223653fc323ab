"""Every name a module imports is used in it, every private
module-level name of the package is read in its own module, and every
public module-level function and class is read by package code.

Static checks by the standard library's ``ast``: no linter is a
dependency, and a rename or a deletion can otherwise leave a stale
import, an orphaned ``_helper`` or a helper only the tests call behind
that still resolves.  The import scan covers the package and this test
directory, the name scans the package; none scans ``bench/``.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = (ROOT / "src" / "ribbonknots", ROOT / "tests")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    sample = "from __future__ import annotations\nimport os, sys\nfrom a.b import c as d, e\nprint(sys, e)\n"
    assert unused_imports(sample) == ["line 2: os", "line 3: d"]
    found = {
        str(path.relative_to(ROOT)): names
        for directory in SCANNED
        for path in sorted(directory.glob("*.py"))
        if (names := unused_imports(path.read_text()))
    }
    assert found == {}


def unread_private_names(source: str) -> list[str]:
    """Module-level ``_name`` functions, classes and constants that
    nothing in the module reads (dunder names excepted)."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"line {line}: {name}" for name, line in defined.items() if name not in read]


def test_no_unread_private_names():
    sample = (
        "_A = 1\n_B: int = 2\n_C, (_D, e) = 3, (4, 5)\n__all__ = []\n"
        "def _f():\n    _local = _A\n    return _D\n"
        "class _G:\n    _attr = 0\n"
        "def h():\n    return _f()\n"
    )
    assert unread_private_names(sample) == [
        "line 2: _B", "line 3: _C", "line 8: _G"
    ]
    found = {
        str(path.relative_to(ROOT)): names
        for path in sorted(SCANNED[0].glob("*.py"))
        if (names := unread_private_names(path.read_text()))
    }
    assert found == {}


def unread_public_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each public module-level function and class in
    ``sources`` (module name -> source) that no module reads outside the
    name's own definition, by name or as an attribute of a module."""
    defined = {}
    reads = []  # (top-level statement, the names it reads)
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined[f"{module}.{node.name}"] = node
            reads.append((node, {
                n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                or isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                and n.value.id in sources
            }))
    return [name for name, node in defined.items()
            if not any(name.partition(".")[2] in names for other, names in reads if other is not node)]


# The public names no package code reads.  expand_length1 is documented
# in the README; the benchmark's traced mode wraps the others by name, so
# they leave the package when it stops doing so.
UNREAD_PUBLIC = {
    "constructions.realize",
    "covers.cyclic_cover_presentation",
    "intlinalg.smith_normal_form",
    "presentations.expand_length1",
}


def test_every_public_name_is_read_by_the_package(monkeypatch):
    sample = {
        "a": "def f():\n    return f()\nclass C:\n    pass\ndef g(x: C):\n    return x.f\n",
        "b": "from . import a\ny = a.g\n",
    }
    assert unread_public_names(sample) == ["a.f"]
    found = unread_public_names({path.stem: path.read_text() for path in sorted(SCANNED[0].glob("*.py"))})
    assert sorted(found) == sorted(UNREAD_PUBLIC)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spans = importlib.import_module("spans")
    wrapped = {f"{module}.{fn}" for module, functions, _ in spans.TARGETS.values() for fn in functions}
    assert UNREAD_PUBLIC - wrapped == {"presentations.expand_length1"}


def test_cover_homology_does_not_load_the_fox_oracle():
    # The group side of the cover oracle is checked against the module
    # side and the Fox/Alexander oracle separately, so covers must not
    # reach fox through its imports, nor take the Alexander check's
    # determinant over Z[t, 1/t]: the modulus route bounds det B(C_N) by
    # Hadamard's inequality instead.
    code = "import sys, ribbonknots.covers; print(*sorted(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60).stdout.split()
    loaded = {m for m in out if m.startswith("ribbonknots.")}
    assert "ribbonknots.covers" in loaded and "ribbonknots.fox" not in loaded, loaded
    assert "det_lambda" not in (SCANNED[0] / "covers.py").read_text()


# The standard-library modules the package imports by name.  Loading
# anything beyond what they load costs every CLI call its start-up time.
STDLIB_IMPORTS = ("__future__", "argparse", "dataclasses", "functools", "math", "operator",
                  "pathlib", "re", "sys", "typing")


def test_cli_loads_no_module_beyond_the_stdlib_modules_it_names():
    # In fresh interpreters: every module that `import ribbonknots.cli`
    # loads outside the package is also loaded by importing STDLIB_IMPORTS
    # alone, so a new import such as `fractions` fails here.
    def loaded(code: str) -> set[str]:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run([sys.executable, "-c", f"{code}; import sys; print(*sys.modules)"],
                             capture_output=True, text=True, env=env, check=True, timeout=60)
        return set(out.stdout.split())

    cli = loaded("import ribbonknots.cli")
    base = loaded("import " + ", ".join(STDLIB_IMPORTS))
    assert "ribbonknots.cli" in cli
    assert {m for m in cli - base if not m.startswith("ribbonknots")} == set()
