"""Every name a module imports is used in it.

A static check by the standard library's ``ast``: no linter is a
dependency, and a rename can otherwise leave a stale import behind
that still resolves.  Scans the package and this test directory, not
``bench/``.
"""

import ast
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
