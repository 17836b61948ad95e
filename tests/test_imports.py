"""Every name a module of the package imports is read in that module.

The package's __init__ re-exports what it imports, and `from __future__`
imports are directives, so both are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pseudoloc

PACKAGE = Path(pseudoloc.__file__).parent


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that no Name node of the module reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


def test_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from .graph import Graph as G, size_cap\n"
        "sys.exit(size_cap(1))\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "G")]


def test_no_unused_imports_in_the_package():
    found = {
        path.name: unused
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py" and (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}
