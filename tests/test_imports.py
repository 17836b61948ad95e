"""Every name a module of the package imports is read in that module, every
public function, class and method is read somewhere in the package, and the
modules import one another in one direction: errors, graph, then structure
and resolvers, which import neither each other nor the modules above them.

The package's __init__ re-exports what it imports, and `from __future__`
imports are directives, so both are exempt.  A public name that only the
tests read belongs in the tests.
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


# public names no module of the package reads, and why each stays public
UNREAD_ALLOWED = {
    "is_locating_set": "the witness check: verification is to check every witness with it,"
    " and structural witness candidates are to pass it before any search",
}


def unread_public_names(sources: list[str]) -> list[str]:
    """Public top-level functions and classes of the module sources that no
    place of them reads as a name, and public methods (as Class.method) that
    none reads as an attribute."""
    trees = [ast.parse(text) for text in sources]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    loads = [node for node in nodes if isinstance(getattr(node, "ctx", None), ast.Load)]
    names_read = {node.id for node in loads if isinstance(node, ast.Name)}
    attrs_read = {node.attr for node in loads if isinstance(node, ast.Attribute)}
    unread = []
    for node in (node for tree in trees for node in tree.body):
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if node.name not in names_read:
            unread.append(node.name)
        if isinstance(node, ast.ClassDef):
            unread += [
                f"{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, ast.FunctionDef)
                and not item.name.startswith("_")
                and item.name not in attrs_read
            ]
    return sorted(unread)


def test_finds_an_unread_public_name():
    defining = (
        "def used():\n    pass\n\ndef unused():\n    pass\n\nclass C:\n    def m(self):\n        pass\n"
        "    def read(self):\n        pass\n    def _private(self):\n        pass\n"
    )
    reading = "from .a import used, C\nused()\nC().read()\n"
    assert unread_public_names([defining, reading]) == ["C.m", "unused"]


def test_no_public_name_only_the_tests_read():
    paths = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    sources = [path.read_text(encoding="utf-8") for path in paths]
    assert unread_public_names(sources) == sorted(UNREAD_ALLOWED)


def package_imports(source: str) -> set[str]:
    """The modules of the package that a module source imports, at any depth:
    `from .m import ...` and `from . import m`, or their pseudoloc forms."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module.split(".")[0] != "pseudoloc":
                    continue
                module = module.removeprefix("pseudoloc").lstrip(".")
            found |= {module.split(".")[0]} if module else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("pseudoloc.")}
    return found


def test_finds_package_imports():
    source = (
        "from __future__ import annotations\n"
        "import os, pseudoloc.cli\n"
        "from .graph import kept\n"
        "from . import errors\n"
        "def f():\n"
        "    from pseudoloc.resolvers import cover_problem\n"
    )
    assert package_imports(source) == {"cli", "errors", "graph", "resolvers"}


def test_import_graph():
    def imports(name: str) -> set[str]:
        return package_imports((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))

    assert imports("graph") == {"errors"}
    assert imports("structure") == {"errors", "graph"}
    assert not imports("resolvers") & {"structure", "closed_form", "corpus", "cli"}
