"""No stale imports and no dead definitions in the package: every name a
glgeom module imports is used in that module, unless its line is marked
`# noqa: F401` (kept on purpose, such as a re-export); and every top-level
def or class is referenced outside its own body somewhere in src/ or
tests/."""

import ast
import pathlib
from collections import Counter

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "glgeom"


def unused_imports(path):
    """(line, name) for each name imported in the file and never read."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            end = lines[node.lineno - 1:node.end_lineno]
            if any("# noqa: F401" in line for line in end):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_the_check_sees_an_unused_import(tmp_path):
    f = tmp_path / "m.py"
    f.write_text("from __future__ import annotations\n"
                 "import os\nimport sys\nimport json  # noqa: F401\n"
                 "from a.b import (c,\n    d)\n\nprint(sys.argv, c)\n")
    assert unused_imports(f) == [(2, "os"), (5, "d")]


def _names_read(node):
    """Names a statement reads: bare names, attributes and the names a
    from-import brings in."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def unreferenced_definitions(package, others):
    """(file name, name) for each top-level def or class in the package
    files whose name no top-level statement but its own reads, in the
    package files or the others."""
    body = {path: ast.parse(path.read_text()).body
            for path in [*package, *others]}
    reads = Counter(name for stmts in body.values() for stmt in stmts
                    for name in _names_read(stmt))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [(path.name, stmt.name) for path in package for stmt in body[path]
            if isinstance(stmt, defs)
            and reads[stmt.name] == (stmt.name in _names_read(stmt))]


def test_no_dead_definitions():
    assert unreferenced_definitions(sorted(SRC.glob("*.py")),
                                    sorted(TESTS.glob("*.py"))) == []


def test_the_check_sees_a_dead_definition(tmp_path):
    pkg, other = tmp_path / "m.py", tmp_path / "test_m.py"
    pkg.write_text("def used():\n    return 1\n\n"
                   "def recursive(n):\n    return recursive(n - 1)\n\n"
                   "class Named:\n    pass\n\n"
                   "class Dead:\n    used = 2\n\n"
                   "x = used()\n")
    other.write_text("from m import Named\n")
    assert unreferenced_definitions([pkg], [other]) == [
        ("m.py", "recursive"), ("m.py", "Dead")]
