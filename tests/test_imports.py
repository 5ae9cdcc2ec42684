"""No stale imports in the package: every name a glgeom module imports is
used in that module, unless its line is marked `# noqa: F401` (kept on
purpose, such as a re-export)."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "glgeom"


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
