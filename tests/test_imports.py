"""No stale imports and no dead definitions in the package: every name a
glgeom module imports is used in that module, unless its line is marked
`# noqa: F401` (kept on purpose, such as a re-export); every top-level
def or class is referenced outside its own body somewhere in src/ or
tests/; and every top-level def, class or assignment, and every method of
a top-level class, is reached by name from a verb of the CLI or from what
the acceptance gate imports, so code that only tests run lives under
tests/.  The functions that functools caches are exactly those of
ALLOWED_CACHES: a module-level cache holds what it saw for the life of
the process, so each new one is a decision, not a default.  Importing the engine modules loads neither dataclasses nor
fractions, which would only add to the set-up time of every process; nor
does importing the CLI.  Every backticked identifier in README.md names
a file of src/ or tests/ or words of their text, so a rename cannot
leave a stale name there."""

import ast
import builtins
import importlib
import os
import pathlib
import subprocess
import sys
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


def _reads(node):
    """(name, as_attribute) for each name a statement reads: bare names and
    the names a from-import brings in (False), and attributes (True)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add((sub.id, False))
        elif isinstance(sub, ast.Attribute):
            out.add((sub.attr, True))
        elif isinstance(sub, ast.ImportFrom):
            out.update((alias.name, False) for alias in sub.names)
    return out


def _names_read(node):
    """Names a statement reads, as a bare name or as an attribute."""
    return {name for name, _ in _reads(node)}


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


ALLOWED_CACHES = {"gfq.field_make", "subspace._unit_rows",
                  "witness._proj_pair_dims", "witness._bis_pair_dims"}


def _is_cache(node):
    """Whether an expression is functools.lru_cache or functools.cache,
    bare or called (lru_cache(maxsize=None)), by name or as an attribute."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr in ("lru_cache", "cache")
    return isinstance(node, ast.Name) and node.id in ("lru_cache", "cache")


def cached_functions(paths):
    """module.name for each function in the files that lru_cache or cache
    wraps: as a decorator, or called on it (lru_cache()(f), cache(f))."""
    out = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(map(_is_cache, node.decorator_list)):
                    out.add(f"{path.stem}.{node.name}")
            elif (isinstance(node, ast.Call) and _is_cache(node.func)
                  and node.args
                  and isinstance(node.args[0], (ast.Name, ast.Attribute))):
                out.add(f"{path.stem}.{ast.unparse(node.args[0])}")
    return out


def test_only_the_allowed_functions_are_cached():
    assert cached_functions(sorted(SRC.glob("*.py"))) == ALLOWED_CACHES


def test_the_check_sees_a_new_cache(tmp_path):
    f = tmp_path / "m.py"
    f.write_text("import functools\nfrom functools import cache, lru_cache\n\n"
                 "@lru_cache(maxsize=None)\ndef a():\n    return 1\n\n"
                 "@functools.cache\ndef b():\n    return 2\n\n"
                 "def c():\n    @cache\n    def inner():\n        return 3\n"
                 "    return inner()\n\n"
                 "def d():\n    return 4\n\n"
                 "e = functools.lru_cache(8)(d)\nf = cache(d)\n"
                 "g = lru_cache(16)\n")
    assert cached_functions([f]) == {"m.a", "m.b", "m.inner", "m.d"}


def _outside_attributes(cls, package_names):
    """The attribute names of the class's bases from outside the package: a
    builtin, or module.Class with the module imported here."""
    out = set()
    for base in cls.bases:
        head, *path = ast.unparse(base).split(".")
        if head in package_names:
            continue
        obj = (importlib.import_module(head) if path
               else getattr(builtins, head))
        for part in path:
            obj = getattr(obj, part)
        out.update(dir(obj))
    return out


def _definitions(stmt, package_names):
    """(name, node) for each name a top-level statement defines, with the
    node whose reads reaching that name reaches.  A def or an assignment
    target gives the statement.  A class gives its body less its methods,
    and each method, as "Class.method", its own def; dunders and overrides
    of a base from outside the package run without being named, so they
    stay in the class's body."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [(stmt.name, stmt)]
    if isinstance(stmt, ast.ClassDef):
        implicit = _outside_attributes(stmt, package_names)
        methods = [node for node in stmt.body
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                   and not node.name.startswith("__")
                   and node.name not in implicit]
        body = ast.ClassDef(name=stmt.name, bases=stmt.bases,
                            keywords=stmt.keywords,
                            decorator_list=stmt.decorator_list,
                            body=[node for node in stmt.body
                                  if node not in methods])
        return [(stmt.name, body)] + [
            (f"{stmt.name}.{node.name}", node) for node in methods]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [(node.id, stmt) for t in targets for node in ast.walk(t)
                if isinstance(node, ast.Name)]
    return []


def unreachable_definitions(package, entry, gate):
    """(file name, name) for each top-level def, class or assignment, and
    each method of a top-level class other than a dunder or an override
    of a base from outside the package, in the package files that no
    chain of names reaches from the roots: the names the entry file
    defines at top level, and the names the gate imports from glgeom.  A
    reached name reaches every name read (_reads) by a definition of it in
    any package file.  A top-level name is reached by any read of it; a
    method only by an attribute read, so that a local variable of the same
    name reaches nothing.  Names are matched, not resolved."""
    body = {path: ast.parse(path.read_text()).body for path in package}
    package_names = {stmt.name for stmts in body.values() for stmt in stmts
                     if isinstance(stmt, ast.ClassDef)}
    defined = {path: [d for stmt in body[path]
                      for d in _definitions(stmt, package_names)]
               for path in package}
    top, methods = {}, {}
    for path in package:
        for name, node in defined[path]:
            *cls, last = name.split(".")
            (methods if cls else top).setdefault(last, []).append(node)
    todo = [(name, False) for name, _ in defined[entry] if "." not in name]
    todo += [(alias.name, False)
             for node in ast.walk(ast.parse(gate.read_text()))
             if isinstance(node, ast.ImportFrom) and node.module
             and node.module.split(".")[0] == "glgeom"
             for alias in node.names]
    reached = set()
    while todo:
        read = todo.pop()
        if read not in reached:
            reached.add(read)
            name, as_attribute = read
            nodes = top.get(name, []) + (methods.get(name, [])
                                         if as_attribute else [])
            for node in nodes:
                todo.extend(_reads(node))
    reached_names = {name for name, _ in reached}
    reached_attributes = {name for name, as_attribute in reached
                          if as_attribute}
    return [(path.name, name) for path in package
            for name, _ in defined[path]
            if name.split(".")[-1] not in
            (reached_attributes if "." in name else reached_names)]


def test_every_definition_is_reached():
    assert unreachable_definitions(sorted(SRC.glob("*.py")), SRC / "cli.py",
                                   TESTS / "test_acceptance.py") == []


def test_the_check_sees_an_unreached_definition(tmp_path):
    cli, lib = tmp_path / "cli.py", tmp_path / "lib.py"
    gate = tmp_path / "test_gate.py"
    cli.write_text("import argparse\nfrom . import lib\n\n"
                   "class Parser(argparse.ArgumentParser):\n"
                   "    def error(self, message):\n"
                   "        raise SystemExit\n\n"
                   "def main():\n    return lib.run()\n")
    lib.write_text("LIMIT = 3\nUNUSED = 4\n\n"
                   "def run():\n    tested_method = helper()\n"
                   "    return tested_method + LIMIT\n\n"
                   "def helper():\n    return 1\n\n"
                   "def gated():\n    return Shape().area()\n\n"
                   "class Shape:\n    sides = 4\n\n"
                   "    def __repr__(self):\n        return 'Shape'\n\n"
                   "    def area(self):\n        return self.side()\n\n"
                   "    def side(self):\n        return 1\n\n"
                   "    def tested_method(self):\n        return 2\n\n"
                   "class Fault(ValueError):\n"
                   "    def with_traceback(self, tb):\n        return self\n\n"
                   "def tested_only():\n    return helper()\n\n"
                   "def recursive(n):\n    return recursive(n - 1)\n")
    gate.write_text("import lib\nfrom glgeom.lib import gated\n\n"
                    "def test_it():\n    assert lib.tested_only() and gated()\n")
    assert unreachable_definitions([cli, lib], cli, gate) == [
        ("lib.py", "UNUSED"), ("lib.py", "Shape.tested_method"),
        ("lib.py", "Fault"), ("lib.py", "tested_only"),
        ("lib.py", "recursive")]


ENGINE = ("gfq", "subspace", "geometry", "witness", "oracle", "orbits")


def modules_added(names):
    """The names that importing glgeom.<name> for each name adds to
    sys.modules, in a fresh interpreter with only src/ on the path."""
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            f"for name in {list(names)!r}:\n"
            "    __import__('glgeom.' + name)\n"
            "print(*sorted(set(sys.modules) - before))\n")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return set(done.stdout.split())


def test_the_engine_imports_no_dataclasses_or_fractions():
    added = modules_added(ENGINE)
    assert {f"glgeom.{name}" for name in ENGINE} <= added
    assert added & {"dataclasses", "fractions", "glgeom.counts"} == set()


def test_the_cli_imports_no_dataclasses():
    added = modules_added(["cli"])
    assert "glgeom.cli" in added
    assert "dataclasses" not in added


def test_the_cli_imports_no_fractions():
    """Only the counts verb reads glgeom.counts, so it loads it (and
    fractions) itself; importing the CLI loads neither."""
    added = modules_added(["cli"])
    assert "glgeom.cli" in added
    assert added & {"fractions", "glgeom.counts"} == set()


def stale_readme_names(readme, paths):
    """The backticked names of a README (outside fenced blocks) that are
    neither the name of one of the files nor, dot-separated part by part,
    whole words in their text: what a rename leaves behind."""
    import re
    text = re.sub(r"```.*?```", "", readme, flags=re.S)
    names = [s for s in re.findall(r"`([^`]+)`", text)
             if re.fullmatch(r"[A-Za-z_]\w*(\.\w+)*", s)]
    files = {p.name for p in paths}
    words = set()
    for p in paths:
        words.update(re.findall(r"\w+", p.read_text()))
    return [s for s in names
            if s not in files and not set(s.split(".")) <= words]


def test_readme_names_are_in_the_code():
    """Every backticked identifier in README.md names a file of src/ or
    tests/, or each of its dotted parts is a whole word there (this file
    excepted, so that it cannot vouch for a name itself)."""
    paths = [p for p in [*SRC.rglob("*.py"), *TESTS.rglob("*.py")]
             if p.resolve() != pathlib.Path(__file__).resolve()]
    readme = (TESTS.parent / "README.md").read_text()
    assert stale_readme_names(readme, paths) == []


def test_the_check_sees_a_stale_readme_name(tmp_path):
    f = tmp_path / "m.py"
    f.write_text("def pk_rank(rows):\n    return Fraction(rows)\n")
    readme = ("Call `pk_rank` on `m.py`, not `pack_rows` or `a.pk_rank`;\n"
              "`fractions.Fraction` and `Fraction` are words, and\n"
              "```\n`unseen`\n```\n`pk_rank(x)` is no name.\n")
    assert stale_readme_names(readme, [f]) == [
        "pack_rows", "a.pk_rank", "fractions.Fraction"]
