"""Source hygiene: every package module uses the names it imports."""

import ast
from pathlib import Path

import pytest

import hasseforms

MODULES = sorted(Path(hasseforms.__file__).parent.glob("*.py"))


def _unused_imports(source):
    # the names a module binds by import and neither reads nor lists in
    # __all__; `from __future__` imports bind nothing
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_import_guard_sees_reads_and_exports():
    source = ("from __future__ import annotations\nimport os.path\nimport sys\n"
              "from math import gcd, isqrt as root\nfrom .gf import FieldCtx, make_field\n"
              "__all__ = ['make_field']\n\ndef f(n) -> FieldCtx:\n    return os.sep, root(n)\n")
    assert _unused_imports(source) == ["gcd", "sys"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_modules_use_what_they_import(path):
    assert _unused_imports(path.read_text()) == []
