"""No module of the library or the suite imports a name it never uses.

Stdlib ``ast`` only.  A name counts as used when it appears as a name
anywhere in the module, or inside a string annotation.  Exempt are
``from __future__`` imports, names the module lists in ``__all__``, and
aliases whose own line carries ``# noqa: F401`` (deliberate re-exports).
"""
import ast
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_MODULES = sorted([*(_ROOT / "src" / "ertest").glob("*.py"), *(_ROOT / "tests").glob("*.py")])


def _exported(tree) -> set:
    """The string entries of a module-level ``__all__`` list or tuple."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return names


def _used(tree) -> set:
    """Every name loaded, stored or deleted, and each name inside a string
    annotation."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [a for node in ast.walk(tree)
                   for a in (getattr(node, "annotation", None), getattr(node, "returns", None))
                   if a is not None]
    for part in (p for a in annotations for p in ast.walk(a)):
        if isinstance(part, ast.Constant) and isinstance(part.value, str):
            expr = ast.parse(part.value, mode="eval")
            names.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return names


def unused_imports(source: str) -> list:
    """(line, name) of each imported name the module never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    exempt, used = _exported(tree), _used(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            noqa = "# noqa: F401" in lines[alias.lineno - 1]
            if name not in used and name not in exempt and not noqa:
                unused.append((alias.lineno, name))
    return unused


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import_and_its_exemptions():
    source = "\n".join([
        "from __future__ import annotations",
        "import os, json",
        "from typing import (",
        "    Optional,",
        "    List,  # noqa: F401  re-exported",
        "    Dict,",
        ")",
        "from a.b import c as d",
        "import x.y",
        "__all__ = ['Dict']",
        "def f(p: 'Optional[int]'):",
        "    return json.dumps(p), x.y",
    ])
    assert unused_imports(source) == [(2, "os"), (8, "d")]
