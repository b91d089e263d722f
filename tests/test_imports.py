"""Every name a dimkit module imports is used in that module.

A name bound only for perfbench's tracer to wrap carries ``noqa: F401`` on
its import line.  ``__init__.py`` imports to re-export, so it is skipped.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "dimkit"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names the module imports, outside ``__future__`` and lines marked
    ``noqa: F401``, that no expression of the module reads."""
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(alias.asname or alias.name).partition(".")[0]
                         for alias in node.names
                         if "noqa: F401" not in lines[alias.lineno - 1]]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from functools import cache, partial\n"
              "from x import y  # noqa: F401  (bound for a wrapper)\n"
              "sys.exit(cache(len))\n")
    assert unused_imports(source) == ["os", "partial"]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []
