"""Every name a dimkit module imports is used in that module, and every
module it imports is dimkit's own or the standard library's.

A name bound only for perfbench's tracer to wrap carries ``noqa: F401`` on
its import line.  ``__init__.py`` imports to re-export, so it is skipped by
the first check.
"""

import ast
import pathlib
import sys

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


def outside_stdlib(source: str) -> list[str]:
    """The modules the source imports absolutely whose top-level package is
    not in the standard library; a relative import is dimkit's own."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names
            if name.partition(".")[0] not in sys.stdlib_module_names]


def test_imports_outside_stdlib_are_found():
    source = ("from __future__ import annotations\n"
              "import os.path, numpy as np\n"
              "from json.encoder import c_make_encoder\n"
              "from hypothesis.strategies import integers\n"
              "from . import core\n"
              "from .psi import STAR\n"
              "def f():\n"
              "    import yaml\n")
    assert outside_stdlib(source) == ["numpy", "hypothesis.strategies", "yaml"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_every_import_is_dimkit_or_stdlib(module):
    assert outside_stdlib((SRC / module).read_text(encoding="utf-8")) == []
