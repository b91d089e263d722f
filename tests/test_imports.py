"""Every name a dimkit module imports is used in that module, every
module it imports is dimkit's own or the standard library's, and the
private names it reads from other dimkit modules are the ones listed here.

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


# core's entry checkers, which every module may read to refuse a bad value
# where it enters
ENTRY_CHECKERS = frozenset({"_as_tuple", "_check_hypothesis_count", "_check_int",
                            "_check_table_entries", "_check_window", "_first_outside",
                            "_naturals", "_sample_points"})
# every other private name a module reads from another dimkit module, and
# every import inside a function
PRIVATE_READS = {
    "cli.py": {"core._checked_rows", "dimensions._default_window", "psi._image_numbers"},
    "dimensions.py": {"core._hypothesis_masks", "psi._binary_table", "psi._encoder_image"},
    "embedding.py": {"witnesses._exclusion_reader"},
    "nfl.py": {"core._index_sets"},
    "psi.py": {"dimensions._pseudo_cube_core in refute_ds_expressibility()",
               "witnesses.Witness in failing_psi_class()"},
    "witnesses.py": {"core._Table", "core._index_sets", "nfl._mixture_search",
                     "psi._binary_table", "psi._encoder_image",
                     "embedding.GoodFunctionSpec in psi_witness_from_natarajan()",
                     "embedding.good_patterns in psi_witness_from_natarajan()"},
}


def private_reads(source: str) -> set[str]:
    """What the module reads of other dimkit modules: "x._y" for each
    ``from .x import _y`` and each ``x._y`` read off a module bound by
    ``from . import x``, outside ``ENTRY_CHECKERS``, and "x.y in f()" for
    each name imported inside the function f."""
    tree = ast.parse(source)
    modules = {alias.asname or alias.name for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level and node.module is None
               for alias in node.names}
    reads = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level and node.module:
            reads.update(f"{node.module}.{alias.name}" for alias in node.names
                         if alias.name.startswith("_") and alias.name not in ENTRY_CHECKERS)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            reads.update(f"{inner.module}.{alias.name} in {node.name}()"
                         for inner in ast.walk(node) if isinstance(inner, ast.ImportFrom)
                         for alias in inner.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and node.attr.startswith("_")
              and node.attr not in ENTRY_CHECKERS):
            reads.add(f"{node.value.id}.{node.attr}")
    return reads


def test_private_reads_are_found():
    source = ("from . import nfl, psi as p\n"
              "from .core import _check_int, _Table, Hypothesis\n"
              "from itertools import _grouper\n"
              "def f():\n"
              "    from .embedding import good_patterns\n"
              "    return nfl._mixture_search, p._images, nfl.erm, x._y, nfl._check_int\n")
    assert private_reads(source) == {"core._Table", "embedding.good_patterns in f()",
                                     "nfl._mixture_search", "p._images"}


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_private_reads_across_modules_are_the_listed_ones(module):
    reads = private_reads((SRC / module).read_text(encoding="utf-8"))
    listed = PRIVATE_READS.get(module, set())
    assert reads <= listed, (
        f"{module} newly reads {sorted(reads - listed)}: a new cross-module private "
        "import should replace one of the listed ones, not add to them (ROADMAP item 6)")
    assert reads == listed, f"{module} no longer reads {sorted(listed - reads)}: unlist them"
