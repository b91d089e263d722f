"""No dimkit module coerces an input value with ``int()``.

Labels, points and encoder outputs must already be exact ints, and the
constructors that take them refuse anything else, so ``int(1.9)`` or
``int("2")`` can never turn a bad entry into a good one.  A call ``int(...)``
may only wrap a comparison, as in ``int(v == k)``, which turns a bool into a
0/1 code, and ``map(int, ...)`` is not allowed at all.  ``cli.py`` parses
argv strings, so it is exempt.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "dimkit"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "cli.py")


def coercions(source: str) -> list[int]:
    """The line of each call ``int(...)`` whose argument is not a single
    comparison, and of each ``map(int, ...)``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Name):
            continue
        args = node.args
        if node.func.id == "int" and not (
                len(args) == 1 and not node.keywords and isinstance(args[0], ast.Compare)):
            found.append(node.lineno)
        elif node.func.id == "map" and args and isinstance(args[0], ast.Name) \
                and args[0].id == "int":
            found.append(node.lineno)
    return sorted(found)


def test_coercions_are_found():
    source = ("a = int(x)\n"
              "b = int(v == k)\n"
              "c = [int(i in s) for i in r]\n"
              "d = int(s, 2)\n"
              "e = int(x=3)\n"
              "f = tuple(map(int, xs)) + tuple(map(int.bit_count, xs))\n"
              "g = int(y) + int(a < b)\n")
    assert coercions(source) == [1, 4, 5, 6, 7]


@pytest.mark.parametrize("module", MODULES)
def test_no_module_coerces_with_int(module):
    assert coercions((SRC / module).read_text(encoding="utf-8")) == []
