"""Canonical classes used across tests, docs, and CLI demos."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .core import (
    HypothesisClass,
    PreconditionError,
    class_from_tables,
)
from .psi import PsiFamily
from .witnesses import Witness


@dataclass(frozen=True)
class GalleryEntry:
    name: str
    cls: HypothesisClass
    expected_dims: dict[str, int] = field(default_factory=dict)
    witness: Optional[Witness] = None
    params: dict = field(default_factory=dict)


def full_class(n: int, num_labels: int) -> HypothesisClass:
    """Every function from [0, n) to the alphabet: q^n hypotheses."""
    if n < 1 or num_labels < 1:
        raise PreconditionError("need n >= 1 and at least one label")
    if num_labels ** n > 1 << 20:
        raise PreconditionError(f"{num_labels}^{n} hypotheses exceed the budget")
    rows = itertools.product(range(num_labels), repeat=n)
    return class_from_tables(rows, num_labels=num_labels)


def gap_class(m: int) -> GalleryEntry:
    """Subset-labeling family separating the Natarajan and graph dimensions.

    Domain [0, m); labels are codes for the subsets A of the domain (the
    bitmask of A) plus a reserved "blank" symbol placed last.  Hypothesis
    h_A answers code(A) inside A and blank outside, so any two hypotheses
    can only share non-blank values when they are equal: the Natarajan
    dimension stays at 1 while the all-blank labeling graph-shatters the
    whole domain.

    The bundled order-1 witness implements the two-case decision rule:
    if the four input labels contain two distinct non-blank codes, answer
    with a mixture holding two distinct non-blank codes (never realized);
    otherwise a single code A is involved and membership of the first point
    in A decides which of (A, blank) / (blank, A) is unrealizable.
    """
    if m < 1:
        raise PreconditionError("need at least one point")
    if m > 16:
        raise PreconditionError("label alphabet 2^m + 1 exceeds the budget")
    blank = 1 << m
    num_labels = blank + 1
    rows = []
    for code in range(1 << m):
        rows.append(tuple(code if (code >> x) & 1 else blank for x in range(m)))
    cls = class_from_tables(rows, num_labels=num_labels)

    def evaluator(points, y1, y2):
        coord_values = ((y1[0], y2[0]), (y1[1], y2[1]))
        for a in coord_values[0]:
            for b in coord_values[1]:
                if a != blank and b != blank and a != b:
                    target = (a, b)
                    return frozenset(
                        i for i in range(2) if target[i] == y1[i]
                    )
        codes = {v for v in (*coord_values[0], *coord_values[1]) if v != blank}
        code = codes.pop()
        x1 = points[0]
        in_a = x1 < m and bool((code >> x1) & 1)
        target = (blank, code) if in_a else (code, blank)
        return frozenset(i for i in range(2) if target[i] == y1[i])

    witness = Witness(flavor="natarajan", order=1, evaluator=evaluator,
                      provenance="gap_rule")
    return GalleryEntry(
        name="gap",
        cls=cls,
        expected_dims={"natarajan": 1, "graph": m},
        witness=witness,
        params={"m": m},
    )


def six_cycle_class() -> GalleryEntry:
    """Six behaviors on two points forming a 6-cycle in the one-coordinate
    neighbor graph: DS dimension 2, Natarajan dimension 1, graph dimension 2.
    Labels 1..6 of the usual presentation are shifted down to 0..5."""
    rows = [(0, 1), (2, 1), (2, 3), (4, 3), (4, 5), (0, 5)]
    cls = class_from_tables(rows, num_labels=6)
    return GalleryEntry(
        name="six_cycle",
        cls=cls,
        expected_dims={"ds": 2, "natarajan": 1, "graph": 2},
    )


def failing_psi_gallery(family: PsiFamily, window: int) -> GalleryEntry:
    """Gallery wrapper around the hard class for a non-distinguisher family."""
    from .psi import failing_psi_class

    cls, witness = failing_psi_class(family, window)
    return GalleryEntry(
        name="failing_psi",
        cls=cls,
        expected_dims={"graph": window + 1},
        witness=witness,
        params={"window": window},
    )


def build(name: str, params: dict) -> GalleryEntry:
    """Gallery constructor registry used by the CLI and class files.  Bad
    parameter values raise PreconditionError."""
    if name == "full":
        n = _int(params.get("n", 2), "n")
        q = _int(params.get("labels", params.get("q", 2)), "labels")
        cls = full_class(n, q)
        return GalleryEntry(name="full", cls=cls, params={"n": n, "labels": q})
    if name == "gap":
        return gap_class(_int(params.get("m", 3), "m"))
    if name == "six_cycle":
        return six_cycle_class()
    if name == "failing_psi":
        from .psi import PsiFunction

        rows = params.get("family")
        q = _int(params.get("labels", 0), "labels")
        if (q < 2 or not rows or not isinstance(rows, list)
                or not all(isinstance(row, list) for row in rows)):
            raise PreconditionError("failing_psi needs 'family' rows and 'labels'")
        members = tuple(
            PsiFunction(table=tuple(_parse_symbol(s) for s in row)) for row in rows
        )
        family = PsiFamily(members=members, num_labels=q)
        return failing_psi_gallery(family, _int(params.get("window", 1), "window"))
    raise PreconditionError(f"unknown gallery entry {name!r}")


def _int(value, key: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise PreconditionError(f"parameter {key!r}: expected an integer, got {value!r}") from None


def _parse_symbol(s) -> int:
    from .psi import STAR

    if s in ("*", STAR):
        return STAR
    return _int(s, "family")


GALLERY_NAMES = ("full", "gap", "six_cycle", "failing_psi")
