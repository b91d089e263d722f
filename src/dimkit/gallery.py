"""Canonical classes used across tests, docs, and CLI demos."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .core import (
    HypothesisClass,
    PreconditionError,
    _check_hypothesis_count,
    _check_int,
    _check_table_entries,
    class_from_tables,
)
from .psi import PsiFamily, failing_psi_class, family_from_rows
from .witnesses import Witness


@dataclass(frozen=True)
class GalleryEntry:
    name: str
    cls: HypothesisClass
    expected_dims: dict[str, int] = field(default_factory=dict)
    witness: Optional[Witness] = None


def full_class(n: int, num_labels: int) -> HypothesisClass:
    """Every function from [0, n) to the alphabet: q^n hypotheses.  One label
    passes the hypothesis budget for any n, so the q^n * n table entries are
    bounded too, by those of full_class(20, 2), the largest class the budget
    admits with q >= 2; both are checked before any row is built."""
    _check_int(n, "n")
    _check_int(num_labels, "number of labels")
    if n < 1 or num_labels < 1:
        raise PreconditionError("need n >= 1 and at least one label")
    _check_hypothesis_count(num_labels, n)
    _check_table_entries(num_labels ** n * n, f"{num_labels}^{n} hypotheses over {n} points")
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

    It decides by comparing the labels (a1, b1) = y1 and (a2, b2) = y2: the
    first of the mixtures (a1, b1), (a1, b2), (a2, b1), (a2, b2) with two
    distinct non-blank codes is answered with its index set {0, 1}, {0},
    {1} or {}.  Otherwise, since a1 != a2 and b1 != b2, each coordinate
    holds one code A once and blank once.  The target is (blank, A) when
    the first point lies in A, else (A, blank), so its index set holds 0
    when "a1 is blank" agrees with "the first point lies in A", and 1 when
    "b1 is A" does.  The answer is one of four frozensets built once.
    """
    _check_int(m, "m")
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

    # answers[i][j] holds coordinate 0 exactly when i, and 1 exactly when j
    answers = ((frozenset(), frozenset({1})), (frozenset({0}), frozenset({0, 1})))

    def evaluator(points, y1, y2):
        a1, b1 = y1
        a2, b2 = y2
        if a1 != blank:
            if b1 != blank and a1 != b1:
                return answers[1][1]
            if b2 != blank and a1 != b2:
                return answers[1][0]
        if a2 != blank:
            if b1 != blank and a2 != b1:
                return answers[0][1]
            if b2 != blank and a2 != b2:
                return answers[0][0]
        x1 = points[0]
        code = a2 if a1 == blank else a1
        in_a = x1 < m and (code >> x1) & 1 == 1
        return answers[(a1 == blank) == in_a][(b1 != blank) == in_a]

    witness = Witness(flavor="natarajan", order=1, evaluator=evaluator,
                      provenance="gap_rule")
    return GalleryEntry(
        name="gap",
        cls=cls,
        expected_dims={"natarajan": 1, "graph": m},
        witness=witness,
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
    cls, witness = failing_psi_class(family, window)
    return GalleryEntry(
        name="failing_psi",
        cls=cls,
        expected_dims={"graph": window + 1},
        witness=witness,
    )


_PARAMS = {"full": ("n", "labels"), "gap": ("m",), "six_cycle": (),
           "failing_psi": ("labels", "family", "window")}
GALLERY_NAMES = tuple(_PARAMS)


def build(name: str, params: dict) -> GalleryEntry:
    """Gallery constructor registry used by the CLI and class files.  An
    unknown entry, a parameter the entry does not take, or a bad parameter
    value raises PreconditionError; bad family rows RepresentationError."""
    if name not in _PARAMS:
        raise PreconditionError(f"unknown gallery entry {name!r}")
    for key in params:
        if key not in _PARAMS[name]:
            raise PreconditionError(f"gallery entry {name!r} takes no parameter {key!r}")
    if name == "full":
        n = _int(params.get("n", 2), "n")
        q = _int(params.get("labels", 2), "labels")
        return GalleryEntry(name="full", cls=full_class(n, q))
    if name == "gap":
        return gap_class(_int(params.get("m", 3), "m"))
    if name == "six_cycle":
        return six_cycle_class()
    q = _int(params.get("labels", 0), "labels")
    if q < 2:
        raise PreconditionError("failing_psi needs 'labels' of at least 2")
    family = family_from_rows(params.get("family"), q)
    return failing_psi_gallery(family, _int(params.get("window", 1), "window"))


def _int(value, key: str) -> int:
    """JSON integers only, as in class files: ``true``, ``2.9`` and ``"3"``
    are rejected."""
    if type(value) is not int:
        raise PreconditionError(f"parameter {key!r}: expected an integer, got {value!r}")
    return value
