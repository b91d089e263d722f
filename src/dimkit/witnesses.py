"""Witness objects: verifiable certificates that no (k+1)-point set is
shattered.

A witness of order k is a total evaluator over (k+1)-point inputs.  For the
natarajan flavor it maps (X, g1, g2) to an index set whose induced mixture
no hypothesis realizes on X; for the graph flavor it maps (X, f) to an index
set no hypothesis matches exactly; for the psi flavor it maps (X, psibar) to
a binary pattern outside the encoded behavior image.  Witnesses are never
trusted: ``validate_witness`` re-checks the exclusion on every input of a
finite window.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Optional

from . import nfl
from .core import (
    BehaviorSet,
    ConsistencyError,
    HypothesisClass,
    PreconditionError,
    RepresentationError,
    ShatteredError,
    distinct_pairs,
    mix_labelings,  # noqa: F401  (bound here for perfbench/tracing.py to wrap)
    restrict,
)
from .psi import PsiFamily, _encoder_image
from .psi import apply_encoders  # noqa: F401  (bound here for perfbench/tracing.py to wrap)

FLAVORS = ("natarajan", "graph", "psi")
_BITS = frozenset((0, 1))


class ExclusionFailure(RuntimeError):
    """A learner-built witness produced a labeling the class realizes, i.e.
    the learner does not actually learn the class at these parameters."""


@dataclass(frozen=True)
class Witness:
    """Order-k certificate with a flavor-specific total evaluator.

    Evaluator signatures (points are canonicalized to strictly increasing
    order with companion labelings permuted along; index sets and patterns
    in the output refer to coordinates of that canonical order):
      natarajan: (points, g1, g2) -> frozenset index set
      graph:     (points, f)      -> frozenset index set
      psi:       (points, psibar) -> binary pattern
    An index set must lie inside range(arity) and a pattern must be a 0/1
    tuple of length arity; any other answer raises PreconditionError.
    """

    flavor: str
    order: int
    evaluator: Callable
    psi: Optional[PsiFamily] = None
    provenance: str = "user"

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise PreconditionError(f"unknown witness flavor {self.flavor!r}")
        if self.order < 0:
            raise PreconditionError("order must be a natural")
        if (self.flavor == "psi") != (self.psi is not None):
            raise PreconditionError("psi flavor carries a family, others do not")

    @property
    def arity(self) -> int:
        return self.order + 1

    @cached_property
    def _positions(self) -> frozenset:
        return frozenset(range(self.arity))

    def evaluate(self, points, *payload):
        points = tuple(points)
        if len(points) != self.arity:
            raise PreconditionError(f"witness of order {self.order} takes {self.arity} points")
        if len(set(points)) != len(points):
            raise PreconditionError("duplicate points in witness input")
        expected = 2 if self.flavor == "natarajan" else 1
        if len(payload) != expected:
            raise PreconditionError(
                f"{self.flavor} witness takes {expected} payload arguments, got {len(payload)}")
        if any(len(arg) != self.arity for arg in payload):
            raise PreconditionError(f"witness payload needs one entry per point ({self.arity})")
        order = sorted(range(len(points)), key=lambda i: points[i])
        pts = tuple(points[i] for i in order)
        payload = tuple(tuple(arg[i] for i in order) for arg in payload)
        if self.flavor == "natarajan":
            g1, g2 = payload
            if any(a == b for a, b in zip(g1, g2)):
                raise PreconditionError("labelings must differ at every coordinate")
        elif self.flavor == "psi":
            (psibar,) = payload
            for psi in psibar:
                if psi.num_labels != self.psi.num_labels:
                    raise PreconditionError("encoder alphabet mismatch")
        return self._evaluate_canonical(pts, payload)

    def _evaluate_canonical(self, points, payload):
        """Run the evaluator on a canonical input (strictly increasing points,
        payload aligned with them) and check the shape of its answer: an
        index set inside range(arity), or a 0/1 pattern of length arity.
        Returns the answer as a frozenset or a tuple."""
        out = self.evaluator(points, *payload)
        try:
            if self.flavor == "psi":
                out = tuple(out)
                ok = len(out) == self.arity and _BITS.issuperset(out)
            else:
                out = frozenset(out)
                ok = out <= self._positions
        except TypeError:
            ok = False
        if not ok:
            expected = (f"a 0/1 pattern of length {self.arity}" if self.flavor == "psi"
                        else f"an index set inside 0..{self.order}")
            raise PreconditionError(
                f"{self.flavor} witness answered {out!r} on points {points}; expected {expected}")
        return out


@dataclass(frozen=True)
class WitnessViolation:
    points: tuple[int, ...]
    payload: tuple
    reason: str  # "excluded_pattern_realized" | "shattered" | "exclusion_failure"
    detail: tuple = ()


@dataclass(frozen=True)
class WitnessReport:
    checked_inputs: int
    violations: tuple[WitnessViolation, ...]

    @property
    def valid(self) -> bool:
        return not self.violations


def witness_inputs(witness: Witness, num_labels: int):
    """Every canonical payload of the witness's flavor over labels
    0..num_labels-1, in product order: (g1, g2) pairs that differ at every
    coordinate, (f,) labelings, or (psibar,) encoder tuples."""
    arity = witness.arity
    if witness.flavor == "natarajan":
        return distinct_pairs(arity, num_labels)
    if witness.flavor == "graph":
        return ((f,) for f in itertools.product(range(num_labels), repeat=arity))
    return ((psibar,) for psibar in itertools.product(witness.psi.members, repeat=arity))


def _cells(behaviors: BehaviorSet, flavor: str, row) -> list[tuple[int, int]]:
    """Per coordinate, the bitmasks (over ``behaviors.index``) of the
    behaviors coded 0 and coded 1 there.  For a graph labeling f, code 1
    means agreeing with f; for an encoder tuple, it is the encoder's value,
    and a star puts the behavior in neither cell."""
    if flavor == "graph":
        full = (1 << len(behaviors)) - 1
        agree = [column.get(v, 0) for column, v in zip(behaviors.index, row)]
        return [(full & ~a, a) for a in agree]
    return [_encoder_image(column, psi) for column, psi in zip(behaviors.index, row)]


def _first_missing_code(cells, live: int = -1, prefix: tuple = ()) -> Optional[tuple]:
    """The lexicographically first 0/1 code, extending ``prefix``, that no
    behavior in ``live`` (a bitmask, -1 for all) has, where a behavior has
    code c when it lies in cells[i][c[i]] at every coordinate i; None when
    every code is had."""
    i = len(prefix)
    if i == len(cells):
        return None
    for b in (0, 1):
        rest = live & cells[i][b]
        if not rest:
            return prefix + (b,) + (0,) * (len(cells) - i - 1)
        found = _first_missing_code(cells, rest, prefix + (b,))
        if found is not None:
            return found
    return None


def _realized(behaviors: BehaviorSet, flavor: str, payload, answer):
    """The violation detail when some behavior realizes what the witness
    answer on ``payload`` excludes: the excluded mixture, the first behavior
    in ``pattern_set`` order with the excluded agreement set, or the excluded
    pattern.  None when the exclusion holds."""
    if flavor == "natarajan":
        excluded = tuple(a if i in answer else b for i, (a, b) in enumerate(zip(*payload)))
        return excluded if excluded in behaviors.pattern_set else None
    code = answer if flavor == "psi" else [int(i in answer) for i in range(len(behaviors.points))]
    live = -1
    for cell, b in zip(_cells(behaviors, flavor, payload[0]), code):
        live &= cell[b]
    if not live:
        return None
    if flavor == "psi":
        return answer
    return next(itertools.islice(behaviors.pattern_set, (live & -live).bit_length() - 1, None))


def validate_witness(witness: Witness, cls: HypothesisClass, window: int) -> WitnessReport:
    """Exhaustively re-check the exclusion property on every valid input
    whose points lie in [0, window].  Inputs are generated canonical, so they
    go to the evaluator without re-sorting."""
    if window < 0:
        raise PreconditionError("window must be a natural")
    if witness.flavor == "psi" and witness.psi.num_labels != cls.num_labels:
        raise RepresentationError("family alphabet differs from class alphabet")
    evaluate = witness._evaluate_canonical
    checked = 0
    violations = []
    for points in itertools.combinations(range(window + 1), witness.arity):
        behaviors = restrict(cls, points)
        for payload in witness_inputs(witness, cls.num_labels):
            checked += 1
            try:
                answer = evaluate(points, payload)
            except (ShatteredError, ExclusionFailure) as err:
                violations.append(WitnessViolation(
                    points=points, payload=payload,
                    reason="shattered" if isinstance(err, ShatteredError)
                    else "exclusion_failure"))
                continue
            hit = _realized(behaviors, witness.flavor, payload, answer)
            if hit is not None:
                violations.append(WitnessViolation(
                    points=points, payload=payload,
                    reason="excluded_pattern_realized", detail=hit))
    return WitnessReport(checked_inputs=checked, violations=tuple(violations))


def canonical_witness(cls: HypothesisClass, flavor: str, order: int, *,
                      psi: Optional[PsiFamily] = None) -> Witness:
    """Brute-force witness from the behavior oracle: per input, return the
    first candidate output (ordered by the labeling/pattern it induces) that
    the class does not realize.  Raises ShatteredError at evaluation time on
    inputs where every candidate is realized."""
    behaviors_at = cache(lambda points: restrict(cls, points))

    if flavor == "natarajan":
        def evaluator(points, g1, g2):
            # g1[i] != g2[i], so each mixture fixes its index set and the
            # product of the sorted coordinate pairs lists the mixtures in
            # lexicographic order
            pats = behaviors_at(points).pattern_set
            for mixture in itertools.product(*(sorted(c) for c in zip(g1, g2))):
                if mixture not in pats:
                    return frozenset(i for i, v in enumerate(mixture) if v == g1[i])
            raise ShatteredError("every mixture realized", (points, g1, g2))

    elif flavor == "graph":
        def evaluator(points, f):
            code = _first_missing_code(_cells(behaviors_at(points), "graph", f))
            if code is None:
                raise ShatteredError("every agreement set realized", (points, f))
            return frozenset(i for i, b in enumerate(code) if b)

    elif flavor == "psi":
        if psi is None:
            raise PreconditionError("psi flavor needs a family")
        if psi.num_labels != cls.num_labels:
            raise RepresentationError("family alphabet differs from class alphabet")

        def evaluator(points, psibar):
            code = _first_missing_code(_cells(behaviors_at(points), "psi", psibar))
            if code is None:
                raise ShatteredError("every binary pattern covered", (points, psibar))
            return code

    else:
        raise PreconditionError(f"unknown witness flavor {flavor!r}")

    return Witness(flavor=flavor, order=order, evaluator=evaluator,
                   psi=psi, provenance="canonical")


def witness_from_learner(learner, m: int, h_check: Optional[HypothesisClass] = None) -> Witness:
    """Natarajan witness of order 2m-1 extracted from a learner.

    On input (X, g1, g2) the adversary finds a mixture f with expected risk
    at least 1/4 against the learner at sample size m.  A class the learner
    actually learns at accuracy 1/8 and confidence 1/7 cannot realize f, so
    the index set of g1-coordinates inside f is a valid exclusion.  When
    ``h_check`` is given, the exclusion is re-verified per input.
    """
    if m < 1:
        raise PreconditionError("sample size must be positive")
    order = 2 * m - 1
    behaviors_at = None if h_check is None else cache(lambda points: restrict(h_check, points))

    def evaluator(points, g1, g2):
        report = nfl.nfl_adversary(learner, points, g1, g2)
        index_set = frozenset(
            i for i in range(len(points)) if report.f_values[i] == g1[i]
        )
        if behaviors_at is not None:
            if report.f_values in behaviors_at(points).pattern_set:
                raise ExclusionFailure(
                    f"class realizes the hard labeling {report.f_values} on {points}"
                )
        return index_set

    return Witness(flavor="natarajan", order=order, evaluator=evaluator,
                   provenance="from_learner")


def sauer_crossover(witness_order: int, num_labels: int) -> int:
    """Smallest k with k^(d+1) * q^(2(d+1)) < 2^k, where d is the witness
    order and q the alphabet size: from that arity on, binary patterns
    outnumber the growth bound on behaviors.  Exact integers."""
    if num_labels < 2:
        raise PreconditionError("need at least two labels")
    if witness_order < 0:
        raise PreconditionError("order must be a natural")
    e = witness_order + 1
    k = 1
    while k ** e * num_labels ** (2 * e) >= 2 ** k:
        k += 1
    return k


def psi_witness_from_natarajan(witness: Witness, family: PsiFamily,
                               cls: HypothesisClass) -> Witness:
    """Counting construction of an encoder-flavor witness from a natarajan
    witness.

    At arity k_b = sauer_crossover(order, q) the superset v(T) of behaviors
    computed from the witness has size below 2^(k_b), so some binary pattern
    is missing from every encoded image; the evaluator returns the first
    such pattern.  The resulting witness has order k_b - 1.
    """
    from .embedding import GoodFunctionSpec, good_patterns

    if witness.flavor != "natarajan":
        raise PreconditionError("construction starts from a natarajan witness")
    if family.num_labels != cls.num_labels:
        raise PreconditionError("family alphabet differs from class alphabet")
    k_b = sauer_crossover(witness.order, cls.num_labels)
    spec = GoodFunctionSpec(witness=witness, num_labels=cls.num_labels)

    def evaluator(points, psibar):
        v = good_patterns(spec, points)
        if len(v) >= 2 ** len(points):
            raise ConsistencyError(
                f"behavior superset has {len(v)} patterns at arity {len(points)}, "
                "which contradicts the growth bound"
            )
        code = _first_missing_code(_cells(v, "psi", psibar))
        if code is None:
            raise ConsistencyError("no missing binary pattern despite the count bound")
        return code

    return Witness(flavor="psi", order=k_b - 1, evaluator=evaluator,
                   psi=family, provenance="from_counting")
