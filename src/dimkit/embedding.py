"""Augmenting a class with "good" finite-support functions so that ERM
becomes computable while the dimension grows by at most one.

A pattern p over the window [0, M] is *good* for a witness w when no
(k+1)-subset U of [0, M(p)] (M(p) = last nonzero point of p) together with
any componentwise-distinct labeling pair (natarajan flavor) or encoder tuple
(psi flavor) makes p agree on U with the labeling the witness excludes.  The
all-zero pattern is vacuously good, so the behavior oracle v(T) is never
empty and ERM over it is total.

The good set over [0, M] is closed under truncation, so it is computed by
extending good prefixes one point at a time, checking only constraints that
involve newly reachable subsets.  This enumerates exactly the survivors of
the full pattern sweep (the test suite cross-checks both routes).

What a witness excludes on a subset comes from ``witnesses``
(``_exclusion_reader``), read once per subset.  A witness declared
``pair_symmetric`` (the canonical natarajan witness) excludes the same
mixture on every orientation of the pairs (g1[i], g2[i]), so the reader
reads it once per unordered pair tuple, and the first ShatteredError it
meets is the one the ordered inputs give.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .core import (
    BehaviorSet,
    BudgetError,
    Hypothesis,
    HypothesisClass,
    Pattern,
    PreconditionError,
    Sample,
    _check_int,
    _check_window,
    _naturals,
    _sample_points,
    empirical_risk,
    mix_labelings,  # noqa: F401  (bound here for perfbench/tracing.py to wrap)
)
from .nfl import Learner
from .witnesses import Witness, _exclusion_reader


@dataclass(frozen=True)
class GoodFunctionSpec:
    """Witness plus alphabet driving the good-pattern enumeration.  The label
    space is finite, so a pattern draws every label of range(num_labels) at
    every point."""

    witness: Witness
    num_labels: int

    def __post_init__(self):
        _check_int(self.num_labels, "number of labels")
        if self.num_labels < 1:
            raise PreconditionError("good functions need at least one label")
        if self.witness.flavor not in ("natarajan", "psi"):
            raise PreconditionError("good functions need a natarajan or psi witness")
        if self.witness.psi is not None and self.witness.psi.num_labels != self.num_labels:
            raise PreconditionError("witness family alphabet differs from num_labels")

    @cached_property
    def _cache(self) -> dict:
        """The good windows computed so far, by ("window", w)."""
        return {}

    @cached_property
    def _excluded(self):
        """The witness's exclusion reader (``witnesses._exclusion_reader``),
        memoized per subset."""
        return _exclusion_reader(self.witness, self.num_labels)


def _extension_ok(spec, pattern, old_top, new_point) -> bool:
    """Check the constraints a nonzero extension at ``new_point`` makes
    reachable: subsets whose maximum exceeds the previous support top, in
    lexicographic order.  Generating every subset at C speed and skipping
    the others costs less than walking only the reachable ones in Python."""
    excluded, at = spec._excluded, pattern.__getitem__
    floor = -1 if old_top is None else old_top
    for subset in itertools.combinations(range(new_point + 1), spec.witness.arity):
        if subset[-1] > floor and tuple(map(at, subset)) in excluded(subset):
            return False
    return True


def good_window(spec: GoodFunctionSpec, window: int) -> tuple[Pattern, ...]:
    """All good patterns over [0, window], sorted."""
    key = ("window", window)
    if key in spec._cache:
        return spec._cache[key]
    survivors = [((), None)]  # (pattern prefix, top of its support)
    for x in range(window + 1):
        nxt = []
        for prefix, top in survivors:
            for a in range(spec.num_labels):
                if a == 0:
                    nxt.append((prefix + (0,), top))
                else:
                    candidate = prefix + (a,)
                    if _extension_ok(spec, candidate, top, x):
                        nxt.append((candidate, x))
        survivors = nxt
    result = tuple(sorted(p for p, _ in survivors))
    spec._cache[key] = result
    return result


def good_patterns(spec: GoodFunctionSpec, points) -> BehaviorSet:
    """The behavior oracle v(T): good patterns over [0, max(T)] projected to
    T and deduplicated.  Contains every behavior of any class the witness is
    valid for."""
    points = _naturals(points)
    if len(set(points)) != len(points):
        raise PreconditionError(f"duplicate points in {points}")
    points = tuple(sorted(points))
    if not points:
        raise PreconditionError("need at least one point")
    window = points[-1]
    _check_window(window)
    projected = {
        tuple(p[x] for x in points) for p in good_window(spec, window)
    }
    return BehaviorSet(points=points, patterns=tuple(sorted(projected)))


@dataclass(frozen=True)
class AugmentedClass:
    """A base class together with the good functions of its witness.

    The augmented class itself is infinite, but its behavior on any finite
    point tuple is exactly ``good_patterns`` (good behaviors contain every
    base behavior), so ``view()`` exposes it as an oracle-backed class that
    the dimension machinery can consume directly.
    """

    base: HypothesisClass
    good: GoodFunctionSpec

    def __post_init__(self):
        if self.base.domain_size is not None:
            raise PreconditionError("augmentation applies to classes over the naturals")
        if self.base.num_labels != self.good.num_labels:
            raise PreconditionError("alphabet mismatch between base and good functions")

    def behaviors(self, points) -> BehaviorSet:
        return good_patterns(self.good, points)

    def view(self) -> HypothesisClass:
        def oracle(points):
            ordered = tuple(sorted(points))
            position = {x: i for i, x in enumerate(ordered)}
            behaviors = good_patterns(self.good, ordered)
            return {
                tuple(p[position[x]] for x in points) for p in behaviors.patterns
            }

        return HypothesisClass(num_labels=self.good.num_labels, behavior_fn=oracle)


def erm_augmented(spec: GoodFunctionSpec, sample: Sample) -> tuple[Hypothesis, Fraction]:
    """Empirical risk minimization over the augmented class: pick the good
    pattern on the sample's distinct points with minimum empirical risk
    (lexicographically smallest on ties), extended by 0 elsewhere."""
    if not sample:
        raise PreconditionError("cannot minimize over an empty sample")
    behaviors = good_patterns(spec, set(_sample_points(sample, spec.num_labels)))
    points = behaviors.points
    position = {x: i for i, x in enumerate(points)}
    best_pattern = None
    best_wrong = None
    for pattern in behaviors.patterns:  # sorted, so first minimum is lex-least
        wrong = sum(1 for x, y in sample if pattern[position[x]] != y)
        if best_wrong is None or wrong < best_wrong:
            best_wrong = wrong
            best_pattern = pattern
    support = tuple((x, v) for x, v in zip(points, best_pattern) if v != 0)
    h = Hypothesis(num_labels=spec.num_labels, support=support)
    return h, Fraction(best_wrong, len(sample))


def agnostic_learner(spec: GoodFunctionSpec):
    """Deterministic total learner mapping a sample to the augmented-ERM
    hypothesis; symmetric, since that minimiser reads only the sample's
    distinct points and its per-pattern mistake counts."""
    return Learner(name="erm_augmented", fn=lambda sample: erm_augmented(spec, sample)[0],
                   symmetric=True)


def realizable_enumeration_erm(enumerator, sample: Sample, budget: int) -> Hypothesis:
    """First enumerated hypothesis with zero empirical risk.  The unbounded
    procedure does not halt on non-realizable input, hence the budget."""
    _check_int(budget, "budget")
    for count, h in enumerate(enumerator):
        if count >= budget:
            break
        if empirical_risk(h, sample) == 0:
            return h
    raise BudgetError(
        f"no zero-risk hypothesis within budget {budget}; sample may not be realizable"
    )


def uc_sample_size(num_hypotheses: int, eps: Fraction, delta: Fraction) -> int:
    """Standard finite-class agnostic sample size (Hoeffding plus a union
    bound): with m >= 2 ln(2N/delta) / eps^2 samples, ERM over N hypotheses
    is eps-competitive with probability 1 - delta.  Imported background, not
    a decision procedure.

    Exact: the smallest integer m with m eps^2 / 2 >= ln(2N/delta).  The
    logarithm of a rational above 1 is irrational, so 2 ln(2N/delta)/eps^2
    is never an integer, and rational bounds on it are refined until they
    leave no integer between them.  N is an exact int, and eps and delta are
    Fractions: a float is not read as the rational it approximates."""
    _check_int(num_hypotheses, "number of hypotheses")
    for name, value in (("eps", eps), ("delta", delta)):
        if type(value) is not Fraction:
            raise PreconditionError(f"{name} {value!r} is not a Fraction")
    if num_hypotheses < 1 or not 0 < eps < 1 or not 0 < delta < 1:
        raise PreconditionError("need N >= 1 and eps, delta in (0, 1)")
    scale = 2 / (eps * eps)
    terms = 8
    while True:
        lo, hi = _ln_bounds(2 * num_hypotheses / delta, terms)
        if math.floor(lo * scale) == math.floor(hi * scale):
            return math.floor(lo * scale) + 1
        terms *= 2


def _atanh_bounds(t: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    """lo <= atanh(t) <= hi for rational 0 <= t < 1, from the first ``terms``
    terms of sum t^(2j+1)/(2j+1); the tail is below the next term times
    1/(1 - t^2).  Both inequalities are strict for t > 0."""
    total = Fraction(0)
    power = t
    for j in range(terms):
        total += power / (2 * j + 1)
        power *= t * t
    return total, total + power / ((2 * terms + 1) * (1 - t * t))


def _ln_bounds(r: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    """Rational bounds on ln(r) for rational r >= 1: r = 2^k s with
    1 <= s < 2, and ln r = 2k atanh(1/3) + 2 atanh((s-1)/(s+1))."""
    k = r.numerator.bit_length() - r.denominator.bit_length()
    if r < Fraction(2) ** k:
        k -= 1
    s = r / Fraction(2) ** k
    lo2, hi2 = _atanh_bounds(Fraction(1, 3), terms)
    lo_s, hi_s = _atanh_bounds((s - 1) / (s + 1), terms)
    return 2 * (k * lo2 + lo_s), 2 * (k * hi2 + hi_s)
