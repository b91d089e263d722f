"""Exact no-free-lunch adversary against deterministic learners.

Given a 2m-point set and two componentwise-distinct labelings, the adversary
walks the 2^(2m) mixtures of the two labelings (characteristic-vector order,
empty index set first) and returns the first target f whose exact expected
risk, over all (2m)^m training sequences drawn from the uniform distribution
on f's graph, reaches 1/4.  The tail probability of risk >= 1/8 is computed
exactly as well, never assumed from Markov's inequality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .core import (
    FiniteDistribution,
    Hypothesis,
    HypothesisClass,
    NflFailureError,
    Pattern,
    PreconditionError,
    Sample,
    empirical_risk,  # noqa: F401  (bound here for perfbench/tracing.py to wrap)
    mix_labelings,
)


@dataclass(frozen=True)
class Learner:
    """A total deterministic map from labeled samples to hypotheses."""

    name: str
    fn: Callable[[Sample], Hypothesis]

    def __call__(self, sample: Sample) -> Hypothesis:
        return self.fn(sample)


def constant_learner(value: int, num_labels: int, window: int) -> Learner:
    """Predicts ``value`` everywhere on [0, window], ignoring the sample."""
    h = Hypothesis(num_labels=num_labels, table=(value,) * (window + 1))
    return Learner(name=f"const:{value}", fn=lambda sample: h)


def memorizing_learner(default: int, num_labels: int, window: int) -> Learner:
    """Repeats the last seen label per point, ``default`` elsewhere."""

    def fn(sample: Sample) -> Hypothesis:
        seen = dict(sample)
        table = tuple(seen.get(x, default) for x in range(window + 1))
        return Hypothesis(num_labels=num_labels, table=table)

    return Learner(name=f"memorize:{default}", fn=fn)


def erm_learner(cls: HypothesisClass) -> Learner:
    """Minimum empirical risk over an explicit class; ties go to the first
    hypothesis in canonical order, so the learner is deterministic."""
    if not cls.is_explicit:
        raise PreconditionError("erm_learner needs an explicit class")

    memo: dict = {}

    def fn(sample: Sample) -> Hypothesis:
        # empirical risk ignores sample order and shares the denominator
        # len(sample), so the minimiser depends only on the sorted sample and
        # integer mistake counts compare like the risks; the hypotheses are
        # in canonical order, so min keeps the first of tied ones
        key = tuple(sorted(sample))
        h = memo.get(key)
        if h is None:
            if not key:
                raise PreconditionError("empirical risk of an empty sample")
            h = memo[key] = min(
                cls.hypotheses, key=lambda g: sum(1 for x, y in key if g(x) != y))
        return h

    return Learner(name="erm", fn=fn)


@dataclass(frozen=True)
class AdversaryReport:
    points: tuple[int, ...]
    f_values: Pattern
    index_set: frozenset
    distribution: FiniteDistribution
    expected_risk: Fraction
    tail_probability: Fraction
    mixtures_examined: int
    markov_flag: bool  # expected risk >= 1/4 with tail below 1/7 (a curiosity)


def exact_expected_risk(learner: Learner, points, f_values: Pattern, m: int):
    """Average risk of the learner over all (2m)^m training sequences labeled
    by f, each sequence equally likely under the uniform graph distribution.

    Returns the exact average and the full (sequence, risk) table.
    """
    points = tuple(points)
    if len(points) != 2 * m:
        raise PreconditionError(f"need exactly {2 * m} points, got {len(points)}")
    f = dict(zip(points, f_values, strict=True))
    risks = [Fraction(wrong, len(points)) for wrong in range(len(points) + 1)]
    table = []
    total = 0
    for seq in itertools.product(points, repeat=m):
        sample = tuple((x, f[x]) for x in seq)
        h = learner(sample)
        wrong = sum(1 for x in points if h(x) != f[x])
        table.append((seq, risks[wrong]))
        total += wrong
    return Fraction(total, len(points) ** (m + 1)), tuple(table)


def nfl_adversary(learner: Learner, points, g1: Pattern, g2: Pattern) -> AdversaryReport:
    """First mixture of (g1, g2) on which the learner's exact expected risk
    reaches 1/4; its uniform graph distribution realizes the target (risk 0)
    while the learner fails with probability at least 1/7."""
    points = tuple(points)
    if len(points) % 2 or not points:
        raise PreconditionError("need an even, positive number of points")
    if len(set(points)) != len(points):
        raise PreconditionError("duplicate points")
    if len(g1) != len(points) or len(g2) != len(points):
        raise PreconditionError("labelings must cover the points")
    if any(a == b for a, b in zip(g1, g2)):
        raise PreconditionError("labelings must differ at every point")
    m = len(points) // 2
    quarter = Fraction(1, 4)
    eighth = Fraction(1, 8)
    examined = 0
    for bits in itertools.product((0, 1), repeat=len(points)):
        examined += 1
        index_set = frozenset(i for i, b in enumerate(bits) if b)
        f = mix_labelings(index_set, g1, g2)
        expected, table = exact_expected_risk(learner, points, f, m)
        if expected >= quarter:
            tail = Fraction(sum(1 for _, r in table if r >= eighth), len(table))
            dist = FiniteDistribution.uniform_on_graph(points, f)
            return AdversaryReport(
                points=points,
                f_values=f,
                index_set=index_set,
                distribution=dist,
                expected_risk=expected,
                tail_probability=tail,
                mixtures_examined=examined,
                markov_flag=tail < Fraction(1, 7),
            )
    raise NflFailureError(
        "no mixture reached expected risk 1/4; the learner is not a "
        "deterministic total map"
    )
