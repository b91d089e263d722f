"""Exact no-free-lunch adversary against deterministic learners.

Given a 2m-point set and two componentwise-distinct labelings, the adversary
walks the 2^(2m) mixtures of the two labelings (characteristic-vector order,
empty index set first) and returns the first target f whose exact expected
risk, over all (2m)^m training sequences drawn from the uniform distribution
on f's graph, reaches 1/4.  The tail probability of risk >= 1/8 is computed
exactly as well, never assumed from Markov's inequality.

Every sample the adversary feeds a learner is labeled by one function, f.
A learner declared ``symmetric`` returns the same hypothesis for every
ordering of such a sample, so the adversary runs it once per multiset of m
points (``combinations_with_replacement``) and weights the multiset by the
number of sequences it stands for, m!/(c_1! ... c_k!) where the c_i count
the repeats of each point.  Any other learner runs on every sequence.  The
sweep sums weighted wrong answers as integers: the expected risk reaches 1/4
iff 4 * total >= (2m)^(m+1), and a sequence is in the tail iff
8 * wrong >= 2m.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sized
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from operator import eq, getitem
from typing import Callable

from .core import (
    DomainError,
    FiniteDistribution,
    Hypothesis,
    HypothesisClass,
    NflFailureError,
    Pattern,
    PreconditionError,
    Sample,
    _as_tuple,
    _check_int,
    _check_window,
    _first_outside,
    _index_sets,
    empirical_risk,  # noqa: F401  (bound here for perfbench/tracing.py to wrap)
    mix_labelings,  # noqa: F401  (bound here for perfbench/tracing.py to wrap)
)


@dataclass(frozen=True)
class Learner:
    """A total deterministic map from labeled samples to hypotheses.

    ``symmetric`` declares that on a sample labeled by one function (each
    point carries the same label wherever it repeats) the hypothesis depends
    only on the multiset of the sample, not on its order.  The adversary
    then runs the learner once per multiset, weighted by its number of
    orderings; an undeclared learner runs on every sequence."""

    name: str
    fn: Callable[[Sample], Hypothesis]
    symmetric: bool = False

    def __call__(self, sample: Sample) -> Hypothesis:
        return self.fn(sample)


def constant_learner(value: int, num_labels: int, window: int) -> Learner:
    """Predicts ``value`` everywhere on [0, window], ignoring the sample."""
    _check_window(window)
    h = Hypothesis(num_labels=num_labels, table=(value,) * (window + 1))
    return Learner(name=f"const:{value}", fn=lambda sample: h, symmetric=True)


def memorizing_learner(default: int, num_labels: int, window: int) -> Learner:
    """Repeats the last seen label per point, ``default`` elsewhere.  On a
    sample labeled by one function every seen label of a point is the same,
    so the learner is symmetric there.  ``default`` and ``num_labels`` are
    checked at construction, as ``constant_learner`` checks them."""
    _check_window(window)
    Hypothesis(num_labels=num_labels, table=(default,))

    def fn(sample: Sample) -> Hypothesis:
        seen = dict(sample)
        table = tuple(seen.get(x, default) for x in range(window + 1))
        return Hypothesis(num_labels=num_labels, table=table)

    return Learner(name=f"memorize:{default}", fn=fn, symmetric=True)


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

    return Learner(name="erm", fn=fn, symmetric=True)


@dataclass(frozen=True)
class AdversaryReport:
    points: tuple[int, ...]
    f_values: Pattern
    index_set: frozenset
    expected_risk: Fraction
    tail_probability: Fraction
    mixtures_examined: int
    markov_flag: bool  # expected risk >= 1/4 with tail below 1/7 (a curiosity)

    @cached_property
    def distribution(self) -> FiniteDistribution:
        """The uniform distribution on the graph of f, where f has risk 0."""
        return FiniteDistribution.uniform_on_graph(self.points, self.f_values)


def _graph_points(points, *labelings) -> tuple[int, ...]:
    """The points as a tuple: an even, positive number of distinct naturals,
    each labeled by an exact int that is a natural in every one of the
    labelings.  A value that is not iterable, or a labeling with no length,
    is named."""
    try:
        points = tuple(points)
    except TypeError:
        _as_tuple(points, "points")  # names a value that is not iterable
        raise
    if len(points) % 2 or not points:
        raise PreconditionError("need an even, positive number of points")
    try:
        distinct = len(set(points)) == len(points)
    except TypeError:
        # a point that is not hashable, so not a natural
        j = _first_outside(points, 0, None)
        raise DomainError(f"point {points[j]!r} is not a natural") from None
    if not distinct:
        raise PreconditionError("duplicate points")
    try:
        covered = all(len(g) == len(points) for g in labelings)
    except TypeError:
        g = next(g for g in labelings if not isinstance(g, Sized))
        raise PreconditionError(f"labeling {g!r} is not a sequence") from None
    if not covered:
        raise PreconditionError("labelings must cover the points")
    # the points and the labels in one check: the learner witness runs this
    # once per input
    j = _first_outside((*points, *itertools.chain.from_iterable(labelings)), 0, None)
    if j is not None:
        if j < len(points):
            raise DomainError(f"point {points[j]!r} is not a natural")
        raise PreconditionError("labels must be naturals")
    return points


def exact_expected_risk(learner: Learner, points, f_values: Pattern, m: int):
    """Average risk of the learner over all (2m)^m training sequences labeled
    by f, each sequence equally likely under the uniform graph distribution.

    Returns the exact average and the full (sequence, risk) table.
    """
    _check_int(m, "sample size")
    points = _graph_points(points, f_values)
    if len(points) != 2 * m:
        raise PreconditionError(f"need exactly {2 * m} points, got {len(points)}")
    risks = [Fraction(wrong, len(points)) for wrong in range(len(points) + 1)]
    seqs = tuple(itertools.product(points, repeat=m))
    wrong = [_risk_counts(learner, points, f_values, ((seq, 1),))[0] for seq in seqs]
    return (Fraction(sum(wrong), len(points) ** (m + 1)),
            tuple(zip(seqs, map(risks.__getitem__, wrong))))


def _multisets(points, m: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Each multiset of m points with its number of orderings, m!/prod c!."""
    return tuple(
        (ms, math.factorial(m) // math.prod(
            math.factorial(len(tuple(run))) for _, run in itertools.groupby(ms)))
        for ms in itertools.combinations_with_replacement(points, m)
    )


def _risk_counts(learner: Learner, points, f_values: Pattern, multisets):
    """Integer sums over the training sequences labeled by f: the learner's
    wrong answers on the points, and the sequences with 8 * wrong >= 2m.  A
    sequence is counted through the weight of its multiset when
    ``multisets`` (from ``_multisets``) is given, else run on its own."""
    n = len(points)
    label = dict(zip(points, f_values))
    graph = tuple(zip(points, f_values))
    samples = multisets or zip(itertools.product(points, repeat=n // 2), itertools.repeat(1))
    total = tail = 0
    for seq, weight in samples:
        h = learner(tuple((x, label[x]) for x in seq))
        wrong = sum(1 for x, y in graph if h(x) != y)
        total += weight * wrong
        if 8 * wrong >= n:
            tail += weight
    return total, tail


def _mixture_search(learner: Learner) -> Callable:
    """``search(points, g1, g2)``: the first mixture f of (g1, g2), in
    characteristic-vector order, whose integer risk sums against the learner
    (``_risk_counts``) reach expected risk 1/4, as (points, f, index set,
    total, tail, mixtures examined).  The input is checked as
    ``_graph_points`` checks it, and labelings that agree at some point are
    refused.  A ``Learner`` carries no alphabet, so a label is only checked
    to be a natural: one that no hypothesis outputs is always a mistake.

    The memo keeps, for the point tuple last asked about, the sample
    multisets and each mixture's risk sums, so inputs grouped by point
    tuple, as ``validate_witness`` gives them, sum each mixture's risk once.
    This relies on the learner being a deterministic total map.  The index
    set answered for each characteristic vector is built once per search."""

    @lru_cache(maxsize=1)
    def risk_at(points):
        multisets = _multisets(points, len(points) // 2) if learner.symmetric else None
        return cache(lambda f: _risk_counts(learner, points, f, multisets))

    index_sets = _index_sets()

    def search(points, g1: Pattern, g2: Pattern):
        points = _graph_points(points, g1, g2)
        if any(map(eq, g1, g2)):
            raise PreconditionError("labelings must differ at every point")
        risk, n = risk_at(points), len(points)
        threshold = n ** (n // 2 + 1)
        # bit 1 takes g1 and bit 0 takes g2, as mix_labelings(index set, g1, g2)
        pairs = tuple(zip(g2, g1))
        for examined, bits in enumerate(itertools.product((0, 1), repeat=n), 1):
            f = tuple(map(getitem, pairs, bits))
            total, tail = risk(f)
            if 4 * total >= threshold:
                return points, f, index_sets[bits], total, tail, examined
        raise NflFailureError(
            "no mixture reached expected risk 1/4; the learner is not a "
            "deterministic total map"
        )

    return search


def nfl_adversary(learner: Learner, points, g1: Pattern, g2: Pattern) -> AdversaryReport:
    """First mixture of (g1, g2) on which the learner's exact expected risk
    reaches 1/4; its uniform graph distribution realizes the target (risk 0)
    while the learner fails with probability at least 1/7."""
    points, f, index_set, total, tail, examined = _mixture_search(learner)(points, g1, g2)
    n = len(points)
    m = n // 2
    tail_probability = Fraction(tail, n ** m)
    return AdversaryReport(
        points=points,
        f_values=f,
        index_set=index_set,
        expected_risk=Fraction(total, n ** (m + 1)),
        tail_probability=tail_probability,
        mixtures_examined=examined,
        markov_flag=tail_probability < Fraction(1, 7),
    )
