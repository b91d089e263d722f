"""Domain model for exact multiclass learnability computations.

Labels are integers 0..q-1 for an alphabet of size q; label 0 is the
distinguished default value (finite-support hypotheses map everything
outside their support to it).  Points are natural numbers.  Hypotheses and
classes are immutable and value-semantic, every operation here is pure, and
all risks and probabilities are ``fractions.Fraction`` so that threshold
comparisons (1/4, 1/7, 1/8, ...) are exact.  Index sets into label tuples
are 0-based throughout.
"""

from __future__ import annotations

import itertools
import sys
from collections.abc import Sized
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional

# A labeled sample: ((point, label), ...), repeats allowed.
Sample = tuple[tuple[int, int], ...]
# A labeling/behavior pattern: one label per point of some point tuple.
Pattern = tuple[int, ...]


class DomainError(ValueError):
    """A point fell outside a finite domain."""


class RepresentationError(ValueError):
    """A class body or oracle answer violates its representation contract."""


class PreconditionError(ValueError):
    """An operation was invoked outside its stated preconditions."""


class ConsistencyError(RuntimeError):
    """An internally guaranteed property failed; indicates a broken input
    contract (e.g. a nondeterministic learner) or a bug."""


class NflFailureError(ConsistencyError):
    """No mixture reached the expected-risk threshold.  Cannot happen for a
    deterministic total learner."""


class BudgetError(RuntimeError):
    """An enumeration budget ran out before the search goal was met."""


class ShatteredError(RuntimeError):
    """A canonical witness evaluator found no excludable output for some
    input, i.e. that input is shattered.  Carries the offending input."""

    def __init__(self, message: str, witness_input=None):
        super().__init__(message)
        self.witness_input = witness_input


@dataclass(frozen=True)
class Hypothesis:
    """A total labeling of the domain.

    Exactly one representation is set: ``table`` for a finite domain
    [0, n), or ``support`` for a finite-support function on the naturals
    (points absent from the support map to label 0).  ``num_labels`` is the
    alphabet size q; all values lie in 0..q-1.
    """

    num_labels: int
    table: Optional[tuple[int, ...]] = None
    support: Optional[tuple[tuple[int, int], ...]] = None

    def __post_init__(self):
        _check_int(self.num_labels, "alphabet size")
        if self.num_labels < 1:
            raise RepresentationError("alphabet must contain label 0")
        if (self.table is None) == (self.support is None):
            raise RepresentationError("exactly one of table/support required")
        top = self.num_labels - 1
        if self.table is not None:
            table = _as_tuple(self.table, "table")
            j = _first_outside(table, 0, top)
            if j is not None:
                raise RepresentationError(f"[{j}]: label {table[j]!r} outside 0..{top}")
            object.__setattr__(self, "table", table)
            return
        # a support holds few pairs, for which a loop is faster than C-speed scans
        pairs = _as_tuple(self.support, "support")
        for pair in pairs:
            if type(pair) is not tuple and type(pair) is not list or len(pair) != 2:
                raise RepresentationError(f"support: {pair!r} is not a (point, label) pair")
            x, y = pair
            if type(x) is not int or x < 0:
                raise RepresentationError(f"support[{x!r}]: point is not a natural")
            if type(y) is not int or not 1 <= y <= top:
                raise RepresentationError(f"support[{x}]: label {y!r} outside 1..{top}")
        support = dict(pairs)
        if len(support) < len(pairs):
            x = next(x for j, (x, _) in enumerate(pairs) if x in dict(pairs[:j]))
            raise RepresentationError(f"support[{x}]: duplicate point")
        object.__setattr__(self, "support", tuple(sorted(support.items())))

    @property
    def domain_size(self) -> Optional[int]:
        return len(self.table) if self.table is not None else None

    @cached_property
    def _support_map(self) -> dict[int, int]:
        return dict(self.support) if self.support is not None else {}

    def __call__(self, x: int) -> int:
        if x < 0:
            raise DomainError(f"point {x} is not a natural")
        if self.table is not None:
            if x >= len(self.table):
                raise DomainError(f"point {x} outside finite domain [0,{len(self.table)})")
            return self.table[x]
        return self._support_map.get(x, 0)

    def values_on(self, points: Iterable[int]) -> Pattern:
        return tuple(self(x) for x in points)

    def sort_key(self):
        if self.table is not None:
            return (0, self.table)
        return (1, self.support)


def max_support(h: Hypothesis) -> Optional[int]:
    """Largest point not mapped to 0, or None for the all-zero hypothesis."""
    if h.table is not None:
        best = None
        for x, v in enumerate(h.table):
            if v != 0:
                best = x
        return best
    return h.support[-1][0] if h.support else None


def truncate(h: Hypothesis, m: int) -> Hypothesis:
    """Zero out every point above ``m``, a natural; result has finite support."""
    _check_int(m, "truncation point")
    if m < 0:
        raise PreconditionError("truncation point must be a natural")
    if h.table is not None:
        pairs = tuple((x, v) for x, v in enumerate(h.table) if x <= m and v != 0)
    else:
        pairs = tuple((x, v) for x, v in h.support if x <= m)
    return Hypothesis(num_labels=h.num_labels, support=pairs)


@dataclass(frozen=True, init=False, repr=False)
class HypothesisClass:
    """A set of hypotheses, either explicit or exposed through a behavior
    oracle mapping a point tuple T to the set of realized label tuples.

    An explicit class owns its members as ``rows``: each member's table over
    a finite domain, or its support pairs sorted by point over the naturals,
    stored duplicate-free in canonical (lexicographic) order so that every
    downstream search is deterministic.  It is given either ``hypotheses``
    or the rows themselves, which the constructor checks all at once as the
    ``Hypothesis`` constructor checks one (see ``_checked_rows``).  The
    ``Hypothesis`` objects are built from the rows when ``hypotheses`` is
    first read.  Equality and hashing go by the rows, which determine the
    hypotheses; the repr lists the hypotheses.
    """

    num_labels: int
    domain_size: Optional[int]
    rows: Optional[tuple[tuple, ...]]
    behavior_fn: Optional[Callable[[tuple[int, ...]], Iterable[Pattern]]]

    def __init__(self, num_labels: int, domain_size: Optional[int] = None,
                 hypotheses: Optional[Iterable[Hypothesis]] = None,
                 behavior_fn: Optional[Callable[[tuple[int, ...]], Iterable[Pattern]]] = None,
                 *, rows: Optional[Iterable[Iterable]] = None):
        _check_int(num_labels, "alphabet size")
        if num_labels < 1:
            raise RepresentationError("alphabet must contain label 0")
        if domain_size is not None:
            _check_int(domain_size, "domain size")
            if domain_size < 1:
                raise RepresentationError(f"domain size {domain_size} is not positive")
        if sum(v is not None for v in (hypotheses, rows, behavior_fn)) != 1:
            raise RepresentationError("exactly one of hypotheses/rows/behavior_fn required")
        if hypotheses is not None:
            rows = _hypothesis_rows(_as_tuple(hypotheses, "hypotheses"), num_labels, domain_size)
        elif rows is not None:
            rows = _checked_rows(_as_tuple(rows, "hypotheses"), num_labels, domain_size)
        if rows is not None:
            if not rows:
                raise RepresentationError("explicit class must be nonempty")
            if len(set(rows)) < len(rows):
                first = {}
                dupes = [i for i, r in enumerate(rows) if first.setdefault(r, i) != i]
                raise RepresentationError(f"duplicate hypotheses at indices {dupes}")
            rows = tuple(sorted(rows))
        for name, value in (("num_labels", num_labels), ("domain_size", domain_size),
                            ("rows", rows), ("behavior_fn", behavior_fn)):
            object.__setattr__(self, name, value)

    def __repr__(self):
        return (f"HypothesisClass(num_labels={self.num_labels!r}, "
                f"domain_size={self.domain_size!r}, hypotheses={self.hypotheses!r}, "
                f"behavior_fn={self.behavior_fn!r})")

    @cached_property
    def hypotheses(self) -> Optional[tuple[Hypothesis, ...]]:
        """The members in class order, built from the rows on first read;
        None for an oracle class."""
        if self.rows is None:
            return None
        if self.domain_size is not None:
            return tuple(Hypothesis(num_labels=self.num_labels, table=r) for r in self.rows)
        return tuple(Hypothesis(num_labels=self.num_labels, support=r) for r in self.rows)

    @property
    def is_explicit(self) -> bool:
        return self.rows is not None

    def enumerate(self) -> Iterator[Hypothesis]:
        if self.rows is None:
            raise RepresentationError("class exposes no hypothesis enumerator")
        return iter(self.hypotheses)

    @cached_property
    def _columns(self) -> dict[int, tuple[int, ...]]:
        """Per point, the label of every member there, in class order.  A
        table class fills every point at once by zipping its rows; a class
        over the naturals fills every support point at once, in one pass over
        its pairs, and ``_checked_columns`` gives any other point the all-zero
        column the first time it is used."""
        if self.rows is None:
            return {}
        if self.domain_size is not None:
            return dict(enumerate(zip(*self.rows)))
        columns = {}
        zeros = [0] * len(self.rows)
        for j, row in enumerate(self.rows):
            for x, y in row:
                column = columns.get(x)
                if column is None:
                    column = columns[x] = zeros.copy()
                column[j] = y
        return {x: tuple(column) for x, column in columns.items()}

    @cached_property
    def _masks(self) -> dict[int, dict[int, int]]:
        """Per point, each label there mapped to the bitmask of the hypotheses
        with that label (bit j for the j-th hypothesis in class order);
        ``_hypothesis_masks`` fills a point in the first time it is used."""
        return {}

    def support_bound(self) -> Optional[int]:
        """Largest support point over an explicit class on the naturals."""
        if self.rows is None or self.domain_size is not None:
            return None
        return max((row[-1][0] for row in self.rows if row), default=None)


def _hypothesis_rows(hyps: tuple, num_labels: int, domain_size: Optional[int]) -> tuple:
    """The rows of ``Hypothesis`` objects, each checked to be one and to fit
    the class: its alphabet, its representation and its table length."""
    for i, h in enumerate(hyps):
        if not isinstance(h, Hypothesis):
            raise RepresentationError(f"hypotheses[{i}]: {h!r} is not a Hypothesis")
        if h.num_labels != num_labels:
            raise RepresentationError("alphabet mismatch inside class")
        if domain_size is not None and h.table is None:
            raise RepresentationError("finite-domain class expects table hypotheses")
        if domain_size is None and h.support is None:
            raise RepresentationError("class over the naturals expects finite-support hypotheses")
        if h.table is not None and len(h.table) != domain_size:
            raise RepresentationError("table length differs from domain size")
    if domain_size is not None:
        return tuple(h.table for h in hyps)
    return tuple(h.support for h in hyps)


def _checked_rows(rows: tuple, num_labels: int, domain_size: Optional[int]) -> tuple:
    """The rows of an explicit class (each a tuple or list) as tuples, each
    support's pairs sorted by point, each checked as the ``Hypothesis`` constructor checks a table or a
    support, and a table's length against ``domain_size``.  The rows are
    checked all at once at C speed: the row and pair types and lengths, then
    all labels (and support points) with one ``_first_outside`` each.  Only
    when that fails are they checked one by one, and the first failing row's
    error is raised with the row named: "hypotheses[i][j]: ..." or
    "hypotheses[i].support[x]: ..."."""
    top = num_labels - 1
    if {tuple, list}.issuperset(map(type, rows)):
        if domain_size is not None:
            rows = tuple(map(tuple, rows))
            if {domain_size}.issuperset(map(len, rows)) and _first_outside(
                    tuple(itertools.chain.from_iterable(rows)), 0, top) is None:
                return rows
        else:
            pairs = tuple(itertools.chain.from_iterable(rows))
            if {tuple}.issuperset(map(type, pairs)) and {2}.issuperset(map(len, pairs)) and (
                    _first_outside(tuple(map(itemgetter(0), pairs)), 0, None) is None
                    and _first_outside(tuple(map(itemgetter(1), pairs)), 1, top) is None
                    and list(map(len, map(dict, rows))) == list(map(len, rows))):
                return tuple(map(tuple, map(sorted, rows)))
    checked = []
    for i, row in enumerate(rows):
        if type(row) is not tuple and type(row) is not list:
            raise RepresentationError(f"hypotheses[{i}]: {row!r} is not a tuple or list")
        try:
            if domain_size is None:
                checked.append(Hypothesis(num_labels=num_labels, support=row).support)
                continue
            table = Hypothesis(num_labels=num_labels, table=row).table
        except RepresentationError as err:
            # the message starts at the entry: "[j]: ..." or "support[x]: ..."
            raise RepresentationError(
                f"hypotheses[{i}]{'' if domain_size else '.'}{err}") from err
        if len(table) != domain_size:
            raise RepresentationError(
                f"hypotheses[{i}]: table length {len(table)} differs from domain size {domain_size}")
        checked.append(table)
    return tuple(checked)


def class_from_tables(rows: Iterable[Iterable[int]], num_labels: int) -> HypothesisClass:
    rows = tuple(_as_tuple(row, f"hypotheses[{i}]")
                 for i, row in enumerate(_as_tuple(rows, "hypotheses")))
    if not rows:
        raise RepresentationError("explicit class must be nonempty")
    return HypothesisClass(num_labels=num_labels, domain_size=len(rows[0]), rows=rows)


def class_from_supports(supports: Iterable[dict[int, int] | Iterable[tuple[int, int]]],
                        num_labels: int) -> HypothesisClass:
    return HypothesisClass(num_labels=num_labels, rows=[
        tuple(s.items()) if isinstance(s, dict) else _as_tuple(s, f"hypotheses[{i}]")
        for i, s in enumerate(_as_tuple(supports, "hypotheses"))])


@dataclass(frozen=True)
class BehaviorSet:
    """The distinct behaviors of a class on an ordered point tuple."""

    points: tuple[int, ...]
    patterns: tuple[Pattern, ...]

    def __post_init__(self):
        if not {len(self.points)}.issuperset(map(len, self.patterns)):
            raise RepresentationError("pattern arity differs from |points|")

    @cached_property
    def pattern_set(self) -> frozenset:
        return frozenset(self.patterns)

    @cached_property
    def index(self) -> tuple[dict[int, int], ...]:
        """Per coordinate, each label mapped to the bitmask of the behaviors
        with that label there; bit j stands for the j-th behavior in the
        iteration order of ``pattern_set``.  Read by witness validation
        and the canonical witnesses (``witnesses``), by the DS refutation
        (``psi``), and by the single-subset vc, Natarajan, graph and Ψ
        predicates on oracle classes only, as the members of their coverage
        walk: on an explicit class the walk reads per-hypothesis masks
        instead (``_hypothesis_masks``)."""
        index = tuple({} for _ in self.points)
        for j, p in enumerate(self.pattern_set):
            for column, v in zip(index, p):
                column[v] = column.get(v, 0) | 1 << j
        return index

    def __len__(self) -> int:
        return len(self.patterns)


def _checked_columns(cls: HypothesisClass, points: Iterable[int]) -> tuple[tuple[int, ...], dict]:
    """The points as a tuple, checked to be distinct points of the domain,
    and, for an explicit class, its cached columns with every one of them
    filled in (None for an oracle class)."""
    try:
        points = tuple(points)
    except TypeError:
        _as_tuple(points, "points")  # names a value that is not iterable
        raise
    j = _first_outside(points, 0, None if cls.domain_size is None else cls.domain_size - 1)
    if j is not None:
        raise DomainError(f"point {points[j]!r} is not a natural" if cls.domain_size is None
                          else f"point {points[j]!r} outside domain [0,{cls.domain_size})")
    if len(set(points)) != len(points):
        raise PreconditionError(f"duplicate points in {points}")
    if cls.rows is None:
        return points, None
    columns = cls._columns
    for x in points:
        if x not in columns:
            columns[x] = (0,) * len(cls.rows)
    return points, columns


def restrict(cls: HypothesisClass, points: Iterable[int]) -> BehaviorSet:
    """Project the class onto ``points``: exactly { h|_X : h in H }, duplicates
    removed, in lexicographic order.  An explicit class zips its cached
    per-point columns."""
    points, columns = _checked_columns(cls, points)
    if columns is not None:
        pats = set(zip(*[columns[x] for x in points])) if points else {()}
    else:
        answer = _as_tuple(cls.behavior_fn(points), "oracle answer")
        try:
            pats = set(map(tuple, answer))
        except TypeError:
            # name a behavior that is not iterable; an error the oracle
            # raises while one is read propagates as it is
            for behavior in answer:
                _as_tuple(behavior, "oracle behavior")
            raise
        arities = set(map(len, pats)) - {len(points)}
        if arities:
            raise RepresentationError(f"oracle produced arity {min(arities)} for {len(points)} points")
        labels = tuple(itertools.chain.from_iterable(pats))
        j = _first_outside(labels, 0, cls.num_labels - 1)
        if j is not None:
            raise RepresentationError(f"oracle label {labels[j]!r} outside alphabet")
    return BehaviorSet(points=points, patterns=tuple(sorted(pats)))


def _hypothesis_masks(cls: HypothesisClass, points: Iterable[int]) -> tuple[dict[int, int], ...]:
    """Per point of an explicit class, each label there mapped to the bitmask
    of the hypotheses with that label (bit j for the j-th hypothesis in class
    order), built once per point from its cached column.  The points are
    checked as ``restrict`` checks them, with the same errors."""
    points, columns = _checked_columns(cls, points)
    masks = cls._masks
    for x in points:
        if x not in masks:
            column = columns[x]
            masks[x] = {v: _bitmask(bytes(map(v.__eq__, column))) for v in set(column)}
    return tuple(masks[x] for x in points)


def _bitmask(flags: bytes) -> int:
    """The int with bit j set iff ``flags[j]`` is 1 (every flag is 0 or 1), at
    C speed: stride r of the flags, read as a little-endian int, holds
    ``flags[8k + r]`` at bit 8k, so shifting it up by r puts it at bit 8k + r."""
    return sum(int.from_bytes(flags[r::8], "little") << r for r in range(8))


class _Table(dict):
    """A lookup table that computes a missing entry as ``fill(key)``, so a
    hit (``table[key]``, or ``map(getitem, ...)`` over many keys) is one
    lookup in C and only a miss runs Python.  Built over ``keys``, it holds
    their entries and computes any other key's on each miss without storing
    it; built without, it stores each entry as first asked for, so its keys
    must come from a bounded set."""

    __slots__ = ("fill", "store")

    def __init__(self, fill: Callable, keys: Optional[Iterable] = None):
        super().__init__(() if keys is None else ((key, fill(key)) for key in keys))
        self.fill, self.store = fill, keys is None

    def __missing__(self, key):
        value = self.fill(key)
        if self.store:
            self[key] = value
        return value


def _index_sets() -> _Table:
    """A table from each 0/1 code (ints or bools) to its index set, the
    frozenset of the positions of its 1s: one frozenset per code, so at most
    2^n of them for codes of length n."""
    return _Table(lambda code: frozenset(itertools.compress(range(len(code)), code)))


def _first_outside(values: tuple, low: int, high: Optional[int]) -> Optional[int]:
    """The index of the first value that is not an exact int (bool, float and
    str are not) in low..high, unbounded above for None; None if there is
    none.  The success path runs at C speed, on the set of types, min and max."""
    if {int}.issuperset(map(type, values)) and (
            not values or low <= min(values) and (high is None or max(values) <= high)):
        return None
    return next(j for j, v in enumerate(values)
                if type(v) is not int or v < low or high is not None and v > high)


def _naturals(points) -> tuple:
    """``points`` as a tuple, each checked to be a natural (an exact int)."""
    points = _as_tuple(points, "points")
    j = _first_outside(points, 0, None)
    if j is not None:
        raise DomainError(f"point {points[j]!r} is not a natural")
    return points


def _as_tuple(value, what: str) -> tuple:
    """``value`` as a tuple; a value that is not iterable raises
    RepresentationError naming it."""
    try:
        items = iter(value)
    except TypeError:
        raise RepresentationError(f"{what}: {value!r} is not iterable") from None
    return tuple(items)


def _check_int(value, what: str) -> None:
    """Refuse a value that is not an exact int (bool, float and str are not),
    naming it."""
    if type(value) is not int:
        raise PreconditionError(f"{what} {value!r} is not an exact int")


def _check_window(window: int) -> None:
    """Refuse a window [0, window] that is not an exact int, is empty, or is
    too large to enumerate as a range or a table (sys.maxsize or more)."""
    _check_int(window, "window")
    if window < 0:
        raise PreconditionError("window must be a natural")
    if window >= sys.maxsize:
        raise PreconditionError(f"window {window} is too large to enumerate")


# the most hypotheses a gallery class may enumerate
_HYPOTHESIS_BUDGET = 1 << 20


def _check_hypothesis_count(base: int, exponent: int) -> None:
    """Refuse a class of base^exponent hypotheses above the budget, naming
    the count, before any row is built; a power far past the budget is not
    taken (base >= 2 and exponent past the budget's bit length)."""
    if base > 1 and exponent >= _HYPOTHESIS_BUDGET.bit_length() or \
            base ** exponent > _HYPOTHESIS_BUDGET:
        raise PreconditionError(f"{base}^{exponent} hypotheses exceed the budget")


def _check_table_entries(entries: int, what: str) -> None:
    """Refuse ``what``, holding ``entries`` table entries, above the entries
    of full_class(20, 2), the largest class the hypothesis budget admits
    with two or more labels, naming the count."""
    budget = _HYPOTHESIS_BUDGET * (_HYPOTHESIS_BUDGET.bit_length() - 1)
    if entries > budget:
        raise PreconditionError(f"{what} hold {entries} table entries, "
                                f"above the budget of {budget}")


def _sample_points(sample: Sample, num_labels: int) -> tuple:
    """The points of a sample, in order, once every entry is checked to be a
    (point, label) pair, every label to lie in 0..num_labels-1 (refused,
    not counted as a miss) and every point to be a natural (DomainError);
    the first value that is not is named."""
    for pair in sample:
        if type(pair) is not tuple and type(pair) is not list or len(pair) != 2:
            raise PreconditionError(f"sample entry {pair!r} is not a (point, label) pair")
    labels = tuple(y for _, y in sample)
    j = _first_outside(labels, 0, num_labels - 1)
    if j is not None:
        raise PreconditionError(f"sample label {labels[j]!r} outside the alphabet")
    return _naturals(x for x, _ in sample)


def empirical_risk(h: Hypothesis, sample: Sample) -> Fraction:
    """Fraction of sample pairs the hypothesis mislabels.  The sample is
    checked by ``_sample_points``."""
    if not sample:
        raise PreconditionError("empirical risk of an empty sample")
    _sample_points(sample, h.num_labels)
    wrong = sum(1 for x, y in sample if h(x) != y)
    return Fraction(wrong, len(sample))


@dataclass(frozen=True)
class FiniteDistribution:
    """Finite-support distribution over (point, label) pairs with exact
    rational weights (ints or Fractions, never converted) summing to 1."""

    atoms: tuple[tuple[tuple[int, int], Fraction], ...]

    def __post_init__(self):
        atoms = []
        for atom in _as_tuple(self.atoms, "atoms"):
            try:
                (x, y), w = atom
            except (TypeError, ValueError):  # not a pair, or its key is not one
                raise RepresentationError(
                    f"atom {atom!r} is not a ((point, label), weight) pair") from None
            atoms.append(((x, y), w))
        keys = [k for k, _ in atoms]
        j = _first_outside(tuple(itertools.chain.from_iterable(keys)), 0, None)
        if j is not None:
            raise RepresentationError(f"atom {keys[j // 2]!r}: points and labels are naturals")
        if len(set(keys)) != len(keys):
            raise RepresentationError("duplicate atoms")
        for _, w in atoms:
            if type(w) is not int and not isinstance(w, Fraction):
                raise RepresentationError(f"weight {w!r} is not an exact int or Fraction")
            if w <= 0:
                raise RepresentationError("weights must be positive")
        if sum(w for _, w in atoms) != 1:
            raise RepresentationError("weights must sum to exactly 1")
        object.__setattr__(self, "atoms", tuple((k, Fraction(w)) for k, w in atoms))

    @staticmethod
    def uniform_on_graph(points: Iterable[int], values: Iterable[int]) -> "FiniteDistribution":
        points, values = _as_tuple(points, "points"), _as_tuple(values, "values")
        if not points or len(points) != len(values):
            raise RepresentationError("need one value per point, and at least one point")
        w = Fraction(1, len(points))
        return FiniteDistribution(atoms=tuple((pair, w) for pair in zip(points, values)))


def true_risk(h: Hypothesis, dist: FiniteDistribution) -> Fraction:
    """Exact mass of atoms the hypothesis mislabels."""
    return sum((w for (x, y), w in dist.atoms if h(x) != y), Fraction(0))


def mix_labelings(index_set: Iterable[int], y1: Pattern, y2: Pattern) -> Pattern:
    """Componentwise selection: y1 at indices in the set, y2 elsewhere."""
    try:
        same = len(y1) == len(y2)
    except TypeError:
        g = y1 if not isinstance(y1, Sized) else y2
        raise PreconditionError(f"labeling {g!r} is not a sequence") from None
    if not same:
        raise PreconditionError("labelings must share arity")
    try:
        chosen = set(index_set)
    except TypeError:
        # names a value that is not iterable, or a member that is not
        # hashable, so not an exact int
        for i in _as_tuple(index_set, "index set"):
            if type(i) is not int:
                raise PreconditionError(f"index {i!r} is not an exact int") from None
        raise
    # a loop, not _first_outside: the sets the adversary passes have a few
    # members, where one call costs more than the whole loop
    for i in chosen:
        if type(i) is not int:
            raise PreconditionError(f"index {i!r} is not an exact int")
        if not 0 <= i < len(y1):
            raise PreconditionError(f"index {i} outside arity {len(y1)}")
    return tuple(y1[i] if i in chosen else y2[i] for i in range(len(y1)))
