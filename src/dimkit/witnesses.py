"""Witness objects: verifiable certificates that no (k+1)-point set is
shattered.

A witness of order k is a total evaluator over (k+1)-point inputs.  For the
natarajan flavor it maps (X, g1, g2) to an index set whose induced mixture
no hypothesis realizes on X; for the graph flavor it maps (X, f) to an index
set no hypothesis matches exactly; for the psi flavor it maps (X, psibar) to
a binary pattern outside the encoded behavior image.  Witnesses are never
trusted: ``validate_witness`` re-checks the exclusion on every input of a
finite window.  The good-pattern search (``embedding``) reads what a witness
excludes through ``_exclusion_reader``, which reads the evaluator's answers
through the checker's code reader.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache, partial, reduce
from operator import and_, eq, getitem, itemgetter
from typing import Callable, Optional

from . import nfl
from .core import (
    BehaviorSet,
    ConsistencyError,
    HypothesisClass,
    PreconditionError,
    RepresentationError,
    ShatteredError,
    _Table,
    _check_int,
    _check_window,
    _first_outside,
    _index_sets,
    _naturals,
    mix_labelings,  # noqa: F401  (bound here for perfbench/tracing.py to wrap)
    restrict,
)
from .psi import PsiFamily, PsiFunction, _binary_table, _encoder_image
from .psi import apply_encoders  # noqa: F401  (bound here for perfbench/tracing.py to wrap)

FLAVORS = ("natarajan", "graph", "psi")
# the most witness inputs ``validate_witness`` checks in one call
_VALIDATION_BUDGET = 10 ** 8
_BITS = frozenset((0, 1))


class ExclusionFailure(RuntimeError):
    """A learner-built witness produced a labeling the class realizes, i.e.
    the learner does not actually learn the class at these parameters."""


class _RealizedLabeling(ExclusionFailure):
    """The check class realizes the hard labeling ``f`` on ``points``: the
    two are kept as the arguments, and the message is formatted only when
    read, as most of these errors become violations unread."""

    def __str__(self):
        return "class realizes the hard labeling {} on {}".format(*self.args)


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

    ``pair_symmetric`` (natarajan only) declares that the excluded mixture,
    mix_labelings(answer, g1, g2), depends only on the unordered pair
    {g1[i], g2[i]} at each coordinate, so swapping g1[i] and g2[i] anywhere
    leaves it unchanged, and so does whether the evaluator raises
    ShatteredError.  The good-pattern exclusion then reads the evaluator
    once per unordered pair tuple; ``validate_witness`` still checks every
    ordered input.
    """

    flavor: str
    order: int
    evaluator: Callable
    psi: Optional[PsiFamily] = None
    provenance: str = "user"
    pair_symmetric: bool = False

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise PreconditionError(f"unknown witness flavor {self.flavor!r}")
        _check_int(self.order, "order")
        if self.order < 0:
            raise PreconditionError("order must be a natural")
        if (self.flavor == "psi") != (self.psi is not None):
            raise PreconditionError("psi flavor carries a family, others do not")
        if self.psi is not None and not isinstance(self.psi, PsiFamily):
            raise PreconditionError(f"psi {self.psi!r} is not a PsiFamily")
        if self.pair_symmetric and self.flavor != "natarajan":
            raise PreconditionError("only a natarajan witness can be pair-symmetric")

    @property
    def arity(self) -> int:
        return self.order + 1

    @cached_property
    def _positions(self) -> frozenset:
        return frozenset(range(self.arity))

    def evaluate(self, points, *payload):
        points = _naturals(points)
        if len(points) != self.arity:
            raise PreconditionError(f"witness of order {self.order} takes {self.arity} points")
        if len(set(points)) != len(points):
            raise PreconditionError("duplicate points in witness input")
        expected = 2 if self.flavor == "natarajan" else 1
        if len(payload) != expected:
            raise PreconditionError(
                f"{self.flavor} witness takes {expected} payload arguments, got {len(payload)}")
        try:
            sized = all(len(arg) == self.arity for arg in payload)
        except TypeError:  # an int where a labeling belongs
            sized = False
        if not sized:
            raise PreconditionError(f"witness payload needs one entry per point ({self.arity})")
        order = sorted(range(len(points)), key=lambda i: points[i])
        pts = tuple(points[i] for i in order)
        payload = tuple(tuple(arg[i] for i in order) for arg in payload)
        if self.flavor != "psi":
            labels = tuple(itertools.chain.from_iterable(payload))
            j = _first_outside(labels, 0, None)
            if j is not None:
                raise PreconditionError(
                    f"{self.flavor} witness labelings must hold natural labels, got {labels[j]!r}")
        if self.flavor == "natarajan":
            g1, g2 = payload
            if any(a == b for a, b in zip(g1, g2)):
                raise PreconditionError("labelings must differ at every coordinate")
        elif self.flavor == "psi":
            (psibar,) = payload
            for psi in psibar:
                if not isinstance(psi, PsiFunction):
                    raise PreconditionError(f"psi witness payload holds {psi!r}, not an encoder")
                if psi.num_labels != self.psi.num_labels:
                    raise PreconditionError("encoder alphabet mismatch")
        return self._checked_answer(self.evaluator(pts, *payload), pts)

    def _checked_answer(self, out, points):
        """Check the shape of an evaluator answer on ``points``: an index set
        inside range(arity), or a 0/1 pattern of length arity, of exact ints
        (not bools).  Returns the answer as a frozenset or a tuple."""
        try:
            if self.flavor == "psi":
                out = tuple(out)
                ok = len(out) == self.arity and _BITS.issuperset(out)
            else:
                out = frozenset(out)
                ok = out <= self._positions
            ok = ok and {int}.issuperset(map(type, out))
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
    _check_int(num_labels, "number of labels")
    return _inputs_over(witness, _alphabet(witness, num_labels))


def _inputs_over(witness: Witness, alphabet):
    """Every payload whose coordinates hold entries of ``alphabet``, in
    product order, as a lazy stream of C iterators that holds no payload
    but the one it yields: memory is O(1) in the number of inputs.  A
    natarajan payload (g1, g2) pairs the product of the entries' first
    labels with the product of their second labels, which step in lockstep."""
    if witness.flavor == "natarajan":
        return zip(*(itertools.product(half, repeat=witness.arity) for half in zip(*alphabet)))
    return zip(itertools.product(alphabet, repeat=witness.arity))


def _alphabet(witness: Witness, num_labels: int):
    """What one coordinate of a payload holds, in product order: a (g1, g2)
    label pair that differs, a label, or an encoder."""
    labels = range(num_labels)
    if witness.flavor == "natarajan":
        return [(a, b) for a in labels for b in labels if a != b]
    return labels if witness.flavor == "graph" else witness.psi.members


def _input_tables(witness: Witness, num_labels: int) -> list[dict[int, int]]:
    """The binary table of each entry of ``_alphabet``, in its order."""
    return list(map(_binary_table(witness.flavor, num_labels), _alphabet(witness, num_labels)))


def _cell_rows(tables, behaviors: BehaviorSet):
    """Per input, in ``witness_inputs`` order, each coordinate's (code 0,
    code 1) cells in ``behaviors``: the image of the binary table (from
    ``_input_tables``) of the input's entry there."""
    return itertools.product(*([_encoder_image(column, t) for t in tables]
                               for column in behaviors.index))


def _code_reader(witness: Witness) -> Callable:
    """``codes(points, inputs)``: the 0/1 code of the evaluator's answer on
    ``points`` with each payload of ``inputs`` (a pattern's bits, or an
    index set's indicator), as a lazy pipeline of C iterators,
    ``map(read, starmap(partial(evaluator, points), inputs), repeat(points))``.

    The pipeline calls the evaluator once per input, in the order of
    ``inputs``, and reads each answer before the next call, so nothing is
    read ahead and a malformed answer raises before the next input is
    evaluated.  It keeps no state of its own: after the evaluator raises on
    an input, the next read goes on with the next input.

    ``read`` keeps a memo of the answers it has seen, which every point
    tuple shares.  An answer of the exact type a well-formed one has (a
    frozenset, or a tuple for psi) that equals one seen before, by value
    (``(True, 0)`` hits ``(1, 0)``), reads as that answer's code in one dict
    lookup; any other goes through ``Witness._checked_answer``, which
    normalizes it or raises PreconditionError.  A checked psi answer is its
    own code."""
    flavor, arity, evaluator = witness.flavor, witness.arity, witness.evaluator
    shape = tuple if flavor == "psi" else frozenset
    seen = {}

    def read(out, points):
        if type(out) is shape:
            try:
                return seen[out]
            except (KeyError, TypeError):  # not seen yet, or unhashable entries
                pass
        out = witness._checked_answer(out, points)
        return seen.setdefault(
            out, out if flavor == "psi" else tuple(int(i in out) for i in range(arity)))

    def codes(points, inputs):
        return map(read, itertools.starmap(partial(evaluator, points), inputs),
                   itertools.repeat(points))

    return codes


def _stopped(points) -> RuntimeError:
    """The error for an evaluator that raised StopIteration on ``points``,
    which a C iterator takes for the end of its inputs (as PEP 479 turns it
    into a RuntimeError in a generator)."""
    return RuntimeError(f"witness evaluator raised StopIteration on points {points}")


def _exclusion_reader(witness: Witness, num_labels: int) -> Callable:
    """``excluded(points) -> frozenset``: every labeling of the canonical
    point tuple ``points`` that agrees with a labeling the witness excludes
    there, over labels 0..num_labels-1, memoized per point tuple.

    The evaluator is read on every input over ``_alphabet`` through one
    ``_code_reader`` pipeline per point tuple: once per input, in product
    order, each answer read before the next call, with memory O(1) in the
    number of inputs.  The answer-code memo is shared by every point tuple.
    The code picks, per coordinate, the labels that the binary table of the
    input's entry there codes with that bit (for natarajan, the one label
    g1[i] or g2[i]); the excluded labelings are the products of the distinct
    picks.  ShatteredError and ExclusionFailure propagate, and nothing is
    memoized for that tuple.

    A pair-symmetric witness excludes the same mixture on every orientation
    of the pairs, so it is read only on inputs with g1[i] < g2[i] at every
    coordinate, and the result is that of all ordered inputs.  The first
    ShatteredError is the same too: whether an input is shattered depends
    only on its unordered pairs, so the shattered inputs are closed under
    flipping any coordinate, and (a, b) comes before (b, a) in ``_alphabet``
    when a < b.  The first shattered input in ordered product order thus
    has g1[i] < g2[i] everywhere, and it is the first one read here."""
    codes = _code_reader(witness)
    rows = [(entry, tuple(tuple(v for v, b in table.items() if b == c) for c in (0, 1)))
            for entry, table in zip(_alphabet(witness, num_labels),
                                    _input_tables(witness, num_labels))]
    if witness.pair_symmetric:
        rows = [row for row in rows if row[0][0] < row[0][1]]
    entries = [entry for entry, _ in rows]
    preimages = [halves for _, halves in rows]

    @cache
    def excluded(points) -> frozenset:
        # the halves of each input's entries, read before its code, then a
        # marker that is read only when the inputs run out
        halves = itertools.chain(itertools.product(preimages, repeat=witness.arity), (None,))
        picks = set(map(tuple, map(map, itertools.repeat(getitem), halves,
                                   codes(points, _inputs_over(witness, entries)))))
        if next(halves, halves) is not halves:
            raise _stopped(points)
        return frozenset(itertools.chain.from_iterable(
            itertools.starmap(itertools.product, picks)))

    return excluded


def _first_missing_code(cells, live: int = -1) -> Optional[tuple]:
    """The lexicographically first 0/1 code that no behavior in ``live`` (a
    bitmask, -1 for all) has, where a behavior has code c when it lies in
    cells[i][c[i]] at every coordinate i; None when every code is had.

    A depth-first search without recursion: ``masks[i]`` holds the behaviors
    that agree with the code up to coordinate i, and the coordinates after
    the current one stay 0, so a code whose cell empties the mask is the
    answer as it stands."""
    last = len(cells) - 1
    code = [0] * len(cells)
    masks = [live] * len(cells)
    i = 0 if cells else -1
    while i >= 0:
        rest = masks[i] & cells[i][code[i]]
        if not rest:
            return tuple(code)
        if i < last:
            i += 1
            masks[i] = rest
            continue
        while i >= 0 and code[i]:  # every code extending this prefix is had
            code[i] = 0
            i -= 1
        if i >= 0:
            code[i] = 1
    return None


def validate_witness(witness: Witness, cls: HypothesisClass, window: int) -> WitnessReport:
    """Exhaustively re-check the exclusion property on every valid input
    whose points lie in [0, window].  A window of sys.maxsize or more is
    refused, and so is one with more than ``_VALIDATION_BUDGET`` (10^8)
    inputs.  Inputs are generated canonical, so they go to the evaluator
    without re-sorting.

    Every input reaches the evaluator and the shape check of its answer.
    Each payload entry's binary table is built once per call, and its cells
    once per point tuple.  The answer's 0/1 code selects one cell per
    coordinate, and the input fails when those cells share a behavior (for
    natarajan, the excluded mixture).

    Each point tuple's inputs run through one lazy pipeline of C
    iterators: the ``_code_reader`` codes (which the good-pattern exclusion,
    ``_exclusion_reader``, reads too), each input's live behaviors (the AND
    of its selected cells), and a filter that passes only the inputs with a
    live behavior, zipped with a second payload stream that steps in
    lockstep.  So the evaluator is called once per input, in product order,
    each answer is read before the next call, and only violations reach
    Python; memory is O(1) in the number of inputs.  When the evaluator
    raises ShatteredError or ExclusionFailure, the violation is recorded
    with the next payload of the second stream (zip read none for that
    input), and the same pipeline goes on with the next input.  Any other
    exception the evaluator raises is the caller's error and propagates
    unchanged; a StopIteration, which would end the pipeline early, is
    refused with a RuntimeError.  A realized pattern's detail is the first
    live behavior, or for psi its code through the payload's encoders,
    which is the answer."""
    _check_window(window)
    if witness.flavor == "psi" and witness.psi.num_labels != cls.num_labels:
        raise RepresentationError("family alphabet differs from class alphabet")
    alphabet = _alphabet(witness, cls.num_labels)
    count = math.comb(window + 1, witness.arity) * len(alphabet) ** witness.arity
    if count > _VALIDATION_BUDGET:
        raise PreconditionError(f"validating on [0, {window}] takes {count} witness inputs, "
                                f"above the budget of {_VALIDATION_BUDGET}")
    flavor, codes = witness.flavor, _code_reader(witness)
    tables = _input_tables(witness, cls.num_labels)
    violations = []
    for points in itertools.combinations(range(window + 1), witness.arity):
        behaviors = restrict(cls, points)
        lives = map(reduce, itertools.repeat(and_),
                    map(map, itertools.repeat(getitem), _cell_rows(tables, behaviors),
                        codes(points, _inputs_over(witness, alphabet))))
        payloads = _inputs_over(witness, alphabet)
        hits = filter(itemgetter(0), zip(lives, payloads))
        while True:
            try:
                for live, payload in hits:
                    hit = next(itertools.islice(
                        behaviors.pattern_set, (live & -live).bit_length() - 1, None))
                    violations.append(WitnessViolation(
                        points=points, payload=payload, reason="excluded_pattern_realized",
                        detail=tuple(psi.table[v] for psi, v in zip(payload[0], hit))
                        if flavor == "psi" else hit))
            except ShatteredError:
                reason = "shattered"
            except ExclusionFailure:
                reason = "exclusion_failure"
            else:
                break
            # zip read no payload for the input that raised: it is the next
            violations.append(WitnessViolation(points=points, payload=next(payloads),
                                               reason=reason))
        if next(payloads, None) is not None:
            raise _stopped(points)
    return WitnessReport(checked_inputs=count, violations=tuple(violations))


def canonical_witness(cls: HypothesisClass, flavor: str, order: int, *,
                      psi: Optional[PsiFamily] = None) -> Witness:
    """Brute-force witness from the behavior oracle: per input, return the
    first candidate output (ordered by the labeling/pattern it induces) that
    the class does not realize.  Raises ShatteredError at evaluation time on
    inputs where every candidate is realized.

    The evaluators keep the behaviors of the point tuple last asked about,
    and no other: ``validate_witness`` and the good-pattern exclusion ask
    about each tuple's inputs one after another.  Each input's work is
    lookups into tables built once per witness or per point tuple, none of
    which grows with the number of inputs: an answer index set is one
    frozenset per 0/1 code; the natarajan evaluator sorts each coordinate's
    label pair through a table of the alphabet's pairs; the graph and psi
    flavors share one evaluator, which builds each coordinate's cells once
    per point tuple, for every label of the alphabet or encoder of the
    family.  A pair with a label outside the alphabet, a graph label outside
    it, or an encoder outside the family is answered too, computed on each
    call and not stored."""
    behaviors_at = lru_cache(maxsize=1)(lambda points: restrict(cls, points))
    index_sets = _index_sets()

    if flavor == "natarajan":
        sorted_pairs = _Table(lambda pair: tuple(sorted(pair)),
                              itertools.permutations(range(cls.num_labels), 2))

        def evaluator(points, g1, g2):
            # g1[i] != g2[i], so each mixture fixes its index set and the
            # product of the sorted coordinate pairs lists the mixtures in
            # lexicographic order; the mixture found reads only the unordered
            # pairs, so the witness is pair-symmetric
            realized = behaviors_at(points).pattern_set.__contains__
            mixtures = itertools.product(*map(sorted_pairs.__getitem__, zip(g1, g2)))
            mixture = next(itertools.filterfalse(realized, mixtures), None)
            if mixture is None:
                raise ShatteredError("every mixture realized", (points, g1, g2))
            return index_sets[tuple(map(eq, mixture, g1))]

    elif flavor in ("graph", "psi"):
        if flavor == "psi":
            if psi is None:
                raise PreconditionError("psi flavor needs a family")
            if not isinstance(psi, PsiFamily):
                raise PreconditionError(f"psi {psi!r} is not a PsiFamily")
            if psi.num_labels != cls.num_labels:
                raise RepresentationError("family alphabet differs from class alphabet")
        table_of = _binary_table(flavor, cls.num_labels)
        graph = flavor == "graph"
        entries = range(cls.num_labels) if graph else psi.members
        cells_at = lru_cache(maxsize=1)(lambda points: [
            _Table(lambda s, column=column: _encoder_image(column, table_of(s)), entries)
            for column in behaviors_at(points).index])
        missing = "every agreement set realized" if graph else "every binary pattern covered"

        def evaluator(points, row):
            code = _first_missing_code(list(map(getitem, cells_at(points), row)))
            if code is None:
                raise ShatteredError(missing, (points, row))
            return index_sets[code] if graph else code

    else:
        raise PreconditionError(f"unknown witness flavor {flavor!r}")

    return Witness(flavor=flavor, order=order, evaluator=evaluator, psi=psi,
                   provenance="canonical", pair_symmetric=flavor == "natarajan")


def witness_from_learner(learner, m: int, h_check: Optional[HypothesisClass] = None) -> Witness:
    """Natarajan witness of order 2m-1 extracted from a learner.

    On input (X, g1, g2) the adversary finds a mixture f with expected risk
    at least 1/4 against the learner at sample size m.  A class the learner
    actually learns at accuracy 1/8 and confidence 1/7 cannot realize f, so
    the index set of g1-coordinates inside f is a valid exclusion.  When
    ``h_check`` is given, the exclusion is re-verified per input.

    The evaluator runs the adversary's search and shares its memo
    (``nfl._mixture_search``); with ``h_check`` it keeps the behaviors of
    the point tuple last asked about.
    """
    _check_int(m, "sample size")
    if m < 1:
        raise PreconditionError("sample size must be positive")
    order = 2 * m - 1
    behaviors_at = None if h_check is None else lru_cache(maxsize=1)(
        lambda points: restrict(h_check, points))
    search = nfl._mixture_search(learner)

    def evaluator(points, g1, g2):
        points, f, index_set, *_ = search(points, g1, g2)
        if behaviors_at is not None and f in behaviors_at(points).pattern_set:
            raise _RealizedLabeling(f, points)
        # g1 and g2 differ everywhere, so f takes g1 exactly on its index set
        return index_set

    return Witness(flavor="natarajan", order=order, evaluator=evaluator,
                   provenance="from_learner")


# the largest witness order sauer_crossover takes: at this order its integers
# already have about 200,000 bits for small alphabets
_MAX_SAUER_ORDER = 10_000


def sauer_crossover(witness_order: int, num_labels: int) -> int:
    """Smallest k with k^(d+1) * q^(2(d+1)) < 2^k, where d is the witness
    order and q the alphabet size: from that arity on, binary patterns
    outnumber the growth bound on behaviors.  Exact integers.

    With e = d + 1, log(k^e q^(2e) / 2^k) is concave in k and positive at
    k = 1 (q^(2e) >= 4), so the inequality fails on an interval [1, K] and
    holds from K + 1 on: doubling finds a k where it holds, and bisection
    between that k and half of it finds the first.  An order above
    ``_MAX_SAUER_ORDER`` is refused before any power is taken."""
    _check_int(witness_order, "order")
    _check_int(num_labels, "number of labels")
    if num_labels < 2:
        raise PreconditionError("need at least two labels")
    if witness_order < 0:
        raise PreconditionError("order must be a natural")
    if witness_order > _MAX_SAUER_ORDER:
        raise PreconditionError(f"order {witness_order} exceeds the budget of {_MAX_SAUER_ORDER}")
    e = witness_order + 1
    growth = num_labels ** (2 * e)

    def below(k):
        return k ** e * growth >= 2 ** k

    low, high = 1, 2
    while below(high):
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        if below(mid):
            low = mid
        else:
            high = mid
    return high


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
    if not isinstance(family, PsiFamily):
        raise PreconditionError(f"psi {family!r} is not a PsiFamily")
    if family.num_labels != cls.num_labels:
        raise PreconditionError("family alphabet differs from class alphabet")
    k_b = sauer_crossover(witness.order, cls.num_labels)
    spec = GoodFunctionSpec(witness=witness, num_labels=cls.num_labels)
    table_of = _binary_table("psi", cls.num_labels)

    def evaluator(points, psibar):
        v = good_patterns(spec, points)
        if len(v) >= 2 ** len(points):
            raise ConsistencyError(
                f"behavior superset has {len(v)} patterns at arity {len(points)}, "
                "which contradicts the growth bound"
            )
        code = _first_missing_code([_encoder_image(column, table_of(psi))
                                    for column, psi in zip(v.index, psibar)])
        if code is None:
            raise ConsistencyError("no missing binary pattern despite the count bound")
        return code

    return Witness(flavor="psi", order=k_b - 1, evaluator=evaluator,
                   psi=family, provenance="from_counting")
