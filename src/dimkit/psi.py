"""Families of {0,1,*}-valued label encoders and their distinguisher checks.

An encoder maps each label to 0, 1, or star (= "ignore"); a family of them
induces a shattering notion (see ``dimensions.is_psi_shattered``).  This
module builds the two canonical families (per-label indicators, which yield
the graph dimension, and ordered-pair selectors, which yield the Natarajan
dimension), decides whether a family distinguishes every label pair,
constructs the hard class for a failing family, and runs the exhaustive
search refuting that DS-shattering is induced by any such family.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Optional

from .core import (
    HypothesisClass,
    PreconditionError,
    RepresentationError,
    _as_tuple,
    _check_hypothesis_count,
    _check_int,
    _check_table_entries,
    _check_window,
    _first_outside,
    class_from_tables,
    restrict,
)

STAR = 2  # third symbol of the {0, 1, *} output code


@dataclass(frozen=True)
class PsiFunction:
    """A total map from labels 0..q-1 to {0, 1, *}, stored as a table.  A
    call refuses a label outside 0..q-1 rather than wrap a negative index."""

    table: tuple[int, ...]

    def __post_init__(self):
        table = _as_tuple(self.table, "table")
        if not table:
            raise RepresentationError("encoder needs a nonempty alphabet")
        j = _first_outside(table, 0, STAR)
        if j is not None:
            raise RepresentationError(f"encoder output {table[j]!r} outside {{0,1,*}}")
        object.__setattr__(self, "table", table)

    @property
    def num_labels(self) -> int:
        return len(self.table)

    def __call__(self, y: int) -> int:
        if type(y) is not int or not 0 <= y < len(self.table):
            raise PreconditionError(f"label {y!r} outside the encoder's alphabet")
        return self.table[y]


@dataclass(frozen=True)
class PsiFamily:
    """A finite, duplicate-free family of encoders over one alphabet."""

    members: tuple[PsiFunction, ...]
    num_labels: int

    def __post_init__(self):
        _check_int(self.num_labels, "number of labels")
        members = _as_tuple(self.members, "members")
        if not members:
            raise RepresentationError("family must be nonempty")
        seen = set()
        kept = []
        for m in members:
            if not isinstance(m, PsiFunction):
                raise RepresentationError(f"family member {m!r} is not a PsiFunction")
            if m.num_labels != self.num_labels:
                raise RepresentationError("family members disagree on the alphabet")
            if m.table not in seen:
                seen.add(m.table)
                kept.append(m)
        object.__setattr__(self, "members", tuple(kept))

    def __len__(self) -> int:
        return len(self.members)


# the symbols a family row may hold, by exact type: a str, or a JSON integer
_SYMBOLS = {"0": 0, "1": 1, "*": STAR, 0: 0, 1: 1}


def family_from_rows(rows, num_labels: int) -> PsiFamily:
    """Family from JSON rows of '0', '1' or '*' symbols (0 and 1 may also be
    JSON integers), one row of ``num_labels`` symbols per encoder."""
    if not isinstance(rows, list) or not rows:
        raise RepresentationError("field 'family': expected a nonempty array")
    members = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != num_labels:
            raise RepresentationError(f"family[{i}]: expected a row of length {num_labels}")
        table = tuple(_SYMBOLS.get(s) if type(s) in (str, int) else None for s in row)
        if None in table:
            raise RepresentationError(
                f"family[{i}][{table.index(None)}]: expected '0', '1' or '*'")
        members.append(PsiFunction(table=table))
    return PsiFamily(members=tuple(members), num_labels=num_labels)


def apply_encoders(psibar, pattern) -> tuple[int, ...]:
    """Componentwise application of an encoder tuple to a label tuple."""
    return tuple(psi.table[v] for psi, v in zip(psibar, pattern, strict=True))


def graph_family(num_labels: int) -> PsiFamily:
    """One indicator encoder per label (1 on the label, 0 elsewhere); the
    induced dimension is the graph dimension.  Its q * q table entries are
    bounded by ``core._check_table_entries``."""
    _check_int(num_labels, "number of labels")
    if num_labels < 2:
        raise PreconditionError("need at least two labels")
    _check_table_entries(num_labels * num_labels, f"{num_labels} encoders over {num_labels} labels")
    members = tuple(
        PsiFunction(table=tuple(1 if y == k else 0 for y in range(num_labels)))
        for k in range(num_labels)
    )
    return PsiFamily(members=members, num_labels=num_labels)


def natarajan_family(num_labels: int) -> PsiFamily:
    """One encoder per ordered label pair (k, k'): 1 on k, 0 on k', star
    elsewhere; the induced dimension is the Natarajan dimension.  Its
    q(q-1) * q table entries are bounded by ``core._check_table_entries``."""
    _check_int(num_labels, "number of labels")
    if num_labels < 2:
        raise PreconditionError("need at least two labels")
    count = num_labels * (num_labels - 1)
    _check_table_entries(count * num_labels, f"{count} encoders over {num_labels} labels")
    members = []
    for k in range(num_labels):
        for kp in range(num_labels):
            if k != kp:
                members.append(PsiFunction(table=tuple(
                    1 if y == k else (0 if y == kp else STAR)
                    for y in range(num_labels)
                )))
    return PsiFamily(members=tuple(members), num_labels=num_labels)


def is_distinguisher(family: PsiFamily) -> tuple[bool, Optional[tuple[int, int]]]:
    """A family distinguishes (y, y') when some member maps them to 0 and 1
    (in either order).  Returns (True, None) or (False, first failing pair)."""
    if not isinstance(family, PsiFamily):
        raise PreconditionError(f"psi {family!r} is not a PsiFamily")
    for y in range(family.num_labels):
        for yp in range(y + 1, family.num_labels):
            if not any(
                {m.table[y], m.table[yp]} == {0, 1} for m in family.members
            ):
                return False, (y, yp)
    return True, None


def failing_psi_class(family: PsiFamily, window: int):
    """Hard class for a non-distinguisher: all functions from [0, window] to
    the first indistinguishable pair, plus an order-1 witness for the induced
    dimension.

    For an indistinguishable pair no encoder separates the two labels, so at
    every coordinate some bit b has the whole image inside {b, *}; the
    witness answers with the complementary bit at each coordinate, which no
    behavior can attain even at a single coordinate.
    """
    ok, pair = is_distinguisher(family)
    if ok:
        raise PreconditionError("family distinguishes every pair; no hard class exists")
    y1, y2 = pair
    _check_window(window)
    _check_hypothesis_count(2, window + 1)
    rows = itertools.product((y1, y2), repeat=window + 1)
    cls = class_from_tables(rows, num_labels=family.num_labels)

    def blocked_bit(psi: PsiFunction) -> int:
        a, b = psi.table[y1], psi.table[y2]
        live = {v for v in (a, b) if v != STAR}
        # live is empty or a single bit: the pair is indistinguishable.
        b0 = live.pop() if live else 0
        return b0 ^ 1

    def evaluator(points, psibar):
        return tuple(blocked_bit(psi) for psi in psibar)

    from .witnesses import Witness

    witness = Witness(flavor="psi", order=1, evaluator=evaluator,
                      psi=family, provenance="failing_psi")
    return cls, witness


def all_encoders(num_labels: int) -> tuple[PsiFunction, ...]:
    """Every {0,1,*}-valued table over the alphabet, in lexicographic order."""
    return tuple(
        PsiFunction(table=t)
        for t in itertools.product((0, 1, STAR), repeat=num_labels)
    )


@dataclass(frozen=True)
class PairEntry:
    """One encoder pair that shatters the full two-point domain, together
    with every 4-hypothesis subclass of DS dimension 1 it also shatters."""

    psi1: PsiFunction
    psi2: PsiFunction
    subclasses: tuple[tuple, ...]


@dataclass(frozen=True)
class PairEntries(Sequence):
    """The shattering encoder pairs of a refutation, held by image: the
    labels realized at point 0 (``labels1``) and at point 1 (``labels2``),
    and for each image pair ``decided[i][j]`` (images numbered as
    `_image_numbers` gives them), None when the pair does not shatter the
    domain, else the ``subclasses`` that every table pair with those images
    shares.  A refutation decides only the pairs whose two images both split
    (see `refute_ds_expressibility`); a first image that does not split has
    a row of None only.

    As a sequence it is one `PairEntry` per shattering table pair, in table
    order (first table, then second), built only when read; its length is
    counted by image pair, each image at r realized labels being 3^(q - r)
    tables'."""

    num_labels: int
    labels1: tuple[int, ...]
    labels2: tuple[int, ...]
    decided: tuple[tuple[Optional[tuple], ...], ...]

    def __len__(self) -> int:
        shattering = sum(len(row) - row.count(None) for row in self.decided)
        return shattering * 3 ** (2 * self.num_labels - len(self.labels1) - len(self.labels2))

    def __iter__(self):
        tables = all_encoders(self.num_labels)
        second = list(zip(tables, _image_numbers(self.num_labels, self.labels2)))
        rows = [[(t2, found[j]) for t2, j in second if found[j] is not None]
                for found in self.decided]
        for t1, i in zip(tables, _image_numbers(self.num_labels, self.labels1)):
            for t2, found in rows[i]:
                yield PairEntry(psi1=t1, psi2=t2, subclasses=found)

    def __getitem__(self, k):
        # by expansion: nothing reads entries by position
        return tuple(self)[k]


@dataclass(frozen=True)
class RefutationReport:
    verdict: str  # "refuted" | "not_refuted"
    pairs_examined: int
    entries: PairEntries

    def distinct_subclasses(self) -> set:
        """Every subclass of some entry (every image is some table's)."""
        return {s for row in self.entries.decided for found in row if found for s in found}


# Refutation budgets, each checked before the work it bounds: at most
# 3^_MAX_LABELS encoder tables (in the expansion of the entries, which keeps
# their length index-sized), _IMAGE_PAIR_BUDGET image pairs, and
# _DECISION_BUDGET subset checks in the decision.
_MAX_LABELS = 10
_IMAGE_PAIR_BUDGET = 10 ** 6
_DECISION_BUDGET = 10 ** 8


def refute_ds_expressibility(cls: HypothesisClass) -> RefutationReport:
    """Show that no encoder family expresses DS-shattering on this class.

    Requires an explicit two-point class of DS dimension 2.  Every encoder
    pair over the alphabet is considered; for each pair that shatters the
    domain, the search looks for a 4-hypothesis subclass of DS dimension 1
    that the same pair shatters.  Any such subclass is a counterexample to
    the pair computing the DS dimension, so the verdict is "refuted" when
    every shattering pair admits one, else "not_refuted".  Some pair always
    shatters, as DS dimension is at most graph dimension (Daniely and
    Shalev-Shwartz, COLT 2014): for a pattern (a, c) of the pseudo-cube
    core, its neighbors (b, c) and (a, d), and a neighbor (b, d') of (b, c)
    with d' != c, the indicators of a and c code the four 11, 01, 10 and 00.

    An encoder acts here only through its image, its values on the r labels
    the behaviors realize at its coordinate, so the 3^r images of each point
    are enumerated and each pair decided once; the entries hold the answers
    by image pair (see `PairEntries`).  A pair shatters only if its four
    code cells are all nonempty, and an image that does not split (no
    behavior coded 0, or none coded 1, at its point) leaves two of them
    empty; so only pairs of splitting images are decided, 3^r - 2^(r+1) + 1
    images of each point, and every other pair is None.  More than 3^10
    encoder tables, more than 10^6 image pairs, or more than 10^8 splitting
    image pairs x C(|B|, 4) (|B| the behaviors on the two points) raise
    PreconditionError.
    """
    from .dimensions import _pseudo_cube_core

    if not cls.is_explicit or cls.domain_size != 2:
        raise PreconditionError("need an explicit class on exactly two points")
    behaviors = restrict(cls, (0, 1))
    # DS dimension 2 on two points: the pair is DS-shattered (is_ds_shattered)
    if not _pseudo_cube_core(behaviors.patterns):
        raise PreconditionError("class must have DS dimension exactly 2")
    q = cls.num_labels
    if q > _MAX_LABELS:
        raise PreconditionError(f"refutation enumerates 3^{q} encoder tables, above "
                                f"the budget of 3^{_MAX_LABELS} = {3 ** _MAX_LABELS}")
    labels1, labels2 = (tuple(sorted(column)) for column in behaviors.index)
    count = 3 ** (len(labels1) + len(labels2))
    if count > _IMAGE_PAIR_BUDGET:
        raise PreconditionError(f"refutation decides {count} encoder image pairs, "
                                f"above the budget of {_IMAGE_PAIR_BUDGET}")
    images1 = _images(behaviors.index[0], labels1)
    images2 = _images(behaviors.index[1], labels2)
    split2 = [(j, b) for j, b in enumerate(images2) if b[0] and b[1]]
    count = (sum(1 for zero, one in images1 if zero and one) * len(split2)
             * math.comb(len(behaviors.patterns), 4))
    if count > _DECISION_BUDGET:
        raise PreconditionError(f"refutation makes {count} subset checks (splitting image "
                                f"pairs x 4-behavior subsets), above the budget of "
                                f"{_DECISION_BUDGET}")
    bit = {p: 1 << j for j, p in enumerate(behaviors.pattern_set)}

    # 4-subsets of behaviors with DS dimension exactly 1, precomputed once,
    # each with its bitmask over the behaviors (bits as in ``index``).
    ds1_subsets = [(sum(bit[p] for p in subset), subset)
                   for subset in itertools.combinations(behaviors.patterns, 4)
                   if not _pseudo_cube_core(subset)]

    undecided = (None,) * len(images2)

    def decide(a):
        found = list(undecided)
        for j, b in split2:
            found[j] = _shattered_subclasses(a, b, ds1_subsets)
        return tuple(found)

    decided = tuple(decide(a) if a[0] and a[1] else undecided for a in images1)
    found = (s for row in decided for s in row if s is not None)
    return RefutationReport(verdict="refuted" if all(found) else "not_refuted",
                            pairs_examined=9 ** q,
                            entries=PairEntries(q, labels1, labels2, decided))


def _binary_table(flavor: str, num_labels: int) -> Callable[..., dict[int, int]]:
    """The map from one payload coordinate of a vc, natarajan, graph or psi
    witness or certificate to its binary table (label -> 0/1, stars
    omitted): vc codes each label as itself, on a binary alphabet only
    (whatever the coordinate), a natarajan pair (a, b) codes a as 1 and b
    as 0, a graph label k is its indicator over the alphabet (all 0 for a
    label outside it), and an encoder keeps its non-star values."""
    if flavor == "vc":
        if num_labels != 2:
            raise PreconditionError("vc shattering requires a binary alphabet")
        return lambda _: {0: 0, 1: 1}
    if flavor == "natarajan":
        return lambda pair: {pair[0]: 1, pair[1]: 0}
    if flavor == "graph":
        labels = range(num_labels)
        return lambda k: {v: int(v == k) for v in labels}
    return lambda psi: {v: b for v, b in enumerate(psi.table) if b != STAR}


def _encoder_image(column: dict[int, int], table: dict[int, int]) -> tuple[int, int]:
    """A binary table's image on one coordinate of a behavior index (label ->
    bitmask of the behaviors with that label there): the bitmasks of the
    behaviors it codes 0 and 1.  A label the table omits (a star) codes a
    behavior as neither."""
    halves = [0, 0]
    for v, b in table.items():
        halves[b] |= column.get(v, 0)
    return halves[0], halves[1]


def _images(column, labels) -> list[tuple[int, int]]:
    """The `_encoder_image` on one coordinate of each {0,1,*} table over the
    ``labels`` realized there, the tables in product order."""
    images = [(0, 0)]
    for v in labels:
        m = column[v]
        images = [image for zero, one in images
                  for image in ((zero | m, one), (zero, one | m), (zero, one))]
    return images


def _image_numbers(num_labels: int, labels) -> list[int]:
    """Each table's image index in `_images` over ``labels``, the tables in
    `all_encoders` order: its values on ``labels`` read in base 3, which is
    also the order in which the images first occur among the tables."""
    weight = {v: 3 ** k for k, v in enumerate(reversed(labels))}
    return list(map(sum, itertools.product(
        *((0, w, STAR * w) for w in (weight.get(v, 0) for v in range(num_labels))))))


def _shattered_subclasses(a, b, ds1_subsets) -> Optional[tuple]:
    """For an encoder pair with images ``a`` and ``b``: None when the pair
    does not shatter the two points, else the DS dimension 1 subsets whose
    four behaviors it maps to the four distinct 0/1 codes, i.e. that meet
    each of the four code cells (disjoint, so once each)."""
    c00, c01, c10, c11 = a[0] & b[0], a[0] & b[1], a[1] & b[0], a[1] & b[1]
    if not (c00 and c01 and c10 and c11):
        return None
    return tuple(subset for m, subset in ds1_subsets
                 if m & c00 and m & c01 and m & c10 and m & c11)
