"""Shattering predicates and exact dimension computation.

Five flavors are supported: vc (binary alphabets only), natarajan, graph,
ds, and psi (parameterized by a family of {0,1,*}-valued label encoders).
vc, natarajan and graph shattering are psi-shattering for the identity,
pair-selector and indicator encoders, so those four flavors share one
coverage search, which also re-checks their certificates; ds uses the
pseudo-cube core.  Every positive answer comes with a certificate that
re-verifies against the class; every search is deterministic (lexicographic
orders throughout).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import compress
from operator import itemgetter
from typing import Optional

from .core import (
    HypothesisClass,
    PreconditionError,
    RepresentationError,
    _check_int,
    _check_window,
    _hypothesis_masks,
    restrict,
)
from .psi import PsiFamily, PsiFunction, _binary_table, _encoder_image

KINDS = ("vc", "natarajan", "graph", "ds", "psi")


@dataclass(frozen=True)
class ShatterCertificate:
    """Evidence that ``points`` is shattered: (g1, g2) for natarajan,
    (f,) for graph, the pseudo-cube pattern set for ds, the encoder tuple
    for psi, and () for vc."""

    kind: str
    points: tuple[int, ...]
    payload: tuple


@dataclass(frozen=True)
class DimensionResult:
    value: int
    certificate: Optional[ShatterCertificate]
    warning: Optional[str] = None


def _coverage_search(index, full, coord_choices):
    """Pick one binary encoder per coordinate so that the encoded members of
    a class cover all 2^n binary tuples.

    ``index[i]`` maps each label at coordinate i to the bitmask of the
    members with that label there, and ``full`` is the mask of all members:
    the hypotheses of an explicit class or the behaviors of an oracle class
    (see ``_cells``).  ``coord_choices[i]`` is a list of (table, meta) where
    table maps a label to 0/1 (a member with a label the table does not map
    encodes to nothing).  Returns the chosen metas (first in lexicographic
    choice order) or None.

    Each table becomes its image on ``index[i]``, the masks of the members
    it sends to 0 and of those it sends to 1 (a table with an empty half
    never covers and is dropped).  The search state at depth d is one cell
    per prefix code of length d, the bitmask of the members whose encoded
    prefix is that code.  Cells of hypotheses are nonempty exactly when
    some behavior has their code, so both kinds of member cover alike.
    After the choice at depth d each cell must hold at least 2^(n-d-1)
    members: a member encodes to one code only, and each of the cell's
    2^(n-d-1) completions needs its own.  Counted in hypotheses, several of
    which may share a behavior, the bound is weaker, but a cell with fewer
    hypotheses than that has fewer behaviors too, so it still cuts only
    branches that cannot cover.  The tables keep their order, so the first
    covering choice tuple is the one the full product would give.
    """
    n = len(coord_choices)
    if not n:
        return ()
    levels = []
    for column, choices in zip(index, coord_choices):
        level = []
        for table, meta in choices:
            zero, one = _encoder_image(column, table)
            if zero and one:
                level.append((zero, one, meta))
        levels.append(level)
    chosen = []

    def rec(depth, cells):
        need = 1 << (n - depth - 1)
        for zero, one, meta in levels[depth]:
            nxt = list(map(zero.__and__, cells))
            nxt.extend(map(one.__and__, cells))
            if min(map(int.bit_count, nxt)) < need:
                continue
            chosen.append(meta)
            if depth + 1 == n or rec(depth + 1, nxt):
                return True
            chosen.pop()
        return False

    if rec(0, [full]):
        return tuple(chosen)
    return None


def _cells(cls, points):
    """The coverage search's input on ``points``: per point, each label there
    mapped to the bitmask of the members with that label, and the mask of
    all members.  The members are an explicit class's hypotheses, read from
    its cached per-point masks with no projection, or else the behaviors of
    ``restrict``.  The points are checked as ``restrict`` checks them."""
    if cls.rows is not None:
        return _hypothesis_masks(cls, points), (1 << len(cls.rows)) - 1
    behaviors = restrict(cls, points)
    return behaviors.index, (1 << len(behaviors.pattern_set)) - 1


def _distinct_tables(choices):
    """The (table, meta) pairs whose table takes both values, without any
    table equal to, or the complement of, an earlier one.  Flipping one
    coordinate's bit permutes {0,1}^n, so a table and its complement cover
    or fail together with the same other choices: a choice tuple that uses a
    dropped table has an equivalent tuple earlier in lexicographic order, and
    the first covering tuple is the same as over the full list."""
    seen, kept = set(), []
    for table, meta in choices:
        key = tuple(table.items())
        if key in seen or not 0 < sum(table.values()) < len(table):
            continue
        seen.add(key)
        seen.add(tuple((v, 1 - b) for v, b in key))
        kept.append((table, meta))
    return kept


def _check_points(points):
    points = tuple(points)
    if not points:
        raise PreconditionError("point tuple must be nonempty")
    if len(set(points)) != len(points):
        raise PreconditionError(f"duplicate points in {points}")
    return points


def _encoded_search(cls, points, kind, encoders, payload) -> Optional[ShatterCertificate]:
    """Certificate that ``points`` (already checked) is shattered, from the
    coverage search over the (table, meta) pairs ``encoders(vals)`` builds
    from the sorted labels ``vals`` realized at each coordinate, built once
    per distinct ``vals`` and cut down by ``_distinct_tables``.
    ``payload(metas)`` turns the chosen metas into the certificate payload."""
    index, full = _cells(cls, points)
    lists = {}
    choices = []
    for column in index:
        vals = tuple(sorted(column))
        if vals not in lists:
            lists[vals] = _distinct_tables(encoders(vals))
        choices.append(lists[vals])
    got = _coverage_search(index, full, choices) if all(choices) else None
    if got is None:
        return None
    return ShatterCertificate(kind=kind, points=points, payload=payload(got))


def is_vc_shattered(cls: HypothesisClass, points) -> Optional[ShatterCertificate]:
    if cls.num_labels != 2:
        raise PreconditionError("vc shattering requires a binary alphabet")
    return _encoded_search(cls, _check_points(points), "vc",
                           lambda vals: [({0: 0, 1: 1}, None)], lambda got: ())


def is_n_shattered(cls: HypothesisClass, points) -> Optional[ShatterCertificate]:
    """Search for componentwise-distinct labelings (g1, g2), drawn from the
    values realized at each coordinate, whose 2^n mixtures are all realized.
    Each pair is tried once, as the canonical half {a: 1, b: 0} with a < b of
    the Ψ_N encoders, so (g1, g2) is the lexicographically first answer."""
    table_of = _binary_table("natarajan", cls.num_labels)
    return _encoded_search(
        cls, _check_points(points), "natarajan",
        lambda vals: [(table_of(pair), pair) for pair in itertools.combinations(vals, 2)],
        lambda got: tuple(zip(*got)))


def is_g_shattered(cls: HypothesisClass, points) -> Optional[ShatterCertificate]:
    """Search for a labeling f whose exact agreement sets against the class
    exhaust the powerset of coordinates, via the Ψ_G indicator encoders of
    the realized labels.  Any working f is itself realized (take the full
    agreement set), so the first f found is the first working pattern."""
    return _encoded_search(
        cls, _check_points(points), "graph",
        lambda vals: [({v: int(v == k) for v in vals}, k) for k in vals],
        lambda got: (got,))


@cache
def _line_keys(n: int) -> tuple:
    """Per coordinate i, a C-level map from a pattern to its line key at i:
    the pattern with coordinate i left out (``()`` when n is 1)."""
    keys = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        keys.append(itemgetter(*others) if others else itemgetter(slice(0)))
    return tuple(keys)


def is_pseudo_cube(patterns) -> bool:
    """True iff the set is nonempty and every pattern has, at every
    coordinate, a neighbor in the set differing there and only there: at
    each coordinate every line (the patterns equal off it) has two or more
    members."""
    pats = set(patterns)
    if len({len(p) for p in pats}) > 1:
        raise PreconditionError("mixed arities in pattern set")
    if not pats:
        return False
    keys = _line_keys(len(next(iter(pats))))
    return all(1 not in Counter(map(key, pats)).values() for key in keys)


# sweeps per coordinate before the worklist peel takes over
_SWEEP_ROUNDS = 3


def _pseudo_cube_core(patterns) -> frozenset:
    """The largest pseudo-cube inside the set (empty iff there is none).

    A pattern's line at coordinate i is the set of patterns equal to it off
    i; it has a neighbor there iff that line has two members.  The neighbor
    property is closed under unions, so the patterns left once no lone
    pattern remains are the union of all pseudo-cubes inside the set: the
    unique greatest fixed point, whatever the order of the drops.

    - Sweeps: one whole coordinate at a time, at C speed, the live patterns
      are projected off it with one ``itemgetter``, their line keys counted,
      and only patterns whose line has two or more members kept.  The
      coordinates take turns until n sweeps in a row drop nothing; then
      every line of the live set has two members, so it is the core.
    - Cut: a nonempty pseudo-cube on n coordinates has at least 2^n
      patterns (every line has two members, and the projection off a
      coordinate is again a pseudo-cube), and the core lies inside the live
      set, so fewer live patterns than that means an empty core.
    - Fallback: a chain that loses only its ends in each sweep would take
      about |P| sweeps, so after ``_SWEEP_ROUNDS`` sweeps per coordinate the
      survivors go to ``_peel``, which rechecks only the lines of each
      dropped pattern.  Sweeps and peel each compute O(|P|·n) line keys, so
      the whole stays linear in |P|·n."""
    live = set(patterns)
    if not live:
        return frozenset()
    n = len(next(iter(live)))
    need = 1 << n
    if len(live) < need:
        return frozenset()
    keys = _line_keys(n)
    live = list(live)
    quiet = sweeps = 0
    while quiet < n:
        if sweeps == _SWEEP_ROUNDS * n:
            return _peel(live, keys)
        lines = list(map(keys[sweeps % n], live))
        sweeps += 1
        counts = Counter(lines)
        if 1 not in counts.values():
            quiet += 1
            continue
        quiet = 0
        live = list(compress(live, map((1).__lt__, map(counts.__getitem__, lines))))
        if len(live) < need:
            return frozenset()
    return frozenset(live)


def _peel(patterns, keys) -> frozenset:
    """The pseudo-cube core by worklist peeling: drop a pattern whose line
    has one member, then recheck only the lines of the patterns dropped
    (k-core style, linear in |P|·n)."""
    alive = set(patterns)
    lines = {}
    for i, key in enumerate(keys):
        for p in alive:
            lines.setdefault((i, key(p)), set()).add(p)
    dead = [line.pop() for line in lines.values() if len(line) == 1]
    while dead:
        p = dead.pop()
        if p not in alive:
            continue
        alive.remove(p)
        for i, key in enumerate(keys):
            line = lines[(i, key(p))]
            line.discard(p)
            if len(line) == 1:
                dead.append(line.pop())
    return frozenset(alive)


def is_ds_shattered(cls: HypothesisClass, points) -> Optional[ShatterCertificate]:
    points = _check_points(points)
    core = _pseudo_cube_core(restrict(cls, points).patterns)
    if not core:
        return None
    return ShatterCertificate(kind="ds", points=points, payload=(tuple(sorted(core)),))


def is_psi_shattered(cls: HypothesisClass, points, family: PsiFamily) -> Optional[ShatterCertificate]:
    """Search for an encoder tuple from the family whose image of the class
    behaviors covers {0,1}^n.  Star outputs never count toward coverage.

    At each coordinate only the first member of each set {T, 1-T} of tables
    restricted to the realized labels is tried: under Ψ_N the members (k, k')
    and (k', k) are complements, and members that differ only off the
    realized labels restrict to the same table.  A covering tuple through a
    later member stays covering when that member is swapped for the earlier
    one (flipping a coordinate's bit permutes {0,1}^n), and the swap is
    lexicographically smaller, so the first certificate, payload included,
    is the one the full product would give."""
    points = _check_points(points)
    if family.num_labels != cls.num_labels:
        raise RepresentationError("family alphabet differs from class alphabet")
    table_of = _binary_table("psi", cls.num_labels)
    tables = [(table_of(psi), psi) for psi in family.members]

    def encoders(vals):
        return [({v: b for v, b in table.items() if v in vals}, psi) for table, psi in tables]

    return _encoded_search(cls, points, "psi", encoders, lambda got: (got,))


def _shatter(cls, points, kind, family):
    if kind == "vc":
        return is_vc_shattered(cls, points)
    if kind == "natarajan":
        return is_n_shattered(cls, points)
    if kind == "graph":
        return is_g_shattered(cls, points)
    if kind == "ds":
        return is_ds_shattered(cls, points)
    if kind == "psi":
        return is_psi_shattered(cls, points, family)
    raise PreconditionError(f"unknown dimension kind {kind!r}")


def _default_window(cls: HypothesisClass) -> int:
    """Top of the default search window: the last point of a finite domain,
    or the largest support point (0 for the all-zero class) over the
    naturals."""
    if cls.domain_size is not None:
        return cls.domain_size - 1
    if cls.rows is not None:
        bound = cls.support_bound()
        return 0 if bound is None else bound
    raise PreconditionError("oracle classes need an explicit window")


def exact_dimension(cls: HypothesisClass, kind: str, *, psi: Optional[PsiFamily] = None,
                    window: Optional[int] = None) -> DimensionResult:
    """Largest d such that some d-subset of [0, window] is shattered.
    ``psi`` is the family of kind "psi", and is refused with any other kind.

    For explicit classes over the naturals the window defaults to, and is
    capped at, the top of all supports: beyond it every hypothesis is 0, so
    no larger point can join a shattered set and the search is exact.  An
    oracle class over the naturals has no such cap.  A window that cannot be
    enumerated (sys.maxsize or more) is refused, and so is a support point
    that large when it sets the window.  Sizes increase until the
    first size with no shattered subset (all five flavors are downward
    monotone).  Ties go to the lexicographically first subset.  On an
    explicit class the coverage kinds read each candidate's cells from the
    class's cached per-point hypothesis masks, with no projection; DS, and
    every kind on an oracle class, project the candidate with ``restrict``.
    A candidate with a face (a subset one point smaller) known not to be
    shattered is skipped without a test, which by monotonicity never skips
    a shattered one.
    """
    if kind not in KINDS:
        raise PreconditionError(f"unknown dimension kind {kind!r}")
    if (psi is None) == (kind == "psi"):
        raise PreconditionError("psi dimension requires a family" if psi is None
                                else f"{kind} dimension takes no family")
    warning = None
    if window is None:
        window = _default_window(cls)
    else:
        _check_int(window, "window")
        if cls.domain_size is None and cls.rows is not None and min(
                (row[0][0] for row in cls.rows if row), default=window) > window:
            warning = "window contains no support point of the class"
    if cls.domain_size is not None or cls.rows is not None:
        window = min(window, _default_window(cls))
    _check_window(window)
    pts = range(window + 1)
    best = DimensionResult(value=0, certificate=None, warning=warning)
    failed = set()  # subsets of the previous size known not to be shattered
    for size in range(1, window + 2):
        found = None
        below, failed = failed, set()
        for points in itertools.combinations(pts, size):
            if below and any(points[:i] + points[i + 1:] in below for i in range(size)):
                failed.add(points)
                continue
            found = _shatter(cls, points, kind, psi)
            if found is not None:
                break
            failed.add(points)
        if found is None:
            break
        best = DimensionResult(value=size, certificate=found, warning=warning)
    return best


# payload length per certificate kind, as ShatterCertificate documents it
_PAYLOAD_SIZE = {"vc": 0, "natarajan": 2, "graph": 1, "ds": 1, "psi": 1}


def _is_labeling(row) -> bool:
    return isinstance(row, (tuple, list)) and all(isinstance(v, int) for v in row)


def _well_typed(kind: str, payload: tuple) -> bool:
    """Whether each payload part has the type its kind takes: labelings
    for natarajan and graph, a collection of label tuples for ds, and
    encoders for psi."""
    if kind == "ds":
        (cube,) = payload
        return isinstance(cube, (tuple, list, set, frozenset)) and all(
            isinstance(p, tuple) and _is_labeling(p) for p in cube)
    if kind == "psi":
        return isinstance(payload[0], (tuple, list)) and all(
            isinstance(psi, PsiFunction) for psi in payload[0])
    return all(map(_is_labeling, payload))


def verify_certificate(cert: ShatterCertificate, cls: HypothesisClass) -> bool:
    """Re-check a certificate against the class it allegedly shatters.  A DS
    cube must be a pseudo-cube of realized patterns; every other kind names
    one binary encoder per point, and their image of the class must cover
    {0,1}^n.  A payload of the wrong shape or type for its kind does not
    verify."""
    if not isinstance(cert, ShatterCertificate):
        raise PreconditionError(f"{type(cert).__name__} is not a ShatterCertificate")
    if cert.kind not in _PAYLOAD_SIZE:
        raise PreconditionError(f"unknown certificate kind {cert.kind!r}")
    points, payload = cert.points, cert.payload
    if len(payload) != _PAYLOAD_SIZE[cert.kind] or not _well_typed(cert.kind, payload):
        return False
    if cert.kind == "ds":
        (cube,) = payload
        return set(cube) <= restrict(cls, points).pattern_set and is_pseudo_cube(cube)
    index, full = _cells(cls, points)
    if any(len(part) != len(points) for part in payload):
        return False
    if cert.kind == "vc":
        tables = [{0: 0, 1: 1}] * len(points)
    else:
        coords = zip(*payload) if cert.kind == "natarajan" else payload[0]
        tables = map(_binary_table(cert.kind, cls.num_labels), coords)
    return _coverage_search(index, full, [[(t, None)] for t in tables]) is not None


@dataclass(frozen=True)
class SauerReport:
    count: int
    bound: int
    holds: bool


def sauer_natarajan_check(cls: HypothesisClass, points, d: int) -> SauerReport:
    """Check |H|_T| <= |T|^d * q^(2d), the growth bound for classes whose
    Natarajan dimension is at most d.  Exact integers."""
    _check_int(d, "d")
    points = _check_points(points)
    if d < 0:
        raise PreconditionError("d must be a natural")
    count = len(restrict(cls, points))
    bound = len(points) ** d * cls.num_labels ** (2 * d)
    return SauerReport(count=count, bound=bound, holds=count <= bound)
