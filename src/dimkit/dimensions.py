"""Shattering predicates and exact dimension computation.

Five flavors are supported: vc (binary alphabets only), natarajan, graph,
ds, and psi (parameterized by a family of {0,1,*}-valued label encoders).
vc, natarajan and graph shattering are psi-shattering for the identity,
pair-selector and indicator encoders, so those four flavors share one
coverage driver, a walk of a prefix tree of candidates; ds uses the
pseudo-cube core.  ``exact_dimension`` walks each size's subsets of the
window as one tree, so on an explicit class candidates with the same leading
points share their coverage states; a single-subset predicate walks its one
candidate.  Every positive answer comes with a certificate that re-verifies
against the class's behaviors, independently of the searches; every search
is deterministic (lexicographic orders throughout).
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
    _as_tuple,
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


def _table_images(column, choices):
    """Each (table, meta) pair's image on one coordinate (label -> bitmask of
    the members with that label), as (zero, one, meta): the masks of the
    members the table sends to 0 and to 1.  A table with an empty half never
    covers and is dropped.  The label masks are disjoint and nonempty, so a
    table whose image is, or swaps the halves of, an earlier kept one is that
    table T, or 1-T, on the realized labels, and is dropped too: T and 1-T
    cover or fail together with the same other choices (flipping a
    coordinate's bit permutes {0,1}^n), so the first covering tuple is the
    same as over the full list."""
    images, seen = [], set()
    for table, meta in choices:
        zero, one = _encoder_image(column, table)
        if zero and one and (zero, one) not in seen:
            seen.update(((zero, one), (one, zero)))
            images.append((zero, one, meta))
    return images


def _extend(states, images, need):
    """One coverage step, lazily: each search state (metas,
    cells) over a prefix of coordinates, extended by each table image of the
    next coordinate, states outer and images inner, so that the results keep
    lexicographic choice order.

    A state's cells are one per prefix code of length d, each the
    bitmask of the members whose encoded prefix is that code; a table splits
    each cell into its members coded 0 and those coded 1.  Cells of
    hypotheses are nonempty exactly when some behavior has their code, so
    both kinds of member cover alike.  A state survives only if every cell
    holds at least ``need`` members, 2^(n-d-1) after the choice at depth d
    of an n-point search: a member encodes to one code only, and each of the
    cell's 2^(n-d-1) completions needs its own.  Counted in hypotheses,
    several of which may share a behavior, the bound is weaker, but a cell
    with fewer hypotheses than that has fewer behaviors too, so it still cuts
    only choices that cannot cover."""
    for metas, cells in states:
        for zero, one, meta in images:
            nxt = list(map(zero.__and__, cells))
            nxt.extend(map(one.__and__, cells))
            if min(map(int.bit_count, nxt)) >= need:
                yield metas + (meta,), nxt


def _check_points(points):
    """The points as a nonempty tuple; ``restrict`` and ``_hypothesis_masks``
    check that they are distinct naturals."""
    points = _as_tuple(points, "points")
    if not points:
        raise PreconditionError("point tuple must be nonempty")
    return points


def _coverage_kind(cls, kind, family):
    """The coverage driver's (encoders, payload) for a kind other than ds:
    ``encoders(vals)`` builds the (table, meta) pairs of a coordinate whose
    realized labels are the sorted ``vals``, and ``payload(metas)`` turns the
    chosen metas into the certificate payload.  The tables come from
    ``psi._binary_table``, which refuses vc on a non-binary alphabet; a
    table's image reads only the realized labels, so graph tables are the
    indicators of those labels and Ψ tables are built once, from every
    member.  A ``family`` that is not a PsiFamily, or is over another
    alphabet than the class, is refused."""
    if kind == "psi":
        if not isinstance(family, PsiFamily):
            raise PreconditionError(f"psi {family!r} is not a PsiFamily")
        if family.num_labels != cls.num_labels:
            raise RepresentationError("family alphabet differs from class alphabet")
    table_of = _binary_table(kind, cls.num_labels)
    if kind == "vc":
        table = table_of(None)
        return lambda vals: [(table, None)], lambda got: ()
    if kind == "natarajan":
        return (lambda vals: [(table_of(pair), pair) for pair in itertools.combinations(vals, 2)],
                lambda got: tuple(zip(*got)))
    if kind == "graph":
        return lambda vals: [(table_of(k), k) for k in vals], lambda got: (got,)
    tables = [(table_of(m), m) for m in family.members]
    return lambda vals: tables, lambda got: (got,)


def _encoded_search(cls, points, kind, family=None,
                    coverage=None) -> Optional[ShatterCertificate]:
    """Certificate that ``points`` is shattered under a coverage kind, from
    the walk over that one candidate, whose members are an explicit class's
    hypotheses (no projection) or else the behaviors of ``restrict``.
    ``coverage`` is the kind's (encoders, payload) from ``_coverage_kind``,
    built here unless the caller built it already."""
    if coverage is None:
        coverage = _coverage_kind(cls, kind, family)
    points = _check_points(points)
    if cls.rows is not None:
        index, members = _hypothesis_masks(cls, points), len(cls.rows)
    else:
        behaviors = restrict(cls, points)
        index, members = behaviors.index, len(behaviors.pattern_set)
    steps = _coverage_steps(kind, *coverage, dict(zip(points, index)).__getitem__,
                            (1 << members) - 1)
    return _first_shattered(len(points), points, (), set(), *steps)


def is_vc_shattered(cls: HypothesisClass, points) -> Optional[ShatterCertificate]:
    return _encoded_search(cls, points, "vc")


def is_n_shattered(cls: HypothesisClass, points) -> Optional[ShatterCertificate]:
    """Search for componentwise-distinct labelings (g1, g2), drawn from the
    values realized at each coordinate, whose 2^n mixtures are all realized.
    Each pair is tried once, as the canonical half {a: 1, b: 0} with a < b of
    the Ψ_N encoders, so (g1, g2) is the lexicographically first answer."""
    return _encoded_search(cls, points, "natarajan")


def is_g_shattered(cls: HypothesisClass, points) -> Optional[ShatterCertificate]:
    """Search for a labeling f whose exact agreement sets against the class
    exhaust the powerset of coordinates, via the Ψ_G indicator encoders of
    the realized labels.  Any working f is itself realized (take the full
    agreement set), so the first f found is the first working pattern."""
    return _encoded_search(cls, points, "graph")


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
    members.  Every pattern must be a tuple of labels."""
    pats = _as_tuple(patterns, "patterns")
    for p in pats:
        if not (isinstance(p, tuple) and _is_labeling(p)):
            raise PreconditionError(f"pattern {p!r} is not a tuple of labels")
    pats = set(pats)
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

    At each coordinate only the first member of each set {T, 1-T} of images
    is tried (``_table_images``): under Ψ_N the members (k, k') and (k', k)
    have swapped images, and members that differ only off the realized
    labels have the same image.  A covering tuple through a later member
    stays covering when that member is swapped for the earlier one (flipping
    a coordinate's bit permutes {0,1}^n), and the swap is lexicographically
    smaller, so the first certificate, payload included, is the one the full
    product would give."""
    return _encoded_search(cls, points, "psi", family)


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


def _coverage_steps(kind, encoders, payload, column_at, full):
    """The walk's (root, grow, leaf) for a coverage kind, from the (encoders,
    payload) of ``_coverage_kind``, ``column_at(x)`` (each label at point x
    mapped to the bitmask of the members with it) and ``full``, the mask of
    all members, which is the root state's one cell.

    A node's ``_extend`` states are held as a ``tee`` head: a reader iterates
    a copy from the first state, and each state is computed once, when first
    read, and kept while the node is on the walk's path.  So the first leaf
    under a node does only the depth-first search's work, and later leaves
    reuse it.  Each point's table images are built on first use."""
    images = {}

    def images_at(x):
        if x not in images:
            column = column_at(x)
            images[x] = _table_images(column, encoders(sorted(column)))
        return images[x]

    def grow(states, node, need):
        (head,) = itertools.tee(_extend(states.__copy__(), images_at(node[-1]), need), 1)
        return None if next(head.__copy__(), None) is None else head

    def leaf(states, node):
        first = next(_extend(states.__copy__(), images_at(node[-1]), 1), None)
        if first is None:
            return None
        return ShatterCertificate(kind=kind, points=node, payload=payload(first[0]))

    (root,) = itertools.tee([((), [full])], 1)
    return root, grow, leaf


def _first_shattered(size, pool, below, failed, root, grow, leaf):
    """The first shattered ``size``-subset of the point sequence ``pool``
    (one candidate when ``size`` is its length), or None, by a depth-first
    walk of the candidates' prefix tree in the pool's order.

    The node of the leading points p_0, ..., p_d carries the states
    ``grow(parent states, node, 2^(size-d-1))`` returns, or None when no
    candidate under it can be shattered; a leaf (a whole candidate) is
    tested by ``leaf(parent states, node)``, which returns its certificate
    or None.  A node that is itself, or has a face (one point fewer) that
    is, in ``below``, the nodes of the previous size known to have no
    shattered superset of that size, is skipped without a test: a shattered
    superset here would have one there.  Every node whose subtree yields
    nothing is added to ``failed``: its candidates were all tested or
    skipped, and any other superset of it comes earlier in the pool's
    order, so none of its supersets of this size is shattered."""
    def visit(start, prefix, states):
        left = size - len(prefix) - 1  # points still to come below each child
        for i in range(start, len(pool) - left):
            node = prefix + (pool[i],)
            if below and (node in below or any(node[:j] + node[j + 1:] in below
                                               for j in range(len(node)))):
                found = None
            elif left:
                child = grow(states, node, 1 << left)
                found = None if child is None else visit(i + 1, node, child)
            else:
                found = leaf(states, node)
            if found is not None:
                return found
            failed.add(node)
        return None

    return visit(0, (), root)


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
    monotone).  Ties go to the lexicographically first subset.

    Each size walks its candidates depth-first as one prefix tree, in
    lexicographic order (``_first_shattered``).  For a coverage kind on an
    explicit class a node carries every coverage state over its leading
    points, pruned at the size's bound, and its children extend them, so
    candidates that share leading points share those states; the cells come
    from the class's cached per-point hypothesis masks, with no projection,
    and a node with no state fails every candidate under it at once.  A
    leaf's first passing state is the certificate the single-subset
    predicate, a walk of the same steps, gives.  DS, and every kind on an
    oracle class, test each candidate at the leaves with the predicate of
    its kind, which projects it with ``restrict``; a coverage kind's tables
    (``_coverage_kind``) are built once per call, before the walk, and
    handed to every leaf.  A node with a face known to have no shattered
    superset of the previous size is skipped, which by monotonicity never
    skips a shattered candidate.
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
    coverage = None if kind == "ds" else _coverage_kind(cls, kind, psi)
    if cls.rows is not None and kind != "ds":
        root, grow, leaf = _coverage_steps(kind, *coverage,
                                           lambda x: _hypothesis_masks(cls, (x,))[0],
                                           (1 << len(cls.rows)) - 1)
    else:
        root = ()

        def grow(states, node, need):
            return states

        def leaf(states, node):
            if kind == "ds":
                return is_ds_shattered(cls, node)
            return _encoded_search(cls, node, kind, psi, coverage)

    best = DimensionResult(value=0, certificate=None, warning=warning)
    failed = set()  # nodes of the previous size known to have no shattered superset
    for size in range(1, window + 2):
        below, failed = failed, set()
        found = _first_shattered(size, range(window + 1), below, failed, root, grow, leaf)
        if found is None:
            break
        best = DimensionResult(value=size, certificate=found, warning=warning)
    return best


# payload length per certificate kind, as ShatterCertificate documents it
_PAYLOAD_SIZE = {"vc": 0, "natarajan": 2, "graph": 1, "ds": 1, "psi": 1}


def _is_labeling(row) -> bool:
    return isinstance(row, (tuple, list)) and all(isinstance(v, int) for v in row)


def _well_typed(kind: str, payload: tuple, cls: HypothesisClass) -> bool:
    """Whether each payload part has the type its kind takes: labelings
    for natarajan and graph, a collection of label tuples for ds, and
    encoders over the class's alphabet for psi."""
    if kind == "ds":
        (cube,) = payload
        return isinstance(cube, (tuple, list, set, frozenset)) and all(
            isinstance(p, tuple) and _is_labeling(p) for p in cube)
    if kind == "psi":
        return isinstance(payload[0], (tuple, list)) and all(
            isinstance(psi, PsiFunction) and psi.num_labels == cls.num_labels
            for psi in payload[0])
    return all(map(_is_labeling, payload))


def verify_certificate(cert: ShatterCertificate, cls: HypothesisClass) -> bool:
    """Re-check a certificate against the class it allegedly shatters, on
    the class's behaviors on its points (``restrict``), independently of the
    searches that find certificates.  A DS cube must be a pseudo-cube of
    realized patterns; every other kind names one binary table per point
    (``psi._binary_table``), and the codes of the behaviors with no star
    under them must be all of {0,1}^n.  A payload of the wrong shape or type
    for its kind, encoders over another alphabet included, does not verify;
    vc on a non-binary class is refused, as the search refuses it."""
    if not isinstance(cert, ShatterCertificate):
        raise PreconditionError(f"{type(cert).__name__} is not a ShatterCertificate")
    if cert.kind not in _PAYLOAD_SIZE:
        raise PreconditionError(f"unknown certificate kind {cert.kind!r}")
    points, payload = cert.points, cert.payload
    # built first, so that vc on a non-binary class is refused as the search refuses it
    table_of = None if cert.kind == "ds" else _binary_table(cert.kind, cls.num_labels)
    if len(payload) != _PAYLOAD_SIZE[cert.kind] or not _well_typed(cert.kind, payload, cls):
        return False
    behaviors = restrict(cls, points).pattern_set
    if cert.kind == "ds":
        (cube,) = payload
        return set(cube) <= behaviors and is_pseudo_cube(cube)
    if any(len(part) != len(points) for part in payload):
        return False
    # a vc payload is empty, and its table reads no coordinate
    coords = zip(*payload) if cert.kind == "natarajan" else payload[0] if payload else points
    tables = list(map(table_of, coords))
    codes = {tuple(map(dict.get, tables, p)) for p in behaviors}
    return sum(None not in code for code in codes) == 1 << len(points)


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
