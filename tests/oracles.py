"""Brute-force reference implementations, kept independent of the library's
search strategies (no candidate pruning, no prefix extension, no coverage
DFS).  Expected values in the tests are computed or cross-checked here."""

import itertools
import json
from fractions import Fraction
from types import SimpleNamespace

from dimkit import (
    Hypothesis,
    HypothesisClass,
    PreconditionError,
    RepresentationError,
    ShatteredError,
    empirical_risk,
    mix_labelings,
    restrict,
)
from dimkit.cli import SchemaError, jsonable
from dimkit.psi import (
    PairEntry,
    _binary_table,
    _encoder_image,
    _images,
    _shattered_subclasses,
    all_encoders,
    apply_encoders,
)
from dimkit.witnesses import ExclusionFailure, WitnessReport, WitnessViolation


def _subsets(n):
    for r in range(n + 1):
        yield from (frozenset(c) for c in itertools.combinations(range(n), r))


def restrict_reference(cls, points):
    """Behaviors of an explicit class on ``points``, one hypothesis at a
    time, sorted and duplicate-free."""
    return tuple(sorted({h.values_on(points) for h in cls.hypotheses}))


def vc_shattered(cls, points):
    pats = restrict(cls, points).pattern_set
    return all(p in pats for p in itertools.product((0, 1), repeat=len(points)))


def n_shattered(cls, points):
    pats = restrict(cls, points).pattern_set
    q = cls.num_labels
    n = len(points)
    for g1 in itertools.product(range(q), repeat=n):
        for g2 in itertools.product(range(q), repeat=n):
            if any(a == b for a, b in zip(g1, g2)):
                continue
            if all(mix_labelings(I, g1, g2) in pats for I in _subsets(n)):
                return True
    return False


def g_shattered(cls, points):
    pats = restrict(cls, points).pattern_set
    q = cls.num_labels
    n = len(points)
    for f in itertools.product(range(q), repeat=n):
        masks = {
            sum(1 << i for i in range(n) if p[i] == f[i]) for p in pats
        }
        if len(masks) == 1 << n:
            return True
    return False


def pseudo_cube(patterns):
    pats = set(patterns)
    if not pats:
        return False
    n = len(next(iter(pats)))
    for h in pats:
        for i in range(n):
            if not any(
                g[i] != h[i] and all(g[j] == h[j] for j in range(n) if j != i)
                for g in pats
            ):
                return False
    return True


def pseudo_cube_union(patterns):
    """Union of every nonempty subset of ``patterns`` that is a pseudo-cube
    by the direct definition (exponential; small sets only)."""
    pats = sorted(set(patterns))
    union = set()
    for r in range(1, len(pats) + 1):
        for sub in itertools.combinations(pats, r):
            if not union.issuperset(sub) and pseudo_cube(sub):
                union.update(sub)
    return frozenset(union)


def pseudo_cube_core_reference(patterns):
    """The pseudo-cube core by worklist peeling, one pattern at a time: a
    pattern whose line at some coordinate (the patterns equal to it off
    that coordinate) has no other member is dropped, and only its
    line-mates are rechecked.  Linear in |P|·n; the union of every
    pseudo-cube inside the set."""
    alive = set(patterns)
    n = len(next(iter(alive))) if alive else 0
    lines = {}
    for p in alive:
        for i in range(n):
            lines.setdefault((i, p[:i] + p[i + 1:]), set()).add(p)
    dead = [line.pop() for line in lines.values() if len(line) == 1]
    while dead:
        p = dead.pop()
        if p not in alive:
            continue
        alive.remove(p)
        for i in range(n):
            line = lines[(i, p[:i] + p[i + 1:])]
            line.discard(p)
            if len(line) == 1:
                dead.append(line.pop())
    return frozenset(alive)


def ds_shattered(cls, points):
    pats = restrict(cls, points).patterns
    for r in range(1, len(pats) + 1):
        for sub in itertools.combinations(pats, r):
            if pseudo_cube(sub):
                return True
    return False


def psi_shattered(cls, points, family):
    pats = restrict(cls, points).patterns
    n = len(points)
    binaries = set(itertools.product((0, 1), repeat=n))
    for psibar in itertools.product(family.members, repeat=n):
        images = {apply_encoders(psibar, p) for p in pats}
        if binaries <= images:
            return True
    return False


def first_certificate(cls, points, kind, family=None):
    """Payload of the first certificate in product order of per-coordinate
    choices (label pairs a < b, labels, or family members), or None.  Every
    choice tuple is checked in full, without pruning."""
    pats = restrict(cls, points).pattern_set
    q = cls.num_labels
    n = len(points)
    binaries = set(itertools.product((0, 1), repeat=n))
    if kind == "vc":
        return () if binaries <= pats else None
    if kind == "natarajan":
        pairs = list(itertools.combinations(range(q), 2))
        for combo in itertools.product(pairs, repeat=n):
            g1 = tuple(a for a, _ in combo)
            g2 = tuple(b for _, b in combo)
            if all(mix_labelings(I, g1, g2) in pats for I in _subsets(n)):
                return (g1, g2)
        return None
    if kind == "graph":
        for f in itertools.product(range(q), repeat=n):
            masks = {sum(1 << i for i in range(n) if p[i] == f[i]) for p in pats}
            if len(masks) == 1 << n:
                return (f,)
        return None
    for psibar in itertools.product(family.members, repeat=n):
        if binaries <= {apply_encoders(psibar, p) for p in pats}:
            return (psibar,)
    return None


def first_cover(patterns, coord_choices):
    """Metas of the first choice tuple, in product order of the lists of
    (table, meta) pairs, whose tables map ``patterns`` onto all of
    {0,1}^n; a pattern with a label missing from its table is dropped.
    Every tuple is encoded in full, without pruning or deduplication."""
    n = len(coord_choices)
    binaries = set(itertools.product((0, 1), repeat=n))
    for combo in itertools.product(*coord_choices):
        images = {
            tuple(table[v] for (table, _), v in zip(combo, p))
            for p in patterns
            if all(v in table for (table, _), v in zip(combo, p))
        }
        if binaries <= images:
            return tuple(meta for _, meta in combo)
    return None


def distinct_tables(choices):
    """The (table, meta) pairs whose table takes both values, without any
    table equal to, or the complement of, an earlier one, the tables
    compared as their (label, bit) items in order.  A table and its
    complement cover or fail together with the same other choices, so over
    tables restricted to a coordinate's realized labels the first covering
    tuple is the same as over the full list."""
    seen, kept = set(), []
    for table, meta in choices:
        key = tuple(table.items())
        if key in seen or not 0 < sum(table.values()) < len(table):
            continue
        seen.add(key)
        seen.add(tuple((v, 1 - b) for v, b in key))
        kept.append((table, meta))
    return kept


def shattered(cls, points, kind, family=None):
    if kind == "vc":
        return vc_shattered(cls, points)
    if kind == "natarajan":
        return n_shattered(cls, points)
    if kind == "graph":
        return g_shattered(cls, points)
    if kind == "ds":
        return ds_shattered(cls, points)
    return psi_shattered(cls, points, family)


def dimension(cls, kind, window, family=None):
    best = 0
    for size in range(1, window + 2):
        hits = [
            pts for pts in itertools.combinations(range(window + 1), size)
            if shattered(cls, pts, kind, family)
        ]
        if not hits:
            break
        best = size
    return best


def first_shattered(cls, kind, window, size, family=None):
    """Lexicographically first shattered ``size``-subset of [0, window], or
    None; every subset before it is tested in full."""
    for pts in itertools.combinations(range(window + 1), size):
        if shattered(cls, pts, kind, family):
            return pts
    return None


def _excluded(answer, g1, g2):
    """The labeling a natarajan witness answer excludes: g1 at each position
    the answer holds, read by membership as the witness reads it (so an
    answer of bools holds position 1 if it holds True), g2 elsewhere."""
    return mix_labelings({i for i in range(len(g1)) if i in answer}, g1, g2)


def good_patterns_bruteforce(spec, points):
    """Full pattern sweep over [0, max(T)] with direct witness exclusion, as
    opposed to the library's prefix-extension search."""
    points = tuple(sorted(set(points)))
    window = points[-1]
    labels = range(spec.num_labels)
    w = spec.witness
    arity = w.arity
    per_coord = [(a, b) for a in labels for b in labels if a != b]
    survivors = []
    for p in itertools.product(labels, repeat=window + 1):
        top = max((x for x, v in enumerate(p) if v != 0), default=None)
        good = True
        if top is not None and arity <= top + 1:
            for subset in itertools.combinations(range(top + 1), arity):
                restricted = tuple(p[x] for x in subset)
                if w.flavor == "natarajan":
                    for combo in itertools.product(per_coord, repeat=arity):
                        y1 = tuple(c[0] for c in combo)
                        y2 = tuple(c[1] for c in combo)
                        if restricted == _excluded(w.evaluate(subset, y1, y2), y1, y2):
                            good = False
                            break
                else:
                    for psibar in itertools.product(w.psi.members, repeat=arity):
                        if apply_encoders(psibar, restricted) == tuple(w.evaluate(subset, psibar)):
                            good = False
                            break
                if not good:
                    break
        if good:
            survivors.append(p)
    return tuple(sorted({tuple(p[x] for x in points) for p in survivors}))


def witness_inputs_reference(witness, num_labels):
    """Every canonical payload over labels 0..num_labels-1, in product
    order, as a product over the per-coordinate alphabet: each natarajan
    row of (a, b) pairs is transposed into (g1, g2)."""
    labels = range(num_labels)
    if witness.flavor == "natarajan":
        pairs = [(a, b) for a in labels for b in labels if a != b]
        return [tuple(zip(*row)) for row in itertools.product(pairs, repeat=witness.arity)]
    alphabet = labels if witness.flavor == "graph" else witness.psi.members
    return [(row,) for row in itertools.product(alphabet, repeat=witness.arity)]


def _raised(err):
    return "shattered" if isinstance(err, ShatteredError) else "exclusion_failure"


def validate_witness_reference(witness, cls, window):
    """The validation loop through the public ``Witness.evaluate``, which
    re-canonicalizes every input, with unsorted mixtures and one pass over
    the behaviors per graph input.  ShatteredError and ExclusionFailure are
    violations for every flavor."""
    if window < 0:
        raise PreconditionError("window must be a natural")
    arity = witness.arity
    q = cls.num_labels
    checked = 0
    violations = []
    per_coord_pairs = [(a, b) for a in range(q) for b in range(q) if a != b]
    for points in itertools.combinations(range(window + 1), arity):
        behaviors = restrict(cls, points)
        pats = behaviors.pattern_set
        if witness.flavor == "natarajan":
            for combo in itertools.product(per_coord_pairs, repeat=arity):
                g1 = tuple(c[0] for c in combo)
                g2 = tuple(c[1] for c in combo)
                checked += 1
                try:
                    index_set = witness.evaluate(points, g1, g2)
                except (ShatteredError, ExclusionFailure) as err:
                    violations.append(WitnessViolation(
                        points=points, payload=(g1, g2), reason=_raised(err)))
                    continue
                excluded = _excluded(index_set, g1, g2)
                if excluded in pats:
                    violations.append(WitnessViolation(
                        points=points, payload=(g1, g2),
                        reason="excluded_pattern_realized", detail=excluded))
        elif witness.flavor == "graph":
            for f in itertools.product(range(q), repeat=arity):
                checked += 1
                try:
                    index_set = witness.evaluate(points, f)
                except (ShatteredError, ExclusionFailure) as err:
                    violations.append(WitnessViolation(
                        points=points, payload=(f,), reason=_raised(err)))
                    continue
                mask = sum(1 << i for i in index_set)
                hit = next(
                    (p for p in pats
                     if sum(1 << i for i in range(arity) if p[i] == f[i]) == mask),
                    None,
                )
                if hit is not None:
                    violations.append(WitnessViolation(
                        points=points, payload=(f,),
                        reason="excluded_pattern_realized", detail=hit))
        else:
            for psibar in itertools.product(witness.psi.members, repeat=arity):
                checked += 1
                try:
                    pattern = witness.evaluate(points, psibar)
                except (ShatteredError, ExclusionFailure) as err:
                    violations.append(WitnessViolation(
                        points=points, payload=(psibar,), reason=_raised(err)))
                    continue
                images = {apply_encoders(psibar, p) for p in pats}
                if tuple(pattern) in images:
                    violations.append(WitnessViolation(
                        points=points, payload=(psibar,),
                        reason="excluded_pattern_realized", detail=tuple(pattern)))
    return WitnessReport(checked_inputs=checked, violations=tuple(violations))


def first_missing_mixture(pats, g1, g2):
    """Index set of the first mixture of (g1, g2) outside ``pats``, with
    every mixture built and sorted; None if all are realized."""
    candidates = sorted(
        (mix_labelings(index_set, g1, g2), index_set) for index_set in _subsets(len(g1))
    )
    return next((index_set for mixture, index_set in candidates if mixture not in pats), None)


def first_missing_agreement(pats, f):
    """Index set of the first agreement set with ``f``, in product order of
    its 0/1 indicator, that no behavior in ``pats`` has; None if every one is
    realized.  Every behavior's agreement mask is built per input."""
    arity = len(f)
    present = {
        sum(1 << i for i in range(arity) if p[i] == f[i]) for p in pats
    }
    for bits in itertools.product((0, 1), repeat=arity):
        mask = sum(1 << i for i, b in enumerate(bits) if b)
        if mask not in present:
            return frozenset(i for i, b in enumerate(bits) if b)
    return None


def first_missing_image(pats, psibar):
    """First binary pattern, in product order, outside the encoded images of
    ``pats``; None if every one is covered.  Every behavior is encoded per
    input."""
    images = {apply_encoders(psibar, p) for p in pats}
    for pattern in itertools.product((0, 1), repeat=len(psibar)):
        if pattern not in images:
            return pattern
    return None


def first_missing_code(cells, live=-1):
    """First 0/1 code, in product order, that no behavior in ``live`` has: a
    behavior has code c when its bit is set in cells[i][c[i]] at every
    coordinate i.  None if every code is had."""
    for code in itertools.product((0, 1), repeat=len(cells)):
        mask = live
        for cell, b in zip(cells, code):
            mask &= cell[b]
        if not mask:
            return code
    return None


def exact_expected_risk(learner, points, f_values, m):
    """Fraction-summing average risk over all (2m)^m training sequences."""
    points = tuple(points)
    f = dict(zip(points, f_values, strict=True))
    table = []
    total = Fraction(0)
    for seq in itertools.product(points, repeat=m):
        h = learner(tuple((x, f[x]) for x in seq))
        risk = Fraction(sum(1 for x in points if h(x) != f[x]), len(points))
        table.append((seq, risk))
        total += risk
    return total / len(points) ** m, tuple(table)


def nfl_adversary(learner, points, g1, g2):
    """The adversary decided mixture by mixture through the Fraction
    sequence sweep: (f, index set, expected risk, tail, mixtures examined)
    of the first mixture whose expected risk reaches 1/4, or None."""
    points = tuple(points)
    m = len(points) // 2
    for examined, bits in enumerate(itertools.product((0, 1), repeat=len(points)), 1):
        index_set = frozenset(i for i, b in enumerate(bits) if b)
        f = mix_labelings(index_set, g1, g2)
        expected, table = exact_expected_risk(learner, points, f, m)
        if expected >= Fraction(1, 4):
            tail = Fraction(sum(1 for _, r in table if r >= Fraction(1, 8)), len(table))
            return f, index_set, expected, tail, examined
    return None


def gap_rule(m, points, y1, y2):
    """The bundled gap witness's two-case rule, label pair by label pair:
    the first mixture (a, b), a from {y1[0], y2[0]} and b from {y1[1],
    y2[1]}, with two distinct non-blank codes; otherwise the one code A
    present, against blank at the coordinate that the first point's
    membership in A picks.  Returns the index set of y1's labels in the
    target."""
    blank = 1 << m
    for a in (y1[0], y2[0]):
        for b in (y1[1], y2[1]):
            if a != blank and b != blank and a != b:
                return frozenset(i for i, t in enumerate((a, b)) if t == y1[i])
    codes = {v for v in (*y1, *y2) if v != blank}
    code = codes.pop()
    x1 = points[0]
    in_a = x1 < m and bool((code >> x1) & 1)
    target = (blank, code) if in_a else (code, blank)
    return frozenset(i for i in range(2) if target[i] == y1[i])


def erm(cls, sample):
    """Unmemoised minimum empirical risk, ties to the canonical order."""
    return min(cls.hypotheses, key=lambda h: (empirical_risk(h, sample), h.sort_key()))


def refute_ds_reference(cls):
    """The DS refutation decided table pair by table pair: all 3^q x 3^q
    encoder pairs, with no grouping of encoders by image.  The report's
    verdict, pairs_examined and entries, the entries as a tuple."""
    from dimkit.dimensions import exact_dimension

    if not cls.is_explicit or cls.domain_size != 2:
        raise PreconditionError("need an explicit class on exactly two points")
    if exact_dimension(cls, "ds").value != 2:
        raise PreconditionError("class must have DS dimension exactly 2")
    pats = restrict(cls, (0, 1)).patterns
    q = cls.num_labels

    # 4-subsets of behaviors with DS dimension exactly 1, precomputed once.
    ds1_subsets = []
    for combo in itertools.combinations(range(len(pats)), 4):
        subset = tuple(pats[i] for i in combo)
        if not pseudo_cube_core_reference(subset):
            ds1_subsets.append((combo, subset))

    tables = all_encoders(q)
    img1 = [tuple(t.table[p[0]] for p in pats) for t in tables]
    img2 = [tuple(t.table[p[1]] for p in pats) for t in tables]
    npat = len(pats)
    full = 0b1111

    entries = []
    for i1, a in enumerate(img1):
        for i2, b in enumerate(img2):
            mask = 0
            codes = []
            for k in range(npat):
                v1 = a[k]
                v2 = b[k]
                if v1 < 2 and v2 < 2:
                    c = (v1 << 1) | v2
                    mask |= 1 << c
                    codes.append(c)
                else:
                    codes.append(-1)
            if mask != full:
                continue
            found = []
            for combo, subset in ds1_subsets:
                sub_codes = {codes[k] for k in combo}
                if -1 not in sub_codes and len(sub_codes) == 4:
                    found.append(subset)
            entries.append(PairEntry(psi1=tables[i1], psi2=tables[i2],
                                     subclasses=tuple(found)))

    if not entries:
        verdict = "vacuous"
    elif all(e.subclasses for e in entries):
        verdict = "refuted"
    else:
        verdict = "not_refuted"
    return SimpleNamespace(verdict=verdict, pairs_examined=len(tables) ** 2,
                           entries=tuple(entries))


def decided_reference(cls):
    """The refutation's ``decided`` table with every image pair decided, the
    pairs whose images do not both split included: for each image at point
    0 and each at point 1, `_shattered_subclasses` over the DS-1 subsets."""
    behaviors = restrict(cls, (0, 1))
    labels1, labels2 = (tuple(sorted(column)) for column in behaviors.index)
    bit = {p: 1 << j for j, p in enumerate(behaviors.pattern_set)}
    ds1_subsets = [(sum(bit[p] for p in subset), subset)
                   for subset in itertools.combinations(behaviors.patterns, 4)
                   if not pseudo_cube_core_reference(subset)]
    images2 = _images(behaviors.index[1], labels2)
    return tuple(tuple(_shattered_subclasses(a, b, ds1_subsets) for b in images2)
                 for a in _images(behaviors.index[0], labels1))


def image_numbering_reference(column, num_labels):
    """Every encoder table's image on one coordinate of a behavior index
    (label -> bitmask of the behaviors with that label there), numbered by
    first occurrence over `all_encoders`: the distinct images in that
    order, and each table's image index."""
    table_of = _binary_table("psi", num_labels)
    index = {}
    of = [index.setdefault(_encoder_image(column, table_of(t)), len(index))
          for t in all_encoders(num_labels)]
    return list(index), of


def canonical_json(obj):
    """Canonical report text in two passes: ``jsonable`` builds the
    converted copy, then the stdlib encoder sorts keys and writes it."""
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False, allow_nan=False)


def class_from_file_reference(doc):
    """The class of an explicit class file, one ``Hypothesis`` per row: the
    loader as it was before rows were checked in bulk.  Each row's shape, its
    support keys and then its entries are checked before the next row's, and
    a row's entry error is reported with the row put first."""
    labels = doc.get("labels")
    if type(labels) is not int or labels < 1:
        raise SchemaError("field 'labels': expected a positive integer")
    domain = doc.get("domain")
    rows = doc.get("hypotheses")
    if not isinstance(rows, list) or not rows:
        raise SchemaError("field 'hypotheses': expected a nonempty array")
    nat = domain == "nat"
    if not nat and (type(domain) is not int or domain < 1):
        raise SchemaError("field 'domain': expected a positive integer or 'nat'")
    hyps = []
    for i, row in enumerate(rows):
        try:
            if not nat:
                if not isinstance(row, list) or len(row) != domain:
                    raise SchemaError(f"hypotheses[{i}]: expected a row of length {domain}")
                hyps.append(Hypothesis(num_labels=labels, table=tuple(row)))
            elif not isinstance(row, dict) or "support" not in row:
                raise SchemaError(f"hypotheses[{i}]: expected {{'support': ...}}")
            elif not isinstance(row["support"], dict):
                raise SchemaError(f"hypotheses[{i}].support: expected an object")
            else:
                pairs = []
                for key, label in row["support"].items():
                    try:
                        point = int(key)
                        canonical = str(point) == key
                    except ValueError:  # not an integer, or too long for int()
                        canonical = False
                    if not canonical:
                        raise SchemaError(f"hypotheses[{i}].support: key {key!r} "
                                          "is not a canonical decimal integer")
                    pairs.append((point, label))
                hyps.append(Hypothesis(num_labels=labels, support=pairs))
        except RepresentationError as err:
            raise SchemaError(f"hypotheses[{i}]{'.' if nat else ''}{err}") from err
    return HypothesisClass(num_labels=labels, domain_size=None if nat else domain,
                           hypotheses=tuple(hyps))
