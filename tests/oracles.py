"""Brute-force reference implementations, kept independent of the library's
search strategies (no candidate pruning, no prefix extension, no coverage
DFS).  Expected values in the tests are computed or cross-checked here."""

import itertools
from fractions import Fraction

from dimkit import PreconditionError, ShatteredError, empirical_risk, mix_labelings, restrict
from dimkit.psi import apply_encoders
from dimkit.witnesses import ExclusionFailure, WitnessReport, WitnessViolation


def _subsets(n):
    for r in range(n + 1):
        yield from (frozenset(c) for c in itertools.combinations(range(n), r))


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


def good_patterns_bruteforce(spec, points):
    """Full pattern sweep over [0, max(T)] with direct witness exclusion, as
    opposed to the library's prefix-extension search."""
    points = tuple(sorted(set(points)))
    window = points[-1]
    labels = spec.window_labels(window)
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
                        if restricted == mix_labelings(w.evaluate(subset, y1, y2), y1, y2):
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


def validate_witness_reference(witness, cls, window):
    """The validation loop through the public ``Witness.evaluate``, which
    re-canonicalizes every input, with unsorted mixtures and one pass over
    the behaviors per graph input."""
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
                        points=points, payload=(g1, g2),
                        reason="shattered" if isinstance(err, ShatteredError)
                        else "exclusion_failure"))
                    continue
                excluded = mix_labelings(index_set, g1, g2)
                if excluded in pats:
                    violations.append(WitnessViolation(
                        points=points, payload=(g1, g2),
                        reason="excluded_pattern_realized", detail=excluded))
        elif witness.flavor == "graph":
            for f in itertools.product(range(q), repeat=arity):
                checked += 1
                try:
                    index_set = witness.evaluate(points, f)
                except ShatteredError:
                    violations.append(WitnessViolation(
                        points=points, payload=(f,), reason="shattered"))
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
                except ShatteredError:
                    violations.append(WitnessViolation(
                        points=points, payload=(psibar,), reason="shattered"))
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


def erm(cls, sample):
    """Unmemoised minimum empirical risk, ties to the canonical order."""
    return min(cls.hypotheses, key=lambda h: (empirical_risk(h, sample), h.sort_key()))
