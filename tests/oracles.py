"""Brute-force reference implementations, kept independent of the library's
search strategies (no candidate pruning, no prefix extension, no coverage
DFS).  Expected values in the tests are computed or cross-checked here."""

import itertools

from dimkit import mix_labelings, restrict
from dimkit.psi import apply_encoders


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
