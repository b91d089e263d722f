"""Seeded random class generators shared by the property and acceptance
tests."""

import random
import sys

from dimkit import class_from_supports, class_from_tables


def _random_rows(rng, domain, num_labels, max_hypotheses):
    """1 to ``max_hypotheses`` distinct rows of ``domain`` labels, drawn
    uniformly without listing all q^domain of them: each row is an index
    into their product order, decoded in base q.  ``random.sample`` picks
    the same indices from a range as from a list of the same length, so
    the draws are those of sampling the listed rows.  Past sys.maxsize rows
    ``len(range)`` overflows, and distinct indices are drawn one at a time
    with ``randrange``."""
    total = num_labels ** domain
    k = rng.randint(1, min(max_hypotheses, total))
    if total <= sys.maxsize:
        indices = rng.sample(range(total), k)
    else:
        indices = {}
        while len(indices) < k:
            indices[rng.randrange(total)] = None
    rows = []
    for i in indices:
        row = []
        for _ in range(domain):
            i, v = divmod(i, num_labels)
            row.append(v)
        rows.append(tuple(reversed(row)))
    return rows


def random_table_class(rng, domain, num_labels, max_hypotheses):
    rows = _random_rows(rng, domain, num_labels, max_hypotheses)
    return class_from_tables(rows, num_labels=num_labels)


def table_corpus(seed, count, *, max_domain=4, labels=(2, 3, 4), max_hypotheses=16):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, max_domain)
        q = rng.choice(labels)
        out.append(random_table_class(rng, n, q, max_hypotheses))
    return out


def random_support_class(rng, window, num_labels, max_hypotheses):
    """Explicit class over the naturals with supports inside [0, window]."""
    rows = _random_rows(rng, window + 1, num_labels, max_hypotheses)
    supports = [
        tuple((x, v) for x, v in enumerate(row) if v != 0) for row in rows
    ]
    # distinct rows can collapse to equal supports only if equal rows; safe
    return class_from_supports(supports, num_labels=num_labels)


def ds2_pair_corpus(seed, count):
    """Two-point classes of DS dimension 2 over 3 to 5 labels, built around
    a 2x2 grid or a six-cycle (both pseudo-cubes) plus a few random extra
    behaviors.  In the "lone" classes one label never occurs at the second
    point, so encoders that differ only there share an image; in the cycles
    on three labels every label occurs at both points."""
    rng = random.Random(seed)
    out = []
    for r in range(count):
        kind = ("grid", "lone", "cycle")[r % 3]
        q = 3 + (r // 3) % 3
        second = list(range(q))  # labels allowed at the second point
        if kind == "cycle":
            xs, ys = rng.sample(range(q), 3), rng.sample(range(q), 3)
            pats = {(xs[i], ys[j]) for i in range(3) for j in (i, i - 1)}
        else:
            a, b = rng.sample(range(q), 2)
            if kind == "lone":
                second.remove(a)
            c, d = rng.sample(second, 2)
            pats = {(a, c), (a, d), (b, c), (b, d)}
        for _ in range(rng.randint(0, 3)):
            pats.add((rng.randrange(q), rng.choice(second)))
        out.append(class_from_tables(sorted(pats), num_labels=q))
    return out
