"""Seeded workload decks and the per-op result checks.

A deck is a list of rounds; a round is a few CLI operations on inputs that
were generated from the workload seed and written to the work directory
before any timing starts.  Every deck holds at least 100 operations, so the
p90 of one pass has ten samples above it.

Checks never re-run the command they check.  They use the benchmark's own
copy of the generated data, closed forms, constructions whose verdict is
known, and `verify_certificate`, which re-checks a certificate against the
class instead of searching for one.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from operator import eq, ne
from typing import Callable, Optional

WORKLOADS = ("dims", "witness", "learn", "refute")


class CheckFailed(Exception):
    """An operation's report disagrees with what its inputs imply."""


@dataclass
class Op:
    key: str                 # stable name inside the deck, e.g. "r3.ds"
    argv: list
    expect_code: int
    check: Callable          # check(report, ctx) -> None, raises CheckFailed
    input_id: str = ""       # sha256 of argv and the bytes of its input files


@dataclass
class Round:
    ops: list
    files: dict = field(default_factory=dict)   # name -> bytes


@dataclass
class Deck:
    workload: str
    rounds: list
    warmup: list             # ops run once, untimed, before the first timed op

    def ops(self):
        """(starts a round, op) for every op, in deck order."""
        return [(j == 0, op) for r in self.rounds for j, op in enumerate(r.ops)]


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _dump(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def _finish(rounds, shared):
    """Attach input ids: sha256 over argv and every file a round may read."""
    for r in rounds:
        files = dict(shared)
        files.update(r.files)
        for op in r.ops:
            h = hashlib.sha256(json.dumps(op.argv).encode())
            for name in sorted(files):
                if any(name in a for a in op.argv):
                    h.update(name.encode() + b"\0" + files[name])
            op.input_id = h.hexdigest()


def write_files(deck: Deck, shared: dict, workdir: str) -> None:
    os.makedirs(workdir, exist_ok=True)
    for name, data in list(shared.items()) + [
        kv for r in deck.rounds for kv in r.files.items()
    ]:
        with open(os.path.join(workdir, name), "wb") as fh:
            fh.write(data)


# ----------------------------------------------------------------------
# Class generators and the benchmark's own views of them
# ----------------------------------------------------------------------

def _dense(rng, n, q, count):
    rows = set()
    while len(rows) < count:
        rows.add(tuple(rng.randrange(q) for _ in range(n)))
    return sorted(rows)


def _sparse(rng, window, q, count, max_support=3):
    sups = set()
    while len(sups) < count:
        pts = rng.sample(range(window + 1), rng.randint(1, max_support))
        sups.add(tuple(sorted((x, rng.randrange(1, q)) for x in pts)))
    return sorted(sups)


def _table_doc(q, rows):
    return {"labels": q, "domain": len(rows[0]), "hypotheses": [list(r) for r in rows]}


def _support_doc(q, sups):
    return {"labels": q, "domain": "nat",
            "hypotheses": [{"support": {str(x): y for x, y in s}} for s in sups]}


def _shatters(pats, kind):
    """Whether the set of patterns ``pats`` on k points shatters them.
    Natarajan: componentwise-distinct g1, g2 with all 2^k mixtures
    realized.  Graph: a labeling f whose agreement sets with the patterns
    are all 2^k subsets.  Both g1, g2 and f must themselves be patterns."""
    if kind == "natarajan":
        return any(
            all(m in pats for m in itertools.product(*zip(g1, g2)))
            for g1, g2 in itertools.combinations(pats, 2) if all(map(ne, g1, g2)))
    # All 2^k agreement sets must occur, so at most len(pats) - 2^k
    # patterns may repeat one.
    slack = len(pats) - (1 << len(next(iter(pats))))
    if slack < 0:
        return False
    for f in pats:
        seen, repeats = set(), 0
        for p in pats:
            mask = tuple(map(eq, p, f))
            if mask in seen:
                repeats += 1
                if repeats > slack:
                    break
            seen.add(mask)
        else:
            return True
    return False


def _dimension_is(rows, kind, d):
    """Whether the dense ``rows`` have Natarajan or graph dimension exactly
    ``d``, by brute force over the point subsets (both dimensions are
    downward monotone).  Generation uses this instead of dimkit's search,
    so the inputs depend on the seed alone."""
    def some(size):
        return any(_shatters({tuple(r[i] for i in pts) for r in rows}, kind)
                   for pts in itertools.combinations(range(len(rows[0])), size))
    return some(d) and not some(d + 1)


def _table_class(q, rows):
    from dimkit import class_from_tables
    return class_from_tables(rows, num_labels=q)


def _support_class(q, sups):
    from dimkit import class_from_supports
    return class_from_supports(sups, num_labels=q)


def _project(sups, points):
    """Behaviors of a finite-support class on ``points``, computed here."""
    return {tuple(dict(s).get(x, 0) for x in points) for s in sups}


def _report(out: str):
    try:
        return json.loads(out)
    except json.JSONDecodeError as err:
        raise CheckFailed(f"report is not JSON: {err}") from err


# ----------------------------------------------------------------------
# dims: dim --kind natarajan/graph/ds/psi(Ψ_N)/psi(Ψ_G) on one class
# ----------------------------------------------------------------------

# (sparse, n, q, hypotheses): dense rows are tables over [0, n); sparse rows
# are finite-support functions over the naturals with support inside [0, n).
# Each shape's dimensions hardly vary between random draws, so a seed changes
# the classes but not how deep the searches go.  Each shape recurs with its
# hypothesis count scaled by each of DIMS_SCALES: one op kind on one shape
# costs about the same on every draw, and without the scaling the deck's op
# costs would form tiers of equal ops whose edges fall on the p50 and p90.
DIMS_SCALES = (0.7, 0.9, 1.1, 1.3)
DIMS_SHAPES = (
    (False, 6, 3, 120),
    (True, 7, 3, 150),
    (False, 6, 4, 80),
    (True, 6, 3, 80),
    (False, 6, 4, 100),
    (True, 6, 4, 150),
)
DIMS_KINDS = ("natarajan", "graph", "ds", "psiN", "psiG")


def _cert_from_json(c):
    from dimkit import PsiFunction, ShatterCertificate
    from dimkit.psi import STAR

    kind, points, payload = c["kind"], tuple(c["points"]), c["payload"]
    if kind == "natarajan":
        payload = (tuple(payload[0]), tuple(payload[1]))
    elif kind == "graph":
        payload = (tuple(payload[0]),)
    elif kind == "ds":
        payload = (tuple(tuple(p) for p in payload[0]),)
    elif kind == "psi":
        payload = (tuple(
            PsiFunction(table=tuple(STAR if s == "*" else int(s) for s in row))
            for row in payload[0]),)
    return ShatterCertificate(kind=kind, points=points, payload=payload)


def _dims_check(cls, kind):
    from dimkit import verify_certificate

    def check(rep, ctx):
        res = rep["result"]
        d = res["dimension"]
        _require(res["kind"] == ("psi" if kind.startswith("psi") else kind),
                 f"kind {res['kind']}")
        certs = rep["certificates"]
        if d == 0:
            _require(certs == [], "dimension 0 with a certificate")
        else:
            _require(len(certs) == 1, "missing certificate")
            cert = _cert_from_json(certs[0])
            _require(len(cert.points) == d, "certificate size differs from dimension")
            _require(verify_certificate(cert, cls), "certificate does not verify")
        ctx[kind] = d
        if len(ctx) == len(DIMS_KINDS):
            _require(ctx["psiN"] == ctx["natarajan"], "Ψ_N dimension != Natarajan")
            _require(ctx["psiG"] == ctx["graph"], "Ψ_G dimension != graph")
            _require(ctx["natarajan"] <= ctx["graph"], "Natarajan > graph")
            _require(ctx["natarajan"] <= ctx["ds"], "Natarajan > DS")
    return check


def dims_deck(seed: int):
    rng = random.Random(f"dims:{seed}")
    shared = {}
    for q in (3, 4):
        shared[f"psiN{q}.json"] = _dump({"labels": q, "builtin": "psi_N"})
        shared[f"psiG{q}.json"] = _dump({"labels": q, "builtin": "psi_G"})
    rounds = []
    for r in range(len(DIMS_SHAPES) * len(DIMS_SCALES)):
        sparse, n, q, count = DIMS_SHAPES[r % len(DIMS_SHAPES)]
        count = round(count * DIMS_SCALES[r // len(DIMS_SHAPES)])
        name = f"c{r}.json"
        if sparse:
            sups = _sparse(rng, n - 1, q, count)
            doc, cls = _support_doc(q, sups), _support_class(q, sups)
        else:
            rows = _dense(rng, n, q, count)
            doc, cls = _table_doc(q, rows), _table_class(q, rows)
        ops = []
        for kind in DIMS_KINDS:
            argv = ["dim", "--class", name, "--kind"]
            if kind.startswith("psi"):
                argv += ["psi", "--psi", f"{kind}{q}.json"]
            else:
                argv += [kind]
            ops.append(Op(f"r{r}.{kind}", argv, 0, _dims_check(cls, kind)))
        rounds.append(Round(ops, {name: _dump(doc)}))
    _finish(rounds, shared)
    return Deck("dims", rounds, warmup=[rounds[0].ops[0]]), shared


# ----------------------------------------------------------------------
# witness: canonical witnesses at order = dimension, learner witness, gap
# ----------------------------------------------------------------------

def _witness_check(flavor, order, window, q, expect_valid, family_size=None):
    k1 = order + 1
    tuples = comb(window + 1, k1)
    per = {"natarajan": (q * (q - 1)) ** k1, "graph": q ** k1,
           "psi": (family_size or 0) ** k1}[flavor]

    def check(rep, ctx):
        res = rep["result"]
        _require(res["witness"]["flavor"] == flavor, "flavor")
        _require(res["witness"]["order"] == order, "order")
        _require(res["window"] == window, "window")
        _require(res["checked_inputs"] == tuples * per,
                 f"checked_inputs {res['checked_inputs']} != {tuples * per}")
        _require(res["valid"] == (res["violation_count"] == 0), "valid flag")
        _require(res["valid"] == expect_valid, f"valid={res['valid']}")
    return check


def witness_deck(seed: int):
    """Each round: one seeded q=3 class (n=6 in every fourth round, else
    n=5) whose Natarajan dimension is 2 and graph dimension 3
    (rejection-sampled, so per-op cost does not depend on luck), checked at
    order = dimension for three flavors; an ERM witness at m=1, necessarily
    invalid because the class N-shatters two points; and, every other
    round, the bundled gap m=3 witness."""
    rng = random.Random(f"witness:{seed}")
    q = 3
    shared = {"gap.json": _dump({"gallery": "gap", "params": {"m": 3}}),
              "psiG3.json": _dump({"labels": q, "builtin": "psi_G"})}
    gap_check = _witness_check("natarajan", 1, 2, 9, True)
    rounds = []
    for r in range(26):
        n, count = (6, 18) if r % 4 == 3 else (5, 20)
        while True:
            rows = _dense(rng, n, q, count)
            if _dimension_is(rows, "natarajan", 2) and _dimension_is(rows, "graph", 3):
                break
        name = f"w{r}.json"
        w = n - 1
        ops = [
            Op(f"r{r}.natarajan", ["witness", "check", "--class", name,
                                   "--flavor", "natarajan", "--order", "2"],
               0, _witness_check("natarajan", 2, w, q, True)),
            Op(f"r{r}.graph", ["witness", "check", "--class", name,
                               "--flavor", "graph", "--order", "3"],
               0, _witness_check("graph", 3, w, q, True)),
            Op(f"r{r}.psiG", ["witness", "check", "--class", name, "--flavor", "psi",
                              "--psi", "psiG3.json", "--order", "3"],
               0, _witness_check("psi", 3, w, q, True, family_size=q)),
            Op(f"r{r}.erm", ["witness", "from-learner", "--learner", f"erm:{name}",
                             "--m", "1", "--check-class", name],
               1, _witness_check("natarajan", 1, w, q, False)),
        ]
        if r % 2 == 0:
            ops.append(Op(f"r{r}.gap", ["witness", "check", "--class", "gap.json",
                                        "--bundled"], 0, gap_check))
        rounds.append(Round(ops, {name: _dump(_table_doc(q, rows))}))
    _finish(rounds, shared)
    return Deck("witness", rounds, warmup=[rounds[0].ops[1]]), shared


# ----------------------------------------------------------------------
# learn: embed behaviors / erm, nfl against the embed and memorizing learners
# ----------------------------------------------------------------------

def _behaviors_check(sups, points, q):
    base = _project(sups, points)

    def check(rep, ctx):
        res = rep["result"]
        pats = [tuple(p) for p in res["patterns"]]
        _require(res["points"] == list(points), "points")
        _require(res["count"] == len(pats) == len(set(pats)), "count")
        _require(pats == sorted(pats), "patterns not sorted")
        _require(all(0 <= v < q for p in pats for v in p), "label outside alphabet")
        _require(base <= set(pats), "behaviors miss a base behavior")
        ctx["behaviors"] = pats
    return check


def _erm_check(sample):
    points = sorted({x for x, _ in sample})

    def check(rep, ctx):
        res = rep["result"]
        sup = {int(x): v for x, v in res["hypothesis"]["support"].items()}
        wrong = sum(1 for x, y in sample if sup.get(x, 0) != y)
        risk = Fraction(res["empirical_risk"]["num"], res["empirical_risk"]["den"])
        _require(risk == Fraction(wrong, len(sample)), "risk of the hypothesis")
        pats = ctx.get("behaviors")
        _require(pats is not None, "behaviors op did not run first")
        _require(tuple(sup.get(x, 0) for x in points) in set(pats),
                 "hypothesis outside the augmented behaviors")
        pos = {x: i for i, x in enumerate(points)}
        best = min(sum(1 for x, y in sample if p[pos[x]] != y) for p in pats)
        _require(risk == Fraction(best, len(sample)), "risk is not the minimum")
    return check


def _mixture(bits_index, g1, g2):
    """Index set and labeling of mixture number ``bits_index`` in the
    adversary's characteristic-vector order (first coordinate most
    significant)."""
    n = len(g1)
    idx = frozenset(i for i in range(n) if (bits_index >> (n - 1 - i)) & 1)
    return idx, tuple(g1[i] if i in idx else g2[i] for i in range(n))


def _memorize_risk(points, f, default):
    m = len(points) // 2
    total = Fraction(0)
    for seq in itertools.product(range(len(points)), repeat=m):
        seen = set(seq)
        wrong = sum(1 for i in range(len(points))
                    if (f[i] if i in seen else default) != f[i])
        total += Fraction(wrong, len(points))
    return total / len(points) ** m


def _nfl_check(points, g1, g2, memorize_default=None):
    def check(rep, ctx):
        res = rep["result"]
        e = res["mixtures_examined"]
        _require(1 <= e <= 2 ** len(points), "mixtures_examined")
        idx, f = _mixture(e - 1, g1, g2)
        _require(res["f"] == list(f), "f is not the examined mixture")
        _require(set(res["index_set"]) == set(idx), "index set")
        risk = Fraction(res["expected_risk"]["num"], res["expected_risk"]["den"])
        _require(risk >= Fraction(1, 4), "adversary risk below 1/4")
        tail = Fraction(res["tail_probability"]["num"], res["tail_probability"]["den"])
        _require(0 <= tail <= 1, "tail probability")
        if memorize_default is not None:
            _require(risk == _memorize_risk(points, f, memorize_default),
                     "expected risk differs from the closed computation")
    return check


def _distinct_pair(rng, n, q, avoid=None):
    g1, g2 = [], []
    for _ in range(n):
        a = rng.randrange(q)
        b = rng.choice([v for v in range(q) if v != a and v != avoid])
        g1.append(a)
        g2.append(b)
    return g1, g2


def _csv(vals):
    return ",".join(str(v) for v in vals)


def learn_deck(seed: int):
    """Each round: one seeded base over the naturals with supports inside
    [0, 3], q=3 with Natarajan dimension 2 or q=4 with dimension 1
    (rejection-sampled; the canonical witness of that order exists), then
    embed behaviors and embed erm on the same points in [0, 4], the nfl
    adversary against the embed learner at m=2, and against a memorizing
    learner at m=3 (even rounds) or m=4 (odd rounds)."""
    rng = random.Random(f"learn:{seed}")
    rounds = []
    for r in range(25):
        q, count, order = (3, 6, 2) if r % 2 == 0 else (4, 5, 1)
        while True:
            sups = _sparse(rng, 3, q, count, max_support=2)
            if _dimension_is(sorted(_project(sups, range(4))), "natarajan", order):
                break
        name = f"b{r}.json"
        points = sorted(rng.sample(range(4), 2) + [4])
        sample = [(x, rng.randrange(q)) for x in points]
        nfl_pts = list(range(4))
        g1, g2 = _distinct_pair(rng, 4, q)
        m = 3 if r % 2 == 0 else 4
        default = rng.randrange(q)
        mem_pts = sorted(rng.sample(range(2 * m + 2), 2 * m))
        # At m=4 the second labeling avoids the default everywhere, so the
        # first mixture already wins and the op stays near 100 ms.  The CLI
        # takes the alphabet from the labelings, so they must reach the
        # default label.
        while True:
            h1, h2 = _distinct_pair(rng, 2 * m, q, avoid=default if m == 4 else None)
            if max(h1 + h2) >= default:
                break
        ops = [
            Op(f"r{r}.behaviors", ["embed", "behaviors", "--class", name, "--witness",
                                   f"natarajan:{order}", "--points", _csv(points)],
               0, _behaviors_check(sups, points, q)),
            Op(f"r{r}.erm", ["embed", "erm", "--class", name, "--witness",
                             f"natarajan:{order}", "--sample",
                             ",".join(f"{x}:{y}" for x, y in sample)],
               0, _erm_check(sample)),
            Op(f"r{r}.nfl_embed", ["nfl", "--learner", f"embed:{name}:{order}",
                                   "--points", _csv(nfl_pts), "--g1", _csv(g1),
                                   "--g2", _csv(g2)],
               0, _nfl_check(nfl_pts, g1, g2)),
            Op(f"r{r}.nfl_memorize", ["nfl", "--learner", f"memorize:{default}",
                                      "--points", _csv(mem_pts), "--g1", _csv(h1),
                                      "--g2", _csv(h2)],
               0, _nfl_check(mem_pts, h1, h2, memorize_default=default)),
        ]
        rounds.append(Round(ops, {name: _dump(_support_doc(q, sups))}))
    _finish(rounds, {})
    return Deck("learn", rounds, warmup=[rounds[0].ops[2]]), {}


# ----------------------------------------------------------------------
# refute: refute-ds on the six-cycle and on seeded grid classes
# ----------------------------------------------------------------------

def _refute_check(q, verdict):
    def check(rep, ctx):
        res = rep["result"]
        _require(res["pairs_examined"] == 9 ** q,
                 f"pairs_examined {res['pairs_examined']} != 9^{q}")
        _require(res["verdict"] == verdict, f"verdict {res['verdict']} != {verdict}")
        _require(res["shattering_pairs"] == len(res["entries"]), "entry count")
    return check


def refute_deck(seed: int):
    """Round 0 is the six-cycle (verdict "refuted").  The
    other rounds hold two-point classes with q=4 or 5 that contain a 2x2
    grid {a,b}x{c,d}.  The encoder pair that maps a,b and c,d to 0/1 and
    every other label to * sees only the grid, whose one 4-subset has DS
    dimension 2, so that pair has no counterexample subclass: the verdict
    is "not_refuted" (exit 1) by construction."""
    rng = random.Random(f"refute:{seed}")
    shared = {"six.json": _dump({"gallery": "six_cycle"})}
    rounds = [Round([Op("six_cycle", ["refute-ds", "--class", "six.json"], 0,
                        _refute_check(6, "refuted"))])]
    for r in range(1, 21):
        ops, files = [], {}
        for j, q in enumerate((4, 4, 4, 4, 5)):
            npat = 6 if q == 4 else 5
            a, b = rng.sample(range(q), 2)
            c, d = rng.sample(range(q), 2)
            pats = {(a, c), (a, d), (b, c), (b, d)}
            while len(pats) < npat:
                pats.add((rng.randrange(q), rng.randrange(q)))
            name = f"g{r}_{j}.json"
            files[name] = _dump(_table_doc(q, sorted(pats)))
            ops.append(Op(f"r{r}.{j}", ["refute-ds", "--class", name], 1,
                          _refute_check(q, "not_refuted")))
        rounds.append(Round(ops, files))
    _finish(rounds, shared)
    return Deck("refute", rounds, warmup=[rounds[1].ops[0]]), shared


BUILDERS = {"dims": dims_deck, "witness": witness_deck, "learn": learn_deck,
            "refute": refute_deck}


def build(workload: str, seed: int):
    """(deck, shared files) for a workload; raises KeyError if unknown."""
    return BUILDERS[workload](seed)


def run_check(op: Op, code: int, out: str, ctx: dict) -> Optional[str]:
    """None if the op's exit code and report are as expected, else why not."""
    if code != op.expect_code:
        return f"exit code {code}, expected {op.expect_code}"
    try:
        op.check(_report(out), ctx)
    except CheckFailed as err:
        return str(err)
    except (KeyError, TypeError, ValueError, IndexError) as err:
        return f"malformed report: {type(err).__name__}: {err}"
    return None
