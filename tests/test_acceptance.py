"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every threshold is an exact rational comparison; time limits are
asserted with monotonic clocks.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import dimkit as dk
from corpus import random_support_class, random_table_class


def _report(name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def test_criterion_01_binary_coincidence():
    started = time.monotonic()
    rng = random.Random(101)
    ok = True
    for _ in range(200):
        cls = random_table_class(rng, rng.randint(1, 4), 2, 16)
        dims = {
            kind: dk.exact_dimension(cls, kind).value
            for kind in ("vc", "natarajan", "graph", "ds")
        }
        ok = ok and len(set(dims.values())) == 1
    elapsed = time.monotonic() - started
    _report(f"1 binary coincidence over 200 classes ({elapsed:.1f}s)",
            ok and elapsed < 10)


def _criterion2_corpus():
    rng = random.Random(202)
    return [
        random_table_class(rng, rng.randint(1, 4), rng.choice((2, 3, 4)), 20)
        for _ in range(200)
    ]


def test_criterion_02_order_and_psi_instantiation():
    started = time.monotonic()
    families = {q: (dk.natarajan_family(q), dk.graph_family(q)) for q in (2, 3, 4)}
    ok = True
    for cls in _criterion2_corpus():
        fam_n, fam_g = families[cls.num_labels]
        n = dk.exact_dimension(cls, "natarajan").value
        g = dk.exact_dimension(cls, "graph").value
        ds = dk.exact_dimension(cls, "ds").value
        ok = ok and n <= g and n <= ds
        ok = ok and dk.exact_dimension(cls, "psi", psi=fam_n).value == n
        ok = ok and dk.exact_dimension(cls, "psi", psi=fam_g).value == g
    elapsed = time.monotonic() - started
    _report(f"2 dimension order and psi instantiation ({elapsed:.1f}s)",
            ok and elapsed < 60)


def test_criterion_03_sauer_bound_holds_everywhere():
    violations = 0
    for cls in _criterion2_corpus():
        d = dk.exact_dimension(cls, "natarajan").value
        domain = range(cls.domain_size)
        for r in range(1, cls.domain_size + 1):
            for points in itertools.combinations(domain, r):
                if not dk.sauer_natarajan_check(cls, points, d).holds:
                    violations += 1
    _report(f"3 growth bound, {violations} violations", violations == 0)


def test_criterion_04_gap_family():
    started = time.monotonic()
    ok = True
    for m in (1, 2, 3, 4):
        entry = dk.gap_class(m)
        ok = ok and dk.exact_dimension(entry.cls, "natarajan").value == 1
        ok = ok and dk.exact_dimension(entry.cls, "graph").value == m
        ok = ok and dk.validate_witness(entry.witness, entry.cls, m - 1).valid
    elapsed = time.monotonic() - started
    _report(f"4 gap family dims and witness ({elapsed:.1f}s)",
            ok and elapsed < 30)


def test_criterion_05_nfl_exact_constants():
    quarter, seventh = Fraction(1, 4), Fraction(1, 7)
    base = dk.class_from_supports([{0: 1}, {1: 1}], num_labels=3)
    spec = dk.GoodFunctionSpec(
        witness=dk.canonical_witness(base, "natarajan", 1), num_labels=3
    )
    ok = True
    elapsed_m2 = 0.0
    for m in (1, 2):
        points = tuple(range(2 * m))
        g1, g2 = (1,) * (2 * m), (2,) * (2 * m)
        erm_cls = dk.class_from_tables(
            [(1,) * (2 * m), (2,) * (2 * m), (0,) * (2 * m)], num_labels=3
        )
        learners = [
            dk.constant_learner(0, 3, 2 * m - 1),
            dk.memorizing_learner(0, 3, 2 * m - 1),
            dk.erm_learner(erm_cls),
            dk.agnostic_learner(spec),
        ]
        started = time.monotonic()
        for learner in learners:
            report = dk.nfl_adversary(learner, points, g1, g2)
            ok = ok and report.expected_risk >= quarter
            ok = ok and report.tail_probability >= seventh
        if m == 2:
            elapsed_m2 = time.monotonic() - started
    _report(f"5 adversary constants, m=2 in {elapsed_m2:.1f}s",
            ok and elapsed_m2 < 20)


def _erm_learns_all_two_point_targets(cls, window):
    """Exhaustive check that ERM, from a single labeled point, recovers every
    realizable two-point target exactly (the 2-point-scale reading of
    learning with accuracy 1/8 and confidence 1/7 at m=1)."""
    erm = dk.erm_learner(cls)
    for points in itertools.combinations(range(window + 1), 2):
        for f in dk.restrict(cls, points).patterns:
            for x, fx in zip(points, f):
                h = erm(((x, fx),))
                if h.values_on(points) != f:
                    return False
    return True


def test_criterion_06_learner_to_witness():
    rng = random.Random(606)
    window, q = 3, 3
    corpus = []
    while len(corpus) < 50:
        if rng.random() < 0.5:
            values = rng.sample(range(q), rng.randint(1, q))
            cls = dk.class_from_tables(
                [(v,) * (window + 1) for v in values], num_labels=q
            )
        else:
            cls = random_table_class(rng, window + 1, q, 4)
        if _erm_learns_all_two_point_targets(cls, window):
            corpus.append(cls)
    violations = 0
    for cls in corpus:
        witness = dk.witness_from_learner(dk.erm_learner(cls), 1, h_check=cls)
        violations += len(dk.validate_witness(witness, cls, window).violations)
    _report(f"6 learner-to-witness over 50 classes, {violations} violations",
            violations == 0)


def test_criterion_07_counting_construction():
    brute = next(
        k for k in range(1, 21) if k ** 2 * 3 ** 4 < 2 ** k
    )
    ok = dk.sauer_crossover(1, 3) == 14 == brute

    # singleton base, q=2: the order-4 witness is exhaustively checkable
    singleton = dk.class_from_supports([{}], num_labels=2)
    w0 = dk.canonical_witness(singleton, "natarajan", 0)
    pw = dk.psi_witness_from_natarajan(w0, dk.graph_family(2), singleton)
    ok = ok and pw.order == 4
    for window in (4, 5):
        report = dk.validate_witness(pw, singleton, window)
        ok = ok and report.valid and report.checked_inputs > 0

    # 3-hypothesis base, q=3: order 13, so windows up to 5 hold no inputs;
    # exhaustive validation there is vacuous and the construction is instead
    # exercised on the smallest full-arity window with a deterministic
    # selection of encoder tuples, re-checking the exclusion directly.
    three = dk.class_from_supports([{1: 1}, {0: 1}, {0: 2, 1: 2}], num_labels=3)
    w1 = dk.canonical_witness(three, "natarajan", 1)
    fam = dk.graph_family(3)
    pw3 = dk.psi_witness_from_natarajan(w1, fam, three)
    ok = ok and pw3.order == 13
    report = dk.validate_witness(pw3, three, 5)
    ok = ok and report.valid and report.checked_inputs == 0
    from dimkit.psi import apply_encoders

    points = tuple(range(14))
    class_patterns = dk.restrict(three, points).patterns
    psibars = [(member,) * 14 for member in fam.members]
    for position in (0, 6, 13):
        mixed = [fam.members[0]] * 14
        mixed[position] = fam.members[2]
        psibars.append(tuple(mixed))
    for psibar in psibars:
        out = tuple(pw3.evaluate(points, psibar))
        images = {apply_encoders(psibar, p) for p in class_patterns}
        ok = ok and out not in images

    # instantiated inequality: exact integer form at the witness order, and
    # the stated form under integer rounding
    for k_n in range(0, 3):
        for q in (2, 3, 4):
            k_b = dk.sauer_crossover(k_n, q)
            e = k_n + 1
            ok = ok and (k_b - 1) ** e * q ** (2 * e) >= 2 ** (k_b - 1)
            ratio = k_b / (math.log2(k_b) + 2 * math.log2(q))
            ok = ok and math.floor(ratio) <= k_n + 1
    _report("7 counting construction and crossover inequality", ok)


def test_criterion_08_embedding():
    started = time.monotonic()
    rng = random.Random(808)
    ok = True
    sample_checks = 0
    for _ in range(30):
        q = rng.choice((2, 3))
        base = random_support_class(rng, 2, q, 12)
        k = dk.exact_dimension(base, "natarajan").value
        witness = dk.canonical_witness(base, "natarajan", k)
        spec = dk.GoodFunctionSpec(witness=witness, num_labels=q)
        subsets = [
            pts
            for r in (1, 2, 3)
            for pts in itertools.combinations(range(5), r)
        ]
        for points in subsets:
            v = dk.good_patterns(spec, points)
            ok = ok and dk.restrict(base, points).pattern_set <= v.pattern_set
            ok = ok and len(v) <= len(points) ** (k + 1) * q ** (2 * (k + 1))
        window = tuple(range(6))
        augmented = dk.class_from_tables(
            dk.good_patterns(spec, window).patterns, num_labels=q
        )
        ok = ok and dk.exact_dimension(augmented, "natarajan").value <= k + 1
        for _ in range(4):
            sample = tuple(
                (rng.randint(0, 4), rng.randint(0, q - 1))
                for _ in range(rng.randint(1, 6))
            )
            h, risk = dk.erm_augmented(spec, sample)
            points = tuple(sorted({x for x, _ in sample}))
            v = dk.good_patterns(spec, points)
            best = min(
                Fraction(
                    sum(1 for x, y in sample if p[points.index(x)] != y),
                    len(sample),
                )
                for p in v.patterns
            )
            ok = ok and risk == best == dk.empirical_risk(h, sample)
            sample_checks += 1
    elapsed = time.monotonic() - started
    _report(
        f"8 embedding checks over 30 bases, {sample_checks} samples ({elapsed:.1f}s)",
        ok and sample_checks >= 100 and elapsed < 120,
    )


def test_criterion_09_end_to_end_learning():
    started = time.monotonic()
    base = dk.class_from_supports([{1: 1}, {0: 1}, {0: 2, 1: 2}], num_labels=3)
    witness = dk.canonical_witness(base, "natarajan", 1)
    spec = dk.GoodFunctionSpec(witness=witness, num_labels=3)
    learner = dk.agnostic_learner(spec)

    atoms = (
        ((0, 1), Fraction(3, 10)),
        ((0, 2), Fraction(1, 5)),
        ((1, 0), Fraction(3, 10)),
        ((1, 2), Fraction(1, 5)),
    )
    dist = dk.FiniteDistribution(atoms=atoms)
    best = min(dk.true_risk(h, dist) for h in base.hypotheses)
    assert best == Fraction(2, 5)

    eps, delta = Fraction(1, 4), Fraction(1, 5)
    effective = len(dk.good_patterns(spec, (0, 1)))
    m = dk.uc_sample_size(effective, eps, delta)

    rng = random.Random(909)
    pairs = [pair for pair, _ in atoms]
    weights = [int(w * 20) for _, w in atoms]
    failures = 0
    trials = 400
    for _ in range(trials):
        sample = tuple(rng.choices(pairs, weights=weights, k=m))
        out = learner(sample)
        if dk.true_risk(out, dist) > best + eps:
            failures += 1
    rate = Fraction(failures, trials)
    elapsed = time.monotonic() - started
    _report(
        f"9 end-to-end learning, m={m}, failure rate {failures}/{trials} ({elapsed:.1f}s)",
        rate <= Fraction(1, 4) and elapsed < 60,
    )


def test_criterion_10_ds_refutation():
    started = time.monotonic()
    entry = dk.six_cycle_class()
    report = dk.refute_ds_expressibility(entry.cls)
    ok = report.verdict == "refuted"
    ok = ok and report.pairs_examined == 3 ** 6 * 3 ** 6 == 531441

    ds_cache = {}
    reverified = True
    for e in report.entries:
        img1 = [e.psi1.table[p[0]] for p in dk.restrict(entry.cls, (0, 1)).patterns]
        for sub in e.subclasses:
            if sub not in ds_cache:
                cls = dk.class_from_tables(sub, num_labels=6)
                ds_cache[sub] = dk.exact_dimension(cls, "ds").value
            reverified = reverified and ds_cache[sub] == 1
            codes = set()
            for p in sub:
                v1, v2 = e.psi1.table[p[0]], e.psi2.table[p[1]]
                if v1 < 2 and v2 < 2:
                    codes.add((v1, v2))
            reverified = reverified and len(codes) == 4
    named = {
        tuple(sorted(((0, 1), (2, 1), (4, 5), (0, 5)))),
        tuple(sorted(((0, 1), (0, 5), (4, 5), (4, 3)))),
    }
    distinct = report.distinct_subclasses()
    ok = ok and reverified and named <= distinct
    elapsed = time.monotonic() - started
    _report(
        f"10 DS refutation, {len(report.entries)} shattering pairs ({elapsed:.1f}s)",
        ok and elapsed < 60,
    )


def test_criterion_11_failing_family_witnesses():
    from dimkit.psi import STAR

    rng = random.Random(1111)
    violations = 0
    found = 0
    while found < 20:
        q = rng.choice((2, 3, 4))
        members = tuple(
            dk.PsiFunction(table=tuple(rng.choice((0, 1, STAR)) for _ in range(q)))
            for _ in range(rng.randint(1, 5))
        )
        family = dk.PsiFamily(members=members, num_labels=q)
        if dk.is_distinguisher(family)[0]:
            continue
        found += 1
        cls, witness = dk.failing_psi_class(family, window=4)
        report = dk.validate_witness(witness, cls, 4)
        violations += len(report.violations)
        assert witness.order == 1 and report.checked_inputs > 0
    _report(f"11 failing-family witnesses over 20 families, {violations} violations",
            violations == 0)
