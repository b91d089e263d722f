import random

import pytest

import dimkit as dk
from corpus import random_table_class


def three_hyp():
    return dk.class_from_tables([(0, 1), (1, 0), (2, 2)], num_labels=3)


# -------------------------------------------------------- canonical witness

def test_canonical_natarajan_returns_first_missing_mixture():
    w = dk.canonical_witness(three_hyp(), "natarajan", 1)
    # mixtures of ((0,0),(1,1)) sorted by induced labeling: (0,0) is missing
    assert w.evaluate((0, 1), (0, 0), (1, 1)) == frozenset({0, 1})


def test_canonical_witness_raises_on_shattered_input():
    w = dk.canonical_witness(dk.full_class(2, 3), "natarajan", 1)
    with pytest.raises(dk.ShatteredError) as err:
        w.evaluate((0, 1), (0, 0), (1, 1))
    assert err.value.witness_input[0] == (0, 1)


def test_canonical_psi_witness_on_six_cycle():
    entry = dk.six_cycle_class()
    fam = dk.natarajan_family(6)
    w = dk.canonical_witness(entry.cls, "psi", 1, psi=fam)
    import itertools

    from dimkit.psi import apply_encoders

    for psibar in itertools.product(fam.members[:4], repeat=2):
        pattern = w.evaluate((0, 1), psibar)
        images = {
            apply_encoders(psibar, p)
            for p in dk.restrict(entry.cls, (0, 1)).patterns
        }
        assert tuple(pattern) not in images


def test_witness_canonicalizes_point_order():
    w = dk.canonical_witness(three_hyp(), "natarajan", 1)
    a = w.evaluate((0, 1), (0, 0), (1, 1))
    b = w.evaluate((1, 0), (0, 0), (1, 1))
    assert a == b


def test_witness_rejects_duplicate_points_and_equal_labelings():
    w = dk.canonical_witness(three_hyp(), "natarajan", 1)
    with pytest.raises(dk.PreconditionError):
        w.evaluate((0, 0), (0, 0), (1, 1))
    with pytest.raises(dk.PreconditionError):
        w.evaluate((0, 1), (0, 0), (0, 1))


# --------------------------------------------------------------- validation

def test_canonical_order1_witness_validates_exhaustively():
    cls = three_hyp()
    w = dk.canonical_witness(cls, "natarajan", 1)
    report = dk.validate_witness(w, cls, 1)
    assert report.valid and report.checked_inputs == 36


def test_constant_witness_fails_on_full_class():
    bogus = dk.Witness(
        flavor="natarajan", order=1, evaluator=lambda pts, g1, g2: frozenset()
    )
    report = dk.validate_witness(bogus, dk.full_class(2, 3), 1)
    assert not report.valid
    assert report.violations[0].reason == "excluded_pattern_realized"


def test_validate_surfaces_shattered_inputs():
    w = dk.canonical_witness(dk.full_class(2, 2), "natarajan", 1)
    report = dk.validate_witness(w, dk.full_class(2, 2), 1)
    assert not report.valid
    assert any(v.reason == "shattered" for v in report.violations)


def test_validate_rejects_negative_window():
    cls = three_hyp()
    w = dk.canonical_witness(cls, "natarajan", 1)
    with pytest.raises(dk.PreconditionError):
        dk.validate_witness(w, cls, -1)


def test_graph_witness_validates():
    cls = three_hyp()
    w = dk.canonical_witness(cls, "graph", 1)
    assert dk.validate_witness(w, cls, 1).valid


def test_smallest_validating_order_matches_dimension():
    rng = random.Random(314)
    fams = {}
    for _ in range(12):
        cls = random_table_class(rng, rng.randint(1, 3), rng.choice((2, 3)), 8)
        window = cls.domain_size - 1
        q = cls.num_labels
        for flavor, kind in (("natarajan", "natarajan"), ("graph", "graph"), ("psi", "psi")):
            fam = fams.setdefault(q, dk.natarajan_family(q)) if flavor == "psi" else None
            dim = dk.exact_dimension(cls, kind, psi=fam).value
            w = dk.canonical_witness(cls, flavor, dim, psi=fam)
            assert dk.validate_witness(w, cls, window).valid
            if dim >= 1:
                tight = dk.canonical_witness(cls, flavor, dim - 1, psi=fam)
                report = dk.validate_witness(tight, cls, window)
                assert not report.valid
                assert any(v.reason == "shattered" for v in report.violations)


# ------------------------------------------------------------ from learner

def test_witness_from_learner_constant_zero():
    learner = dk.constant_learner(0, num_labels=3, window=1)
    w = dk.witness_from_learner(learner, 1)
    assert w.order == 1
    got = w.evaluate((0, 1), (1, 1), (2, 2))
    assert got == frozenset()  # adversary picks the first mixture, all-g2


def test_witness_from_learner_outputs_stay_in_range():
    learner = dk.memorizing_learner(0, num_labels=3, window=3)
    w = dk.witness_from_learner(learner, 2)
    got = w.evaluate((0, 1, 2, 3), (1, 1, 1, 1), (2, 2, 2, 2))
    assert got <= frozenset(range(4))


def test_witness_from_learner_erm_avoids_the_class():
    cls = dk.class_from_tables([(1, 1)], num_labels=3)
    erm = dk.erm_learner(cls)
    w = dk.witness_from_learner(erm, 1, h_check=cls)
    assert w.evaluate((0, 1), (1, 1), (2, 2)) != frozenset({0, 1})


def test_witness_from_learner_flags_exclusion_failures():
    from dimkit.witnesses import ExclusionFailure

    # constant-0 cannot learn the full class, and the check class realizes
    # every mixture, so the evaluator must report the failure
    learner = dk.constant_learner(0, num_labels=2, window=1)
    w = dk.witness_from_learner(learner, 1, h_check=dk.full_class(2, 2))
    with pytest.raises(ExclusionFailure):
        w.evaluate((0, 1), (1, 1), (0, 0))


# ------------------------------------------------------------ the counting

def test_sauer_crossover_values():
    assert dk.sauer_crossover(1, 3) == 14
    assert dk.sauer_crossover(0, 2) == 5


def test_sauer_crossover_brute_force_and_monotone():
    def naive(order, q):
        e = order + 1
        for k in range(1, 64):
            if k ** e * q ** (2 * e) < 2 ** k:
                return k
        raise AssertionError("crossover not found")

    for order in range(0, 3):
        for q in (2, 3, 4):
            assert dk.sauer_crossover(order, q) == naive(order, q)
    for q in (2, 3, 4):
        for order in range(0, 4):
            assert dk.sauer_crossover(order + 1, q) >= dk.sauer_crossover(order, q)


def test_psi_witness_from_natarajan_singleton():
    cls = dk.class_from_supports([{}], num_labels=2)
    w0 = dk.canonical_witness(cls, "natarajan", 0)
    fam = dk.graph_family(2)
    pw = dk.psi_witness_from_natarajan(w0, fam, cls)
    assert pw.order == dk.sauer_crossover(0, 2) - 1 == 4
    psibar = (fam.members[0],) * 5
    pattern = pw.evaluate((0, 1, 2, 3, 4), psibar)
    from dimkit.psi import apply_encoders

    images = {
        apply_encoders(psibar, p)
        for p in dk.restrict(cls, (0, 1, 2, 3, 4)).patterns
    }
    assert tuple(pattern) not in images
    assert dk.validate_witness(pw, cls, 4).valid


def test_psi_witness_flavor_guard():
    cls = dk.class_from_supports([{}], num_labels=2)
    w = dk.canonical_witness(cls, "graph", 0)
    with pytest.raises(dk.PreconditionError):
        dk.psi_witness_from_natarajan(w, dk.graph_family(2), cls)


# ------------------------------------------- fast validation vs reference

def _witness_cases():
    """(label, witness factory, class, window): each factory builds a fresh
    witness, so the two validations share no evaluator caches."""
    rng = random.Random(2718)
    cases = []
    fams = {}
    for t in range(6):
        cls = random_table_class(rng, rng.choice((3, 4)), rng.choice((2, 3)), 10)
        q = cls.num_labels
        window = cls.domain_size - 1
        for flavor, kind, fam in (
            ("natarajan", "natarajan", None),
            ("graph", "graph", None),
            ("psi", "psi", fams.setdefault(("N", q), dk.natarajan_family(q))),
            ("psi", "psi", fams.setdefault(("G", q), dk.graph_family(q))),
        ):
            dim = dk.exact_dimension(cls, kind, psi=fam).value
            for order in {max(dim - 1, 0), dim}:
                cases.append((
                    f"{t}.{flavor}.{order}",
                    lambda cls=cls, flavor=flavor, order=order, fam=fam:
                        dk.canonical_witness(cls, flavor, order, psi=fam),
                    cls, window))
    for m in (2, 3):
        entry = dk.gap_class(m)
        cases.append((f"gap{m}", lambda entry=entry: entry.witness, entry.cls, m - 1))
    for t in range(2):
        cls = random_table_class(rng, 3, 3, 8)
        learners = {
            "erm": lambda cls=cls: dk.erm_learner(cls),
            "memorize": lambda: dk.memorizing_learner(1, num_labels=3, window=2),
            "const": lambda: dk.constant_learner(2, num_labels=3, window=2),
        }
        for name, make in learners.items():
            for check in (None, cls):
                cases.append((
                    f"learner{t}.{name}.{check is not None}",
                    lambda make=make, check=check: dk.witness_from_learner(make(), 1, h_check=check),
                    cls, 2))

    def user_evaluator(points, g1, g2):
        # odd first point: keep g1 on the first coordinate, else on none
        return frozenset({0}) if points[0] % 2 else frozenset()

    cls = random_table_class(rng, 4, 3, 12)
    cases.append(("user", lambda: dk.Witness(flavor="natarajan", order=1,
                                             evaluator=user_evaluator), cls, 3))
    # wrong answers, so that graph and psi inputs report realized patterns
    # (several behaviors can match one graph input; the first is reported)
    fam = dk.graph_family(3)
    for order in (0, 1, 2):
        cases.append((f"user.graph.none.{order}", lambda order=order: dk.Witness(
            flavor="graph", order=order, evaluator=lambda pts, f: frozenset()), cls, 3))
        cases.append((f"user.graph.zeros.{order}", lambda order=order: dk.Witness(
            flavor="graph", order=order,
            evaluator=lambda pts, f: {i for i, v in enumerate(f) if v == 0}), cls, 3))
        cases.append((f"user.psi.{order}", lambda order=order: dk.Witness(
            flavor="psi", order=order, psi=fam,
            evaluator=lambda pts, psibar: [psi.table[1] for psi in psibar]), cls, 3))
    return cases


@pytest.mark.parametrize("case", _witness_cases(), ids=lambda c: c[0])
def test_validation_matches_reference_loop(case):
    from oracles import validate_witness_reference

    _, make, cls, window = case
    fast = dk.validate_witness(make(), cls, window)
    slow = validate_witness_reference(make(), cls, window)
    assert fast.checked_inputs == slow.checked_inputs
    assert [(v.points, v.payload, v.reason, v.detail) for v in fast.violations] == \
        [(v.points, v.payload, v.reason, v.detail) for v in slow.violations]
    assert fast == slow


def test_reference_cases_cover_every_verdict():
    seen = set()
    for _, make, cls, window in _witness_cases():
        w = make()
        report = dk.validate_witness(w, cls, window)
        seen.add((w.flavor, report.valid))
        seen.update((w.flavor, v.reason) for v in report.violations)
    for flavor in ("natarajan", "graph", "psi"):
        assert {(flavor, True), (flavor, "excluded_pattern_realized")} <= seen
    assert {("natarajan", "shattered"), ("graph", "shattered"), ("psi", "shattered"),
            ("natarajan", "exclusion_failure")} <= seen


def test_natarajan_candidates_follow_sorted_mixtures():
    import itertools

    from oracles import first_missing_mixture

    rng = random.Random(1618)
    for _ in range(8):
        cls = random_table_class(rng, 3, rng.choice((2, 3, 4)), 20)
        q = cls.num_labels
        for order in (0, 1, 2):
            w = dk.canonical_witness(cls, "natarajan", order)
            for points in itertools.combinations(range(3), order + 1):
                pats = dk.restrict(cls, points).pattern_set
                for g1, g2 in dk.core.distinct_pairs(order + 1, q):
                    expected = first_missing_mixture(pats, g1, g2)
                    if expected is None:
                        with pytest.raises(dk.ShatteredError):
                            w.evaluate(points, g1, g2)
                    else:
                        assert w.evaluate(points, g1, g2) == expected


# ------------------------------------------------- malformed witness output

def test_graph_index_outside_arity_is_rejected():
    w = dk.Witness(flavor="graph", order=1,
                   evaluator=lambda pts, f: frozenset({7}))
    with pytest.raises(dk.PreconditionError):
        dk.validate_witness(w, dk.full_class(2, 3), 1)


def test_psi_pattern_with_non_binary_entries_is_rejected():
    w = dk.Witness(flavor="psi", order=1, psi=dk.graph_family(3),
                   evaluator=lambda pts, psibar: (5, 5))
    with pytest.raises(dk.PreconditionError):
        dk.validate_witness(w, dk.full_class(2, 3), 1)


def test_short_psi_pattern_is_rejected():
    w = dk.Witness(flavor="psi", order=1, psi=dk.graph_family(3),
                   evaluator=lambda pts, psibar: (0,))
    with pytest.raises(dk.PreconditionError):
        dk.validate_witness(w, dk.full_class(2, 3), 1)
    with pytest.raises(dk.PreconditionError):
        w.evaluate((1, 0), (dk.graph_family(3).members[0],) * 2)


def test_good_patterns_reject_malformed_witness_output():
    # the good-pattern enumeration goes through the same output check
    short = dk.Witness(flavor="psi", order=1, psi=dk.graph_family(2),
                       evaluator=lambda pts, psibar: (0,))
    with pytest.raises(dk.PreconditionError):
        dk.good_patterns(dk.GoodFunctionSpec(witness=short, num_labels=2), (0, 1))
    wide = dk.Witness(flavor="natarajan", order=1,
                      evaluator=lambda pts, g1, g2: frozenset({2}))
    with pytest.raises(dk.PreconditionError):
        dk.good_patterns(dk.GoodFunctionSpec(witness=wide, num_labels=2), (0, 1))


def test_well_formed_outputs_are_normalized():
    w = dk.Witness(flavor="natarajan", order=1,
                   evaluator=lambda pts, g1, g2: [1, 1])
    assert w.evaluate((0, 1), (0, 0), (1, 1)) == frozenset({1})
    p = dk.Witness(flavor="psi", order=1, psi=dk.graph_family(2),
                   evaluator=lambda pts, psibar: [1, 0])
    assert p.evaluate((0, 1), dk.graph_family(2).members[:2]) == (1, 0)
