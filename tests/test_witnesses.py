import gc
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dimkit as dk
from dimkit import nfl
from dimkit.psi import STAR
from dimkit.witnesses import ExclusionFailure, witness_inputs
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


def test_witness_rejects_malformed_payloads():
    # a short labeling raised IndexError, and a wrong number of payload
    # arguments a raw ValueError from unpacking
    w = dk.canonical_witness(three_hyp(), "natarajan", 1)
    for payload in (((0,), (1,)), ((0, 0), (1,)), ((0, 0, 0), (1, 1, 1)), ((0, 0),),
                    ((0, 0), (1, 1), (2, 2)), ()):
        with pytest.raises(dk.PreconditionError):
            w.evaluate((0, 1), *payload)
    g = dk.canonical_witness(three_hyp(), "graph", 1)
    for payload in (((0,),), ((0, 0), (1, 1)), ()):
        with pytest.raises(dk.PreconditionError):
            g.evaluate((0, 1), *payload)
    fam = dk.graph_family(3)
    p = dk.canonical_witness(three_hyp(), "psi", 1, psi=fam)
    with pytest.raises(dk.PreconditionError):
        p.evaluate((0, 1), fam.members[:1])
    assert len(p.evaluate((0, 1), fam.members[:2])) == 2


# --------------------------------------------------------------- validation

def test_distinct_pairs_differ_everywhere():
    w = dk.Witness(flavor="natarajan", order=1, evaluator=lambda points, g1, g2: frozenset())
    inputs = list(witness_inputs(w, 3))
    assert len(inputs) == 36 == len(set(inputs))
    for g1, g2 in inputs:
        assert len(g1) == len(g2) == 2 and all(a != b for a, b in zip(g1, g2))


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


def test_validate_lets_other_evaluator_errors_propagate():
    # only ShatteredError and ExclusionFailure are violations: any other
    # error a user evaluator raises is the caller's, and comes out unchanged
    boom = ZeroDivisionError("division by zero in a user evaluator")

    def evaluator(points, g1, g2):
        raise boom

    w = dk.Witness(flavor="natarajan", order=1, evaluator=evaluator)
    with pytest.raises(ZeroDivisionError) as err:
        dk.validate_witness(w, three_hyp(), 1)
    assert err.value is boom


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


# ------------------------------------------------------- pair symmetry

@pytest.mark.parametrize("flavor, family", [("graph", None), ("psi", dk.graph_family(2))])
def test_only_natarajan_witnesses_can_be_pair_symmetric(flavor, family):
    with pytest.raises(dk.PreconditionError, match="only a natarajan witness"):
        dk.Witness(flavor=flavor, order=0, psi=family, evaluator=lambda *args: (0,),
                   pair_symmetric=True)


def test_canonical_witness_declares_pair_symmetry_for_natarajan_only():
    cls = three_hyp()
    fam = dk.graph_family(3)
    assert dk.canonical_witness(cls, "natarajan", 1).pair_symmetric
    assert not dk.canonical_witness(cls, "graph", 1).pair_symmetric
    assert not dk.canonical_witness(cls, "psi", 1, psi=fam).pair_symmetric


def test_orientation_dependent_witnesses_stay_undeclared():
    learner = dk.constant_learner(0, num_labels=3, window=1)
    assert not dk.witness_from_learner(learner, 1).pair_symmetric
    w = dk.gap_class(2).witness
    assert not w.pair_symmetric
    # the same unordered pairs {0, 1} at both points, in two orientations,
    # exclude different mixtures
    lows, highs = (0, 0), (1, 1)
    g1, g2 = (1, 0), (0, 1)
    assert dk.mix_labelings(w.evaluate((0, 1), lows, highs), lows, highs) == (0, 1)
    assert dk.mix_labelings(w.evaluate((0, 1), g1, g2), g1, g2) == (1, 0)


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 4), st.integers(0, 2),
       st.integers(0, 2 ** 3 - 1))
def test_canonical_natarajan_exclusion_ignores_pair_orientation(seed, q, order, flips):
    """Swapping g1[i] and g2[i] at the coordinates in ``flips`` leaves the
    excluded mixture, or the ShatteredError, of the canonical witness as it
    is."""
    rng = random.Random(seed)
    cls = random_table_class(rng, 4, q, rng.choice((4, 16, 64)))
    w = dk.canonical_witness(cls, "natarajan", order)
    points = tuple(sorted(rng.sample(range(4), order + 1)))
    g1 = tuple(rng.randrange(q) for _ in points)
    g2 = tuple((a + rng.randrange(1, q)) % q for a in g1)
    h1, h2 = zip(*((b, a) if flips >> i & 1 else (a, b) for i, (a, b) in enumerate(zip(g1, g2))))
    try:
        mixture = dk.mix_labelings(w.evaluate(points, g1, g2), g1, g2)
    except dk.ShatteredError:
        with pytest.raises(dk.ShatteredError):
            w.evaluate(points, h1, h2)
    else:
        assert dk.mix_labelings(w.evaluate(points, h1, h2), h1, h2) == mixture


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
    with pytest.raises(ExclusionFailure) as err:
        w.evaluate((0, 1), (1, 1), (0, 0))
    # the first mixture the constant learner misses half of: g2 at 0, g1 at 1
    assert str(err.value) == "class realizes the hard labeling (0, 1) on (0, 1)"


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


def test_sauer_crossover_bisection_equals_the_linear_scan():
    # the scan for order d may start at the answer for d - 1: the left side
    # grows with the order, so every smaller k still fails the inequality
    for q in range(2, 6):
        k = 1
        for order in range(301):
            e = order + 1
            while k ** e * q ** (2 * e) >= 2 ** k:
                k += 1
            assert dk.sauer_crossover(order, q) == k, (order, q)


def test_sauer_crossover_refuses_an_order_over_its_budget():
    top = dk.witnesses._MAX_SAUER_ORDER
    assert dk.sauer_crossover(top, 2) > dk.sauer_crossover(top - 1, 2)
    for order in (top + 1, 10 ** 6):
        with pytest.raises(dk.PreconditionError, match=f"order {order} exceeds the budget"):
            dk.sauer_crossover(order, 3)


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

ANSWER_TYPES = {
    "set": set,
    "list": list,
    "tuple": tuple,
    "generator": lambda items: (i for i in items),
}
PSI_ANSWER_TYPES = {
    "list": list,
    "generator": lambda bits: (b for b in bits),
}


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
    # answers of every type the shape check takes, not only a frozenset (or
    # a tuple for psi), so that both paths of the check are compared, on a
    # sparse class where some answers hold and some do not
    cls = dk.class_from_tables([(0, 1, 2, 0), (1, 0, 2, 1), (2, 2, 0, 1), (0, 0, 1, 2)],
                               num_labels=3)
    for name, make in ANSWER_TYPES.items():
        cases.append((f"user.natarajan.{name}", lambda make=make: dk.Witness(
            flavor="natarajan", order=1,
            evaluator=lambda pts, g1, g2: make(i for i in range(2) if g1[i] < g2[i])), cls, 3))
        cases.append((f"user.graph.{name}", lambda make=make: dk.Witness(
            flavor="graph", order=1,
            evaluator=lambda pts, f: make(i for i in range(2) if f[0] == f[1])), cls, 3))
    for name, make in PSI_ANSWER_TYPES.items():
        cases.append((f"user.psi.{name}", lambda make=make: dk.Witness(
            flavor="psi", order=1, psi=fam,
            evaluator=lambda pts, psibar: make(psi.table[pts[0] % 3] for psi in psibar)), cls, 3))
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
    assert repr(fast) == repr(slow)  # True and 1 are equal, but serialize apart


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


def _star_family(rng, q):
    """Three or four random encoders over q labels, at least one with a star."""
    tables = list(itertools.product((0, 1, STAR), repeat=q))
    members = [dk.PsiFunction(table=t) for t in rng.sample(tables, rng.choice((3, 4)))]
    members.append(dk.PsiFunction(table=(STAR,) + (1,) * (q - 1)))
    return dk.PsiFamily(members=tuple(members), num_labels=q)


def test_natarajan_candidates_follow_sorted_mixtures():
    """Canonical answers on every input against the oracles: the first
    missing mixture in sorted order, and for the graph and psi flavors (psi_N,
    psi_G and a family with stars) the first missing code in product order.
    Natarajan labels go one past the class alphabet, so some pairs miss the
    evaluator's table of sorted pairs; point tuples are interleaved, each
    input is asked twice, and both ``Witness.evaluate`` and the evaluator
    itself answer it."""
    from oracles import first_missing_agreement, first_missing_image, first_missing_mixture

    rng = random.Random(1618)
    family_rng = random.Random(1619)
    for _ in range(8):
        cls = random_table_class(rng, 3, rng.choice((2, 3, 4)), 20)
        q = cls.num_labels
        families = (dk.natarajan_family(q), dk.graph_family(q), _star_family(family_rng, q))
        for order in (0, 1, 2):
            natarajan = dk.canonical_witness(cls, "natarajan", order)
            graph = dk.canonical_witness(cls, "graph", order)
            psis = [dk.canonical_witness(cls, "psi", order, psi=fam) for fam in families]
            cases = []
            for points in itertools.combinations(range(3), order + 1):
                pats = dk.restrict(cls, points).pattern_set
                cases += [(natarajan, points, (g1, g2), first_missing_mixture(pats, g1, g2))
                          for g1, g2 in witness_inputs(natarajan, q + 1)]
                cases += [(graph, points, (f,), first_missing_agreement(pats, f))
                          for f in itertools.product(range(q), repeat=order + 1)]
                cases += [(w, points, (psibar,), first_missing_image(pats, psibar))
                          for w in psis
                          for psibar in itertools.product(w.psi.members, repeat=order + 1)]
            rng.shuffle(cases)
            for w, points, payload, expected in cases + cases[::-1]:
                for answer in (w.evaluate, w.evaluator):
                    if expected is None:
                        with pytest.raises(dk.ShatteredError):
                            answer(points, *payload)
                    else:
                        assert answer(points, *payload) == expected


def test_counting_witness_answers_first_missing_image():
    from oracles import first_missing_image

    rng = random.Random(1620)
    for q, support in ((2, {1: 1}), (3, {0: 2, 3: 1})):
        cls = dk.class_from_supports([support], num_labels=q)
        w0 = dk.canonical_witness(cls, "natarajan", 0)
        spec = dk.GoodFunctionSpec(witness=w0, num_labels=q)
        for fam in (dk.natarajan_family(q), dk.graph_family(q), _star_family(rng, q)):
            pw = dk.psi_witness_from_natarajan(w0, fam, cls)
            for _ in range(3):
                points = tuple(sorted(rng.sample(range(pw.arity + 2), pw.arity)))
                pats = dk.good_patterns(spec, points).pattern_set
                for _ in range(40):
                    psibar = tuple(rng.choice(fam.members) for _ in points)
                    assert pw.evaluate(points, psibar) == first_missing_image(pats, psibar)


def test_validate_rejects_family_alphabet_mismatch():
    w = dk.Witness(flavor="psi", order=1, psi=dk.graph_family(2),
                   evaluator=lambda pts, psibar: (0, 0))
    with pytest.raises(dk.RepresentationError):
        dk.validate_witness(w, dk.full_class(2, 3), 1)


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


def _answers_on(points, malformed, flavor):
    """Order-1 witness over two labels answering well-formed everywhere but
    on ``points``, where it answers ``malformed()``."""
    ok = (0, 0) if flavor == "psi" else frozenset()

    def evaluator(pts, *payload):
        return malformed() if pts == points else ok
    return dk.Witness(flavor=flavor, order=1, evaluator=evaluator,
                      psi=dk.graph_family(2) if flavor == "psi" else None)


def _malformed_message(flavor, shown, points):
    expected = ("a 0/1 pattern of length 2" if flavor == "psi"
                else "an index set inside 0..1")
    return f"{flavor} witness answered {shown} on points {points}; expected {expected}"


MALFORMED = [
    *(pytest.param(flavor, make, "frozenset({7})", id=f"{flavor}-{name}")
      for flavor in ("natarajan", "graph")
      for name, make in (("frozenset", lambda: frozenset({7})), ("set", lambda: {7}),
                         ("list", lambda: [7, 7]), ("tuple", lambda: (7,)),
                         ("generator", lambda: (i for i in (7,))))),
    pytest.param("natarajan", lambda: 7, "7", id="natarajan-int"),
    *(pytest.param("psi", make, shown, id=f"psi-{name}")
      for name, make, shown in (
          ("short", lambda: (0,), "(0,)"),
          ("short-list", lambda: [0], "(0,)"),
          ("long", lambda: (0, 1, 0), "(0, 1, 0)"),
          ("non-binary", lambda: (5, 5), "(5, 5)"),
          ("non-binary-generator", lambda: (b for b in (0, 2)), "(0, 2)"),
          ("bool-and-two", lambda: (True, 2), "(True, 2)"),
          ("unhashable", lambda: ([1], 0), "([1], 0)"),
          ("int", lambda: 3, "3"))),
]


# answers that hold bools: True equals 1, but is not an index or a bit
BOOLS = [
    *(pytest.param(flavor, lambda: frozenset({False, True}), "frozenset({False, True})",
                   id=f"{flavor}-bools") for flavor in ("natarajan", "graph")),
    pytest.param("natarajan", lambda: [0, True], "frozenset({0, True})", id="natarajan-int-and-bool"),
    pytest.param("psi", lambda: (True, False), "(True, False)", id="psi-bools"),
    pytest.param("psi", lambda: [0, True], "(0, True)", id="psi-int-and-bool"),
]


@pytest.mark.parametrize("flavor, malformed, shown", MALFORMED + BOOLS)
def test_malformed_answers_raise_one_message_everywhere(flavor, malformed, shown):
    """A malformed answer raises the same PreconditionError through
    validation (on the last point tuple, after well-formed answers), the
    public evaluate and the good-pattern enumeration (which asks about
    (0, 1) first)."""
    w = _answers_on((1, 2), malformed, flavor)
    with pytest.raises(dk.PreconditionError) as err:
        dk.validate_witness(w, dk.full_class(3, 2), 2)
    assert str(err.value) == _malformed_message(flavor, shown, (1, 2))
    payload = ((dk.graph_family(2).members[1],) * 2,) if flavor == "psi" else (
        ((0, 1), (1, 0)) if flavor == "natarajan" else ((0, 1),))
    with pytest.raises(dk.PreconditionError) as err:
        w.evaluate((2, 1), *payload)
    assert str(err.value) == _malformed_message(flavor, shown, (1, 2))
    if flavor != "graph":
        spec = dk.GoodFunctionSpec(witness=_answers_on((0, 1), malformed, flavor), num_labels=2)
        with pytest.raises(dk.PreconditionError) as err:
            dk.good_patterns(spec, (0, 1, 2))
        assert str(err.value) == _malformed_message(flavor, shown, (0, 1))


@pytest.mark.parametrize("flavor, malformed, shown",
                         [p for p in MALFORMED if p.values[0] != "graph"])
def test_malformed_answer_after_well_formed_ones_in_good_patterns(flavor, malformed, shown):
    """The good-pattern exclusion meets the malformed answer on (1, 2), after
    well-formed answers on (0, 1) and (0, 2) have filled its code memo, and
    raises the message the public evaluate raises.  The exclusions on (0, 1)
    and (0, 2) stay cached: reading them again reads no input."""
    reads = []

    def evaluator(pts, *payload):
        reads.append(pts)
        if pts == (1, 2):
            return malformed()
        # each excludes only the labeling (1, 1), so the enumeration goes on
        if flavor == "psi":
            return tuple(psi.table[1] for psi in payload[0])
        return frozenset(i for i in range(2) if payload[0][i] == 1)

    w = dk.Witness(flavor=flavor, order=1, evaluator=evaluator,
                   psi=dk.graph_family(2) if flavor == "psi" else None)
    payload = ((dk.graph_family(2).members[1],) * 2,) if flavor == "psi" else ((0, 1), (1, 0))
    with pytest.raises(dk.PreconditionError) as err:
        w.evaluate((2, 1), *payload)
    assert str(err.value) == _malformed_message(flavor, shown, (1, 2))
    spec = dk.GoodFunctionSpec(witness=w, num_labels=2)
    with pytest.raises(dk.PreconditionError) as err:
        dk.good_patterns(spec, (0, 1, 2))
    assert str(err.value) == _malformed_message(flavor, shown, (1, 2))
    reads.clear()
    assert spec._excluded((0, 1)) and spec._excluded((0, 2))
    assert reads == []


def test_code_memo_reads_an_equal_bool_answer_as_the_earlier_answer():
    """The code memo compares answers by value and scans no members, so once
    (1, 0) is seen, (True, False) is a hit: validation reads it as (1, 0)
    and reports what an evaluator answering (1, 0) everywhere gets, while
    the public evaluate, which keeps no memo, refuses it."""
    def psi_witness(later):
        return dk.Witness(flavor="psi", order=1, psi=dk.graph_family(2),
                          evaluator=lambda pts, psibar: (1, 0) if pts == (0, 1) else later)

    report = dk.validate_witness(psi_witness((True, False)), dk.full_class(3, 2), 2)
    assert report.violations
    assert repr(report) == repr(dk.validate_witness(psi_witness((1, 0)), dk.full_class(3, 2), 2))
    with pytest.raises(dk.PreconditionError, match=r"answered \(True, False\)"):
        psi_witness((True, False)).evaluate((1, 2), (dk.graph_family(2).members[0],) * 2)


def test_first_missing_code_matches_brute_force():
    """The search against the first code, in product order, that no live
    behavior has: random cells over up to 12 behaviors, random live masks,
    and cells where every code is had."""
    from dimkit.witnesses import _first_missing_code
    from oracles import first_missing_code

    rng = random.Random(31)
    covered = 0
    for _ in range(3000):
        n = rng.randint(1, 5)
        if rng.random() < 0.3:
            # behavior j has code owners[j], one cell per coordinate, and
            # every code has an owner
            owners = list(itertools.product((0, 1), repeat=n))
            owners += [rng.choice(owners) for _ in range(rng.randint(0, 4))]
            cells = [tuple(sum(1 << j for j, c in enumerate(owners) if c[i] == b)
                           for b in (0, 1)) for i in range(n)]
            full = (1 << len(owners)) - 1
        else:
            full = (1 << rng.randint(1, 12)) - 1
            cells = [(rng.randint(0, full), rng.randint(0, full)) for _ in range(n)]
        live = rng.choice((-1, full, rng.randint(0, full)))
        expected = first_missing_code(cells, live)
        covered += expected is None
        assert _first_missing_code(cells, live) == expected
        if live == -1:
            assert _first_missing_code(cells) == expected
    assert covered >= 100


def test_witness_rejects_payload_parts_of_the_wrong_type():
    # an int where an encoder belongs raised AttributeError, and an int
    # where a labeling belongs TypeError
    fam = dk.graph_family(3)
    p = dk.canonical_witness(three_hyp(), "psi", 1, psi=fam)
    for psibar in ((1, 2), (fam.members[0], 2), 5):
        with pytest.raises(dk.PreconditionError):
            p.evaluate((0, 1), psibar)
    # and a label of the wrong type inside a labeling TypeError, or went
    # through as a label
    n = dk.canonical_witness(three_hyp(), "natarajan", 1)
    for g1, g2 in ((1, 2), ((0, "a"), (1, 0)), ((0, [1]), (1, 0))):
        with pytest.raises(dk.PreconditionError):
            n.evaluate((0, 1), g1, g2)
    g = dk.canonical_witness(three_hyp(), "graph", 1)
    for f in (5, ([0], 1), ("a", 1)):
        with pytest.raises(dk.PreconditionError):
            g.evaluate((0, 1), f)


def test_canonical_cells_are_cached_per_point_tuple():
    """The canonical graph and psi answers against the oracles on every
    input, with point tuples interleaved and each input asked twice, with
    encoders over the class alphabet that are not in the family, and with
    graph labels one below and one above the alphabet, on random classes
    and on a one-label class.  ``Witness.evaluate`` refuses a negative
    label, so the evaluator itself answers those inputs."""
    from oracles import first_missing_agreement, first_missing_image

    rng = random.Random(1621)
    classes = (random_table_class(rng, 4, rng.choice((2, 3)), 12) for _ in range(4))
    one_label = dk.class_from_tables([(0, 0, 0, 0)], num_labels=1)
    for cls in itertools.chain(classes, [one_label]):
        q = cls.num_labels
        fam = (dk.graph_family(q) if q > 1
               else dk.PsiFamily(members=dk.psi.all_encoders(1), num_labels=1))
        outside = [e for e in dk.psi.all_encoders(q) if e not in fam.members]
        encoders = fam.members + tuple(rng.sample(outside, min(3, len(outside))))
        for order in (0, 1, 2):
            graph = dk.canonical_witness(cls, "graph", order)
            psi = dk.canonical_witness(cls, "psi", order, psi=fam)
            cases = []
            for points in itertools.combinations(range(4), order + 1):
                pats = dk.restrict(cls, points).pattern_set
                cases += [(graph, points, f, first_missing_agreement(pats, f))
                          for f in itertools.product(range(-1, q + 1), repeat=order + 1)]
                cases += [(psi, points, psibar, first_missing_image(pats, psibar))
                          for psibar in itertools.product(encoders, repeat=order + 1)]
            rng.shuffle(cases)
            for w, points, row, expected in cases + cases[::-1]:
                answer = w.evaluate
                if w is graph and min(row) < 0:
                    with pytest.raises(dk.PreconditionError, match="natural labels, got -1$"):
                        w.evaluate(points, row)
                    answer = w.evaluator
                if expected is None:
                    with pytest.raises(dk.ShatteredError):
                        answer(points, row)
                else:
                    assert answer(points, row) == expected


def test_learner_witness_at_m3_matches_reference():
    from oracles import validate_witness_reference

    cls = dk.full_class(6, 2)

    def make():
        learner = dk.memorizing_learner(0, num_labels=2, window=5)
        return dk.witness_from_learner(learner, 3, h_check=cls)

    fast = dk.validate_witness(make(), cls, 5)
    assert fast.checked_inputs == 64 and len(fast.violations) == 64
    assert {v.reason for v in fast.violations} == {"exclusion_failure"}
    slow = validate_witness_reference(make(), cls, 5)
    assert fast == slow and repr(fast) == repr(slow)


def _learner_cases():
    """(name, learner factory, check class, m) on seeded table classes: ERM
    over the class, and memorizing and constant learners, at m = 1 and 2."""
    rng = random.Random(2014)
    cases = []
    for m, q in ((1, 3), (1, 2), (2, 2)):
        n = 2 * m + 1
        for k in range(2):
            cls = random_table_class(rng, n, q, 6)
            cases += [
                (f"erm-m{m}-q{q}-{k}", lambda cls=cls: dk.erm_learner(cls), cls, m),
                (f"memorize-m{m}-q{q}-{k}",
                 lambda q=q, n=n: dk.memorizing_learner(1, num_labels=q, window=n - 1), cls, m),
                (f"const-m{m}-q{q}-{k}",
                 lambda q=q, n=n: dk.constant_learner(0, num_labels=q, window=n - 1), cls, m),
            ]
    return cases


@pytest.mark.parametrize("case", _learner_cases(), ids=lambda c: c[0])
def test_learner_witness_matches_the_fraction_adversary(case):
    """Per input, in shuffled order across point tuples and each asked
    twice, the learner witness answers the index set of the oracle
    adversary's mixture, or raises ExclusionFailure exactly when the check
    class realizes it; and its validation equals the reference loop's."""
    from oracles import nfl_adversary, validate_witness_reference
    from dimkit.witnesses import ExclusionFailure

    _, make, cls, m = case
    window = cls.domain_size - 1
    w = dk.witness_from_learner(make(), m, h_check=cls)
    inputs = [(points, g1, g2)
              for points in itertools.combinations(range(window + 1), 2 * m)
              for g1, g2 in witness_inputs(w, cls.num_labels)]
    random.Random(len(inputs)).shuffle(inputs)
    for points, g1, g2 in inputs + inputs[::-1]:
        f, index_set, *_ = nfl_adversary(make(), points, g1, g2)
        if f in dk.restrict(cls, points).pattern_set:
            with pytest.raises(ExclusionFailure):
                w.evaluate(points, g1, g2)
        else:
            assert w.evaluate(points, g1, g2) == index_set
    fast = dk.validate_witness(dk.witness_from_learner(make(), m, h_check=cls), cls, window)
    slow = validate_witness_reference(dk.witness_from_learner(make(), m, h_check=cls),
                                      cls, window)
    assert fast == slow and repr(fast) == repr(slow)


@pytest.mark.parametrize("m, symmetric", [(1, True), (2, True), (2, False)])
def test_learner_witness_sums_each_mixture_risk_once(m, symmetric):
    """A counting learner: validating the learner witness runs it once per
    multiset (or sequence) of each distinct (point tuple, mixture) that the
    adversary reaches, and not once per input that reaches it."""
    from oracles import nfl_adversary

    window, q = 2 * m, 2
    cls = dk.full_class(window + 1, q)
    inner = dk.memorizing_learner(0, num_labels=q, window=window)
    calls = []
    counting = dk.Learner("count", lambda s: calls.append(s) or inner(s), symmetric=symmetric)
    report = dk.validate_witness(dk.witness_from_learner(counting, m), cls, window)
    reached, walked = set(), 0
    w = dk.witness_from_learner(inner, m)
    for points in itertools.combinations(range(window + 1), 2 * m):
        for g1, g2 in witness_inputs(w, q):
            examined = nfl_adversary(inner, points, g1, g2)[4]
            walked += examined
            for bits in itertools.islice(itertools.product((0, 1), repeat=2 * m), examined):
                index_set = frozenset(itertools.compress(range(2 * m), bits))
                reached.add((points, dk.mix_labelings(index_set, g1, g2)))
    per_mixture = len(nfl._multisets(range(2 * m), m)) if symmetric else (2 * m) ** m
    assert len(calls) == len(reached) * per_mixture
    assert len(reached) < walked


@pytest.mark.parametrize("flavor, payload, shown", [
    ("natarajan", ((True, 3), (2, 8)), "True"),
    ("natarajan", ((0, 1), (2, False)), "False"),
    ("natarajan", ((0, -1), (2, 8)), "-1"),
    ("graph", ((1, True),), "True"),
    ("graph", ((-2, 1),), "-2"),
])
def test_evaluate_refuses_bool_and_negative_labels(flavor, payload, shown):
    """``Witness.evaluate`` takes natural labels only; a bool is not read as
    0 or 1 and a negative label is not passed on to the evaluator."""
    w = dk.gap_class(3).witness if flavor == "natarajan" else dk.Witness(
        "graph", 1, lambda points, f: frozenset())
    with pytest.raises(dk.PreconditionError, match=f"natural labels, got {shown}$"):
        w.evaluate((0, 1), *payload)


# ------------------------------------------------------ memory over a window

def _live_behavior_sets():
    return sum(isinstance(o, dk.BehaviorSet) for o in gc.get_objects())


def test_witnesses_keep_only_the_last_point_tuples_behaviors():
    """validate_witness visits each point tuple's inputs one after another,
    so an evaluator keeps one tuple's behaviors, not all C(301, 2) of them
    over the window [0, 300] of a two-hypothesis class on the naturals."""
    cls = dk.class_from_supports([{}, {300: 1}], num_labels=2)
    gc.collect()
    before = _live_behavior_sets()
    w = dk.canonical_witness(cls, "natarajan", 1)
    report = dk.validate_witness(w, cls, 300)
    assert report.valid and report.checked_inputs == 180_600
    assert _live_behavior_sets() - before == 1
    del w
    for w in (dk.canonical_witness(cls, "graph", 1),
              dk.witness_from_learner(dk.constant_learner(0, num_labels=2, window=40), 1,
                                      h_check=cls)):
        gc.collect()
        before = _live_behavior_sets()
        dk.validate_witness(w, cls, 40)
        assert _live_behavior_sets() - before == 1, w.provenance
        del w


def test_validation_memory_stays_flat_in_the_number_of_inputs():
    """One point tuple with 27,000 natarajan inputs: a list of its payloads
    would take megabytes, and a list of references to its codes 216 KB,
    while the pipeline holds one input at a time.  The canonical natarajan
    and graph evaluators on the same tuple keep tables bounded by the
    alphabet and 2^arity, not by the number of inputs."""
    import tracemalloc

    cls = dk.class_from_tables([(0, 0, 0)], num_labels=6)
    w = dk.Witness(flavor="natarajan", order=2, evaluator=lambda pts, g1, g2: frozenset())
    natarajan = dk.canonical_witness(cls, "natarajan", 2)
    graph = dk.canonical_witness(cls, "graph", 2)
    # the excluded labeling is g2, realized only when g2 is all zeros; the
    # canonical witnesses are valid
    for witness, inputs, violations in ((w, 27_000, 5 ** 3), (natarajan, 27_000, 0),
                                        (graph, 6 ** 3, 0)):
        dk.validate_witness(witness, cls, 2)  # warm the caches a first call fills
        tracemalloc.start()
        try:
            report = dk.validate_witness(witness, cls, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.checked_inputs == inputs
        assert len(report.violations) == violations
        assert peak < 100_000, (witness.provenance, peak)


def test_labels_outside_the_alphabet_are_not_stored():
    """1,000 distinct natarajan label pairs and graph labels outside the
    alphabet are answered on the fly: storing them would take over 100 KB.
    A first 3,000 calls fill what the interpreter keeps for reuse."""
    import tracemalloc

    cls = dk.class_from_tables([(0, 0, 0)], num_labels=6)
    natarajan = dk.canonical_witness(cls, "natarajan", 2)
    graph = dk.canonical_witness(cls, "graph", 2)
    points = (0, 1, 2)

    def ask(labels):
        # the one behavior (0, 0, 0) is no mixture with a label outside at
        # the first coordinate, and agrees with no graph label outside
        for k in labels:
            assert natarajan.evaluate(points, (k, 0, k + 1000), (k + 2000, 1, k)) == {0, 1}
            assert graph.evaluate(points, (k, k + 1000, k + 2000)) == {2}

    tracemalloc.start()
    try:
        ask(range(10_000, 13_000))
        before, _ = tracemalloc.get_traced_memory()
        ask(range(6, 1006))
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 10_000, after - before


# ------------------------------------------------------- the input stream

@pytest.mark.parametrize("flavor", ["natarajan", "graph", "psi"])
def test_witness_inputs_match_the_transposed_product(flavor):
    """The payload stream equals a product over the per-coordinate
    alphabet, each natarajan row of pairs transposed into (g1, g2); with
    fewer than two labels no natarajan pair differs, so the stream is
    empty."""
    from oracles import witness_inputs_reference

    for q in range(5):
        families = [None]
        if flavor == "psi":  # an encoder needs a label
            families = [dk.natarajan_family(q), dk.graph_family(q)] if q >= 2 else [
                dk.PsiFamily(tuple(map(dk.PsiFunction, [(0,), (1,), (STAR,)])), 1)] * q
        for fam, order in itertools.product(families, range(4)):
            w = dk.Witness(flavor=flavor, order=order, evaluator=lambda *a: frozenset(), psi=fam)
            got = list(witness_inputs(w, q))
            assert got == witness_inputs_reference(w, q), (q, order)
            if flavor == "natarajan" and q < 2:
                assert got == []


# ------------------------------------------------- the call-order contract

class _Scripted:
    """A recording evaluator: call n (from 0) logs its (points, payload),
    then raises ``script[n]`` (an exception class or instance) when n is in
    the script, and otherwise returns ``answer(n, points, payload)``."""

    def __init__(self, answer, script=()):
        self.answer, self.script, self.log = answer, dict(script), []

    def __call__(self, points, *payload):
        n = len(self.log)
        self.log.append((points, payload))
        if n in self.script:
            err = self.script[n]
            raise err("scripted") if isinstance(err, type) else err
        return self.answer(n, points, payload)


def _by_call(flavor, arity):
    """Answers that vary with the call number, so that some exclude a
    realized labeling and some do not."""
    if flavor == "psi":
        return lambda n, points, payload: tuple((n >> i) & 1 for i in range(arity))
    return lambda n, points, payload: frozenset(i for i in range(arity) if (n >> i) & 1)


CONTRACT_CASES = [("natarajan", None), ("graph", None), ("psi", "N"), ("psi", "G")]


def _contract_setup(flavor, fam_kind):
    """(class, window, witness factory, every (points, payload) in order,
    inputs per point tuple) on an order-1 witness over three labels."""
    from oracles import witness_inputs_reference

    cls = random_table_class(random.Random(31), 4, 3, 10)
    fam = None if fam_kind is None else (
        dk.natarajan_family(3) if fam_kind == "N" else dk.graph_family(3))

    def make(evaluator):
        return dk.Witness(flavor=flavor, order=1, evaluator=evaluator, psi=fam)

    payloads = witness_inputs_reference(make(None), 3)
    inputs = [(points, payload) for points in itertools.combinations(range(4), 2)
              for payload in payloads]
    return cls, 3, make, inputs, len(payloads)


@pytest.mark.parametrize("flavor, fam_kind", CONTRACT_CASES)
def test_validation_calls_each_input_once_in_order_and_resumes_after_raises(flavor, fam_kind):
    """Raises on the first input, on consecutive inputs, across the boundary
    of two point tuples and on the last input: every input still reaches
    the evaluator exactly once, in the reference loop's order, and the
    report is the reference's."""
    from oracles import validate_witness_reference

    cls, window, make, inputs, per = _contract_setup(flavor, fam_kind)
    last = len(inputs) - 1
    script = {0: dk.ShatteredError, 5: ExclusionFailure, 6: dk.ShatteredError,
              7: ExclusionFailure, per - 1: ExclusionFailure, per: dk.ShatteredError,
              last - 1: dk.ShatteredError, last: ExclusionFailure}
    fast_ev, slow_ev = _Scripted(_by_call(flavor, 2), script), _Scripted(_by_call(flavor, 2), script)
    fast = dk.validate_witness(make(fast_ev), cls, window)
    slow = validate_witness_reference(make(slow_ev), cls, window)
    assert fast_ev.log == slow_ev.log == inputs
    assert repr(fast) == repr(slow)
    assert {v.reason for v in fast.violations} == {
        "shattered", "exclusion_failure", "excluded_pattern_realized"}
    raised = [inputs.index((v.points, v.payload)) for v in fast.violations
              if v.reason != "excluded_pattern_realized"]
    assert raised == sorted(script)


@pytest.mark.parametrize("flavor, fam_kind", CONTRACT_CASES)
def test_validation_reads_no_answer_ahead_of_a_raise(flavor, fam_kind):
    """A malformed answer right after a raise stops validation with the
    evaluator called once per input up to it, and so does any error other
    than the two violations, as in the reference loop."""
    from oracles import validate_witness_reference

    cls, window, make, inputs, per = _contract_setup(flavor, fam_kind)
    bad = (5,) * 2 if flavor == "psi" else frozenset({5})
    for j in (1, 7, per, len(inputs) - 1):
        ev = _Scripted(lambda n, points, payload, j=j: bad if n == j else
                       _by_call(flavor, 2)(n, points, payload), {j - 1: dk.ShatteredError})
        with pytest.raises(dk.PreconditionError, match="witness answered"):
            dk.validate_witness(make(ev), cls, window)
        assert ev.log == inputs[:j + 1]
        boom = ValueError("a user evaluator's own error")
        for validate in (dk.validate_witness, validate_witness_reference):
            ev = _Scripted(_by_call(flavor, 2), {j - 1: ExclusionFailure, j: boom})
            with pytest.raises(ValueError) as err:
                validate(make(ev), cls, window)
            assert err.value is boom and ev.log == inputs[:j + 1]


@pytest.mark.parametrize("flavor, fam_kind", CONTRACT_CASES)
def test_validation_refuses_an_evaluator_that_raises_stop_iteration(flavor, fam_kind):
    """A C iterator takes a StopIteration for the end of its inputs; the
    inputs left unread show it, on the last input too, and validation
    raises instead of reporting on part of the window."""
    cls, window, make, inputs, per = _contract_setup(flavor, fam_kind)
    for j in (0, per - 1, per, len(inputs) - 1):
        ev = _Scripted(_by_call(flavor, 2), {j: StopIteration})
        with pytest.raises(RuntimeError, match="raised StopIteration on points"):
            dk.validate_witness(make(ev), cls, window)
        assert ev.log == inputs[:j + 1]


def _by_input(flavor):
    """Answers that depend on the input only, as the brute-force good
    patterns read them in their own order.  A natarajan answer excludes,
    per coordinate, the larger or the smaller label of the pair by the
    point's parity, so it is pair-symmetric."""
    if flavor == "psi":
        return lambda n, points, payload: tuple(
            (x + psi.table[0]) % 2 for x, psi in zip(points, payload[0]))
    return lambda n, points, payload: frozenset(
        i for i, (x, a, b) in enumerate(zip(points, *payload)) if (a > b) == x % 2)


@pytest.mark.parametrize("flavor, symmetric", [("natarajan", False), ("natarajan", True),
                                               ("psi", False)])
def test_exclusion_reader_calls_each_input_once_in_order(flavor, symmetric):
    """Good patterns ask about each subset once; the exclusion reader reads
    that subset's inputs (for a pair-symmetric witness, those with
    g1[i] < g2[i]) once each, in product order, and a raise on any input
    propagates at once."""
    from oracles import good_patterns_bruteforce, witness_inputs_reference

    fam = dk.graph_family(2) if flavor == "psi" else None

    def make(evaluator):
        return dk.Witness(flavor=flavor, order=1, evaluator=evaluator, psi=fam,
                          pair_symmetric=symmetric)

    payloads = [p for p in witness_inputs_reference(make(None), 2)
                if not symmetric or all(a < b for a, b in zip(*p))]
    ev = _Scripted(_by_input(flavor))
    spec = dk.GoodFunctionSpec(witness=make(ev), num_labels=2)
    got = dk.good_patterns(spec, (0, 1, 2, 3))
    want = good_patterns_bruteforce(dk.GoodFunctionSpec(witness=make(_Scripted(
        _by_input(flavor))), num_labels=2), (0, 1, 2, 3))
    assert got.patterns == want
    subsets = list(dict.fromkeys(points for points, _ in ev.log))
    assert len(subsets) > 1
    assert ev.log == [(points, p) for points in subsets for p in payloads]
    for j in (0, len(payloads) - 1, len(payloads)):
        for err in (dk.ShatteredError, ExclusionFailure, StopIteration):
            ev = _Scripted(_by_input(flavor), {j: err})
            spec = dk.GoodFunctionSpec(witness=make(ev), num_labels=2)
            with pytest.raises(RuntimeError if err is StopIteration else err):
                dk.good_patterns(spec, (0, 1, 2, 3))
            assert len(ev.log) == j + 1
