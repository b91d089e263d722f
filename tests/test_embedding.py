import itertools
import random
from fractions import Fraction

import pytest

import dimkit as dk
import oracles
from corpus import random_support_class


def singleton_spec():
    cls = dk.class_from_supports([{}], num_labels=2)
    w = dk.canonical_witness(cls, "natarajan", 0)
    return cls, dk.GoodFunctionSpec(witness=w, num_labels=2)


def three_hyp_spec():
    cls = dk.class_from_supports([{1: 1}, {0: 1}, {0: 2, 1: 2}], num_labels=3)
    w = dk.canonical_witness(cls, "natarajan", 1)
    return cls, dk.GoodFunctionSpec(witness=w, num_labels=3)


# ------------------------------------------------------------ good patterns

def test_singleton_base_admits_only_the_zero_pattern():
    _, spec = singleton_spec()
    assert dk.good_patterns(spec, (0, 1)).patterns == ((0, 0),)


def test_three_hyp_behaviors_contain_base_within_bound():
    cls, spec = three_hyp_spec()
    got = dk.good_patterns(spec, (0, 1))
    assert dk.restrict(cls, (0, 1)).pattern_set <= got.pattern_set
    assert len(got) <= 2 ** 2 * 3 ** 4
    assert got.patterns == oracles.good_patterns_bruteforce(spec, (0, 1))


def test_prefix_search_matches_full_enumeration():
    rng = random.Random(1618)
    for _ in range(8):
        q = rng.choice((2, 3))
        cls = random_support_class(rng, 2, q, 8)
        k = dk.exact_dimension(cls, "natarajan").value
        w = dk.canonical_witness(cls, "natarajan", k)
        spec = dk.GoodFunctionSpec(witness=w, num_labels=q)
        points = tuple(sorted(rng.sample(range(5), rng.randint(1, 3))))
        assert dk.good_patterns(spec, points).patterns == \
            oracles.good_patterns_bruteforce(spec, points)


def test_prefix_search_matches_full_enumeration_psi_flavor():
    rng = random.Random(2718)
    for _ in range(4):
        cls = random_support_class(rng, 2, 2, 6)
        fam = dk.natarajan_family(2)
        k = dk.exact_dimension(cls, "psi", psi=fam).value
        w = dk.canonical_witness(cls, "psi", k, psi=fam)
        spec = dk.GoodFunctionSpec(witness=w, num_labels=2)
        points = (0, 2, 3)
        assert dk.good_patterns(spec, points).patterns == \
            oracles.good_patterns_bruteforce(spec, points)


def test_truncation_closure_of_survivors():
    _, spec = three_hyp_spec()
    window = 4
    from dimkit.embedding import good_window

    full = set(good_window(spec, window))
    for p in full:
        for cut in range(window):
            truncated = p[: cut + 1] + (0,) * (window - cut - 1)
            assert truncated[: cut + 1] in set(good_window(spec, cut))


def test_counting_bound_over_window():
    cls, spec = three_hyp_spec()
    k = spec.witness.order
    for top in range(1, 5):
        points = tuple(range(top + 1))
        v = dk.good_patterns(spec, points)
        assert len(v) <= (top + 1) ** (k + 1) * 3 ** (2 * (k + 1))


def test_augmented_dimension_control():
    rng = random.Random(77)
    for _ in range(6):
        q = rng.choice((2, 3))
        cls = random_support_class(rng, 2, q, 10)
        k = dk.exact_dimension(cls, "natarajan").value
        w = dk.canonical_witness(cls, "natarajan", k)
        spec = dk.GoodFunctionSpec(witness=w, num_labels=q)
        window = tuple(range(5))
        v = dk.good_patterns(spec, window)
        augmented = dk.class_from_tables(v.patterns, num_labels=q)
        assert dk.exact_dimension(augmented, "natarajan").value <= k + 1


def test_augmented_psi_dimension_control():
    rng = random.Random(88)
    for family_builder in (dk.natarajan_family, dk.graph_family):
        q = 2
        cls = random_support_class(rng, 2, q, 6)
        fam = family_builder(q)
        k = dk.exact_dimension(cls, "psi", psi=fam).value
        w = dk.canonical_witness(cls, "psi", k, psi=fam)
        spec = dk.GoodFunctionSpec(witness=w, num_labels=q)
        v = dk.good_patterns(spec, tuple(range(5)))
        augmented = dk.class_from_tables(v.patterns, num_labels=q)
        assert dk.exact_dimension(augmented, "psi", psi=fam).value <= k + 1


def test_augmented_dimension_control_is_tight_on_a_full_base():
    supports = []
    for row in itertools.product(range(3), repeat=3):
        supports.append({x: v for x, v in enumerate(row) if v})
    base = dk.class_from_supports(supports, num_labels=3)
    k = dk.exact_dimension(base, "natarajan").value
    assert k == 3
    witness = dk.canonical_witness(base, "natarajan", k)
    spec = dk.GoodFunctionSpec(witness=witness, num_labels=3)
    v = dk.good_patterns(spec, tuple(range(6)))
    augmented = dk.class_from_tables(v.patterns, num_labels=3)
    assert dk.exact_dimension(augmented, "natarajan").value == k + 1


def test_augmented_class_view_plugs_into_dimension_search():
    base, spec = three_hyp_spec()
    augmented = dk.AugmentedClass(base=base, good=spec)
    assert augmented.behaviors((0, 1)).patterns == dk.good_patterns(spec, (0, 1)).patterns
    view = augmented.view()
    assert dk.restrict(base, (1, 0)).pattern_set <= dk.restrict(view, (1, 0)).pattern_set
    assert dk.exact_dimension(view, "natarajan", window=4).value <= spec.witness.order + 1


def test_augmented_class_rejects_finite_domain_base():
    base = dk.class_from_tables([(0, 1)], num_labels=2)
    w = dk.canonical_witness(base, "natarajan", 0)
    spec = dk.GoodFunctionSpec(witness=w, num_labels=2)
    with pytest.raises(dk.PreconditionError):
        dk.AugmentedClass(base=base, good=spec)


# ----------------------------------------------------------------- the ERM

def test_erm_fits_realizable_sample():
    _, spec = three_hyp_spec()
    h, risk = dk.erm_augmented(spec, ((0, 2), (1, 2)))
    assert risk == 0
    assert h.values_on((0, 1)) == (2, 2)


def test_erm_zero_sample_hits_zero_pattern():
    _, spec = three_hyp_spec()
    h, risk = dk.erm_augmented(spec, ((0, 0), (1, 0)))
    assert risk == 0 and h.support == ()


def test_erm_singleton_returns_zero_function():
    _, spec = singleton_spec()
    h, risk = dk.erm_augmented(spec, ((0, 1), (1, 0), (2, 1)))
    assert h.support == () and risk == Fraction(2, 3)


def test_erm_risk_matches_bruteforce_minimum():
    rng = random.Random(5150)
    _, spec = three_hyp_spec()
    for _ in range(40):
        sample = tuple(
            (rng.randint(0, 4), rng.randint(0, 2)) for _ in range(rng.randint(1, 6))
        )
        h, risk = dk.erm_augmented(spec, sample)
        points = tuple(sorted({x for x, _ in sample}))
        v = dk.good_patterns(spec, points)
        best = min(
            Fraction(
                sum(1 for x, y in sample if p[points.index(x)] != y), len(sample)
            )
            for p in v.patterns
        )
        assert risk == best == dk.empirical_risk(h, sample)


def test_erm_tie_breaks_lexicographically():
    _, spec = singleton_spec()
    # only the zero pattern exists, so look at a base with real ties
    cls = dk.class_from_supports([{0: 1}, {1: 1}], num_labels=2)
    w = dk.canonical_witness(cls, "natarajan", 1)
    spec = dk.GoodFunctionSpec(witness=w, num_labels=2)
    sample = ((0, 1), (1, 1))
    h, risk = dk.erm_augmented(spec, sample)
    v = dk.good_patterns(spec, (0, 1))
    minimizers = [
        p for p in v.patterns
        if sum(1 for x, y in sample if p[x] != y) == risk * len(sample)
    ]
    assert h.values_on((0, 1)) == minimizers[0]


def test_agnostic_learner_is_total_and_improper():
    cls, spec = three_hyp_spec()
    learner = dk.agnostic_learner(spec)
    h = learner(((0, 0), (1, 0)))
    assert h.values_on((0, 1)) == (0, 0)
    assert all(
        h.values_on((0, 1)) != base.values_on((0, 1)) for base in cls.hypotheses
    )


# --------------------------------------------------------- enumeration ERM

def test_enumeration_erm_finds_third_hypothesis():
    cls = dk.class_from_tables([(0, 1), (1, 0), (2, 2)], num_labels=3)
    got = dk.realizable_enumeration_erm(cls.enumerate(), ((0, 2), (1, 2)), budget=10)
    assert got.table == (2, 2)


def test_enumeration_erm_first_fit_wins():
    cls = dk.class_from_tables([(0, 1), (1, 0)], num_labels=2)
    got = dk.realizable_enumeration_erm(cls.enumerate(), ((0, 0),), budget=10)
    assert got.table == (0, 1)


def test_enumeration_erm_budget_error():
    cls = dk.class_from_tables([(0, 1)], num_labels=2)
    with pytest.raises(dk.BudgetError):
        dk.realizable_enumeration_erm(cls.enumerate(), ((0, 1), (1, 0)), budget=5)


# ----------------------------------------------------------- bounded labels

def test_constant_bound_degenerates_to_plain_enumeration():
    cls, spec = three_hyp_spec()
    bounded = dk.GoodFunctionSpec(
        witness=spec.witness, num_labels=3, label_bound=(2, 2, 2, 2, 2)
    )
    for points in ((0, 1), (0, 2), (1, 3)):
        assert (
            dk.good_patterns(bounded, points).patterns
            == dk.good_patterns(spec, points).patterns
        )


def test_unit_bound_keeps_binary_patterns():
    _, spec = three_hyp_spec()
    bounded = dk.GoodFunctionSpec(
        witness=spec.witness, num_labels=3, label_bound=(1, 1, 1)
    )
    got = dk.good_patterns(bounded, (0, 1))
    assert all(set(p) <= {0, 1} for p in got.patterns)


def test_growing_bound_label_pool():
    _, spec = three_hyp_spec()
    bounded = dk.GoodFunctionSpec(
        witness=spec.witness, num_labels=3, label_bound=(0, 1, 2)
    )
    assert list(bounded.window_labels(2)) == [0, 1, 2]
    assert list(bounded.window_labels(0)) == [0]
    with pytest.raises(dk.PreconditionError):
        bounded.window_labels(3)


def test_bounded_variant_matches_full_enumeration():
    _, spec = three_hyp_spec()
    bounded = dk.GoodFunctionSpec(
        witness=spec.witness, num_labels=3, label_bound=(1, 1, 2, 2)
    )
    for points in ((0, 1), (0, 1, 2), (1, 3)):
        assert (
            dk.good_patterns(bounded, points).patterns
            == oracles.good_patterns_bruteforce(bounded, points)
        )


def test_bound_table_must_be_nondecreasing():
    _, spec = three_hyp_spec()
    with pytest.raises(dk.PreconditionError):
        dk.GoodFunctionSpec(witness=spec.witness, num_labels=3, label_bound=(2, 1))


def test_bound_table_stays_inside_the_alphabet():
    # a bound of 5 with q = 3 used to make good patterns with label 5, which
    # erm_augmented then rejected with a RepresentationError
    _, spec = three_hyp_spec()
    for bound in ((5, 5, 5), (0, 1, 3), (-1, 0)):
        with pytest.raises(dk.PreconditionError):
            dk.GoodFunctionSpec(witness=spec.witness, num_labels=3, label_bound=bound)
    top = dk.GoodFunctionSpec(witness=spec.witness, num_labels=3, label_bound=(2, 2, 2))
    assert all(v < 3 for p in dk.good_patterns(top, (0, 1, 2)).patterns for v in p)


# --------------------------------------------------------- sample size rule

def test_uc_sample_size_matches_formula():
    import math

    m = dk.uc_sample_size(30, Fraction(1, 4), Fraction(1, 5))
    assert m == math.ceil(2 * math.log(300) * 16)
    with pytest.raises(dk.PreconditionError):
        dk.uc_sample_size(0, Fraction(1, 4), Fraction(1, 5))


def _decimal_sample_size(n, eps, delta, digits):
    from decimal import ROUND_CEILING, Context, Decimal

    ctx = Context(prec=digits)
    ratio = ctx.divide(Decimal(2 * n * delta.denominator), Decimal(delta.numerator))
    scale = ctx.divide(Decimal(2 * eps.denominator ** 2), Decimal(eps.numerator ** 2))
    x = ctx.multiply(ctx.ln(ratio), scale)
    return int(x.to_integral_value(rounding=ROUND_CEILING))


def test_uc_sample_size_tiny_eps_and_delta_are_exact():
    # float logarithms divide by zero and overflow on these
    m = dk.uc_sample_size(3, Fraction(1, 10 ** 170), Fraction(1, 5))
    assert m == _decimal_sample_size(3, Fraction(1, 10 ** 170), Fraction(1, 5), 420)
    m = dk.uc_sample_size(3, Fraction(1, 4), Fraction(1, 10 ** 400))
    assert m == _decimal_sample_size(3, Fraction(1, 4), Fraction(1, 10 ** 400), 60)
    assert m == 29531


def test_uc_sample_size_sweep_matches_decimal():
    import random

    rng = random.Random(2023)
    for _ in range(300):
        n = rng.choice((1, 2, 3, 7, 30, 1000, rng.randint(1, 10 ** 9)))
        eps = Fraction(rng.randint(1, 99), 100) if rng.random() < 0.7 \
            else Fraction(1, rng.randint(2, 10 ** 6))
        delta = Fraction(rng.randint(1, 999), 1000) if rng.random() < 0.7 \
            else Fraction(1, 10 ** rng.randint(1, 30))
        got = dk.uc_sample_size(n, eps, delta)
        assert got == _decimal_sample_size(n, eps, delta, 60), (n, eps, delta)


def test_ln_bounds_bracket_the_logarithm():
    from decimal import Context, Decimal

    from dimkit.embedding import _ln_bounds

    ctx = Context(prec=80)
    for r in (Fraction(2), Fraction(3), Fraction(5, 2), Fraction(5, 3), Fraction(9, 7),
              Fraction(7, 6), Fraction(2 ** 40 + 1, 3),
              Fraction(10 ** 30, 7), Fraction(1023, 512), Fraction(1025, 512)):
        exact = ctx.ln(ctx.divide(Decimal(r.numerator), Decimal(r.denominator)))
        for terms in (1, 4, 16):
            lo, hi = _ln_bounds(r, terms)
            assert ctx.divide(Decimal(lo.numerator), Decimal(lo.denominator)) < exact
            assert exact < ctx.divide(Decimal(hi.numerator), Decimal(hi.denominator))
