import dataclasses
import itertools
import random
import types
from fractions import Fraction

import pytest

import dimkit as dk
import oracles
from corpus import random_support_class, random_table_class
from dimkit.embedding import _extension_ok
from dimkit.psi import STAR


def singleton_spec():
    cls = dk.class_from_supports([{}], num_labels=2)
    w = dk.canonical_witness(cls, "natarajan", 0)
    return cls, dk.GoodFunctionSpec(witness=w, num_labels=2)


def three_hyp_spec():
    cls = dk.class_from_supports([{1: 1}, {0: 1}, {0: 2, 1: 2}], num_labels=3)
    w = dk.canonical_witness(cls, "natarajan", 1)
    return cls, dk.GoodFunctionSpec(witness=w, num_labels=3)


# ------------------------------------------------------------ good patterns

def test_good_patterns_refuse_duplicate_points_and_sort_the_rest():
    # (1, 1) once answered for the one point 1
    _, spec = three_hyp_spec()
    with pytest.raises(dk.PreconditionError, match=r"^duplicate points in \(1, 1\)$"):
        dk.good_patterns(spec, (1, 1))
    assert dk.good_patterns(spec, (1, 0)) == dk.good_patterns(spec, (0, 1))
    assert dk.good_patterns(spec, (1, 0)).points == (0, 1)


def test_augmented_erm_reads_a_sample_with_repeated_points():
    _, spec = three_hyp_spec()
    h, risk = dk.erm_augmented(spec, ((1, 2), (0, 2), (1, 2)))
    assert h.support == ((0, 2), (1, 2)) and risk == 0


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


def test_extension_queries_exactly_the_subsets_past_the_old_top():
    """With a reader that excludes nothing, an extension at ``new_point``
    asks about every subset of [0, new_point] whose top lies above the old
    support top, in lexicographic order, and about no other."""
    for arity in range(1, 6):
        for new_point in range(9):
            for old_top in (None, *range(new_point)):
                asked = []
                spec = types.SimpleNamespace(
                    witness=types.SimpleNamespace(arity=arity),
                    _excluded=lambda subset: asked.append(subset) or frozenset())
                assert _extension_ok(spec, (1,) * (new_point + 1), old_top, new_point)
                floor = -1 if old_top is None else old_top
                assert asked == [subset for subset in itertools.combinations(
                    range(new_point + 1), arity) if subset[-1] > floor]


def _exclusion_or_error(spec, subset):
    try:
        return spec._excluded(subset), None
    except dk.ShatteredError as err:
        return None, (str(err), err.witness_input)


def _counting(witness, **changes):
    """The witness with ``changes``, and the list its evaluator appends each
    input it reads to."""
    reads = []

    def evaluator(*args):
        reads.append(args)
        return witness.evaluator(*args)

    return dataclasses.replace(witness, evaluator=evaluator, **changes), reads


def test_pair_symmetric_exclusion_matches_the_ordered_loop():
    """The canonical natarajan witness is read once per unordered pair tuple,
    (q(q-1)/2)^arity inputs per subset; the same witness, undeclared, is read
    on every orientation, (q(q-1))^arity inputs.  Both give the same
    exclusion, or the same first ShatteredError, on every subset."""
    rng = random.Random(3141)
    compared = shattered = 0
    for _ in range(30):
        q = rng.randint(2, 4)
        cls = random_table_class(rng, 4, q, rng.choice((4, 16, 64, 256)))
        for order in (0, 1, 2):
            w = dk.canonical_witness(cls, "natarajan", order)
            assert w.pair_symmetric
            declared, reads = _counting(w)
            undeclared, reference_reads = _counting(w, pair_symmetric=False)
            spec = dk.GoodFunctionSpec(witness=declared, num_labels=q)
            reference = dk.GoodFunctionSpec(witness=undeclared, num_labels=q)
            for subset in itertools.combinations(range(4), order + 1):
                reads.clear()
                reference_reads.clear()
                got = _exclusion_or_error(spec, subset)
                assert got == _exclusion_or_error(reference, subset), (q, order, subset)
                if got[1] is None:
                    assert len(reads) == (q * (q - 1) // 2) ** (order + 1)
                    assert len(reference_reads) == (q * (q - 1)) ** (order + 1)
                compared += 1
                shattered += got[1] is not None
    assert compared > 100 and 0 < shattered < compared


def test_pair_symmetric_good_patterns_match_full_enumeration():
    # at the class's own Natarajan dimension no input is shattered
    rng = random.Random(1729)
    for q, points in ((3, (0, 1, 3)), (4, (0, 2)), (4, (1,)), (2, (0, 1, 2, 3))):
        cls = random_support_class(rng, 3, q, 3)
        w = dk.canonical_witness(cls, "natarajan", dk.exact_dimension(cls, "natarajan").value)
        assert w.pair_symmetric
        spec = dk.GoodFunctionSpec(witness=w, num_labels=q)
        got = dk.good_patterns(spec, points).patterns
        assert len(got) > 1
        assert got == oracles.good_patterns_bruteforce(spec, points)


# Answers of every type the shape check takes.  The exclusion reads an answer
# of the exact well-formed type (a frozenset, or a tuple for psi) from its code
# memo once seen, and sends any other through the shape check.
NATARAJAN_ANSWERS = {
    "frozenset": frozenset,
    "set": set,
    "list": list,
    "tuple": tuple,
    "generator": lambda items: (i for i in items),
    "mixed": lambda items: (set, frozenset, list)[sum(items) % 3](items),
}
PSI_ANSWERS = {
    "tuple": tuple,
    "list": list,
    "generator": lambda bits: (b for b in bits),
}


@pytest.mark.parametrize("name", NATARAJAN_ANSWERS)
def test_exclusion_matches_full_sweep_for_natarajan_answer_types(name):
    make = NATARAJAN_ANSWERS[name]

    def evaluator(pts, g1, g2):
        # the excluded mixture takes t = pts[i] % 3 where g1 or g2 offers
        # it, else t + 1, so some patterns stay good
        t = [x % 3 for x in pts]
        return make([i for i in range(2)
                     if g1[i] == t[i] or (g2[i] != t[i] and g1[i] == (t[i] + 1) % 3)])

    w = dk.Witness(flavor="natarajan", order=1, evaluator=evaluator)
    spec = dk.GoodFunctionSpec(witness=w, num_labels=3)
    reference = dk.GoodFunctionSpec(witness=dk.Witness(
        flavor="natarajan", order=1,
        evaluator=lambda *args: frozenset(evaluator(*args))), num_labels=3)
    for points in ((0, 2, 3), (1, 3), (3,)):
        got = dk.good_patterns(spec, points).patterns
        assert got == oracles.good_patterns_bruteforce(spec, points)
        assert got == dk.good_patterns(reference, points).patterns
    assert len(dk.good_patterns(spec, (0, 2, 3))) > 1  # not only the zero pattern


@pytest.mark.parametrize("family, q", [(dk.natarajan_family, 3), (dk.graph_family, 3),
                                       (dk.graph_family, 2)])
@pytest.mark.parametrize("name", PSI_ANSWERS)
def test_exclusion_matches_full_sweep_for_psi_answer_types(name, family, q):
    make = PSI_ANSWERS[name]
    fam = family(q)

    def evaluator(pts, psibar):
        # the bit that label pts[i] % q, or failing that the next label, has
        bits = []
        for x, psi in zip(pts, psibar):
            v = psi.table[x % q]
            bits.append(int(v == 1 or v == STAR and psi.table[(x + 1) % q] == 1))
        return make(bits)

    w = dk.Witness(flavor="psi", order=1, psi=fam, evaluator=evaluator)
    spec = dk.GoodFunctionSpec(witness=w, num_labels=q)
    for points in ((0, 2, 3), (1, 3)):
        got = dk.good_patterns(spec, points).patterns
        assert got == oracles.good_patterns_bruteforce(spec, points)
    assert len(dk.good_patterns(spec, (0, 2, 3))) > 1


@pytest.mark.parametrize("flavor, family", [("natarajan", None), ("psi", dk.graph_family(3))])
def test_shattered_input_propagates_out_of_good_patterns(flavor, family):
    # single points of this class are shattered, so the canonical witness of
    # order 0 has no answer there
    cls = dk.class_from_supports([{0: 1, 1: 2}, {0: 2}, {1: 1}], num_labels=3)
    w = dk.canonical_witness(cls, flavor, 0, psi=family)
    spec = dk.GoodFunctionSpec(witness=w, num_labels=3)
    with pytest.raises(dk.ShatteredError) as err:
        dk.good_patterns(spec, (0, 1))
    assert err.value.witness_input[0] == (0,)


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


@pytest.mark.parametrize("points", [(-1, 1), (-1,), (0, -3, 2)])
def test_good_patterns_rejects_negative_points(points):
    # a negative point would index a pattern from its end: p[-1]
    _, spec = three_hyp_spec()
    with pytest.raises(dk.DomainError, match=f"point {min(points)} is not a natural"):
        dk.good_patterns(spec, points)


def test_erm_rejects_negative_sample_points():
    _, spec = three_hyp_spec()
    with pytest.raises(dk.DomainError, match="point -1 is not a natural"):
        dk.erm_augmented(spec, ((-1, 0), (1, 2)))


@pytest.mark.parametrize("sample, error, message", [
    (((0, True), (1, 1.5)), dk.PreconditionError, "sample label True outside the alphabet"),
    (((0, 1), (1, 1.5)), dk.PreconditionError, "sample label 1.5 outside the alphabet"),
    (((0, 1), (1, 3)), dk.PreconditionError, "sample label 3 outside the alphabet"),
    ((("1", 1), (0, 1)), dk.DomainError, "point '1' is not a natural"),
])
def test_erm_takes_only_exact_int_labels_and_points(sample, error, message):
    # a bool label counted as label 1, and a str point raised a raw TypeError
    _, spec = three_hyp_spec()
    with pytest.raises(error) as err:
        dk.erm_augmented(spec, sample)
    assert str(err.value) == message


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


def test_spec_rejects_family_alphabet_mismatch():
    # a family over 2 labels says nothing about label 2 of a 3-label alphabet
    w = dk.Witness(flavor="psi", order=0, psi=dk.graph_family(2),
                   evaluator=lambda pts, psibar: (0,))
    with pytest.raises(dk.PreconditionError):
        dk.GoodFunctionSpec(witness=w, num_labels=3)


def test_spec_needs_a_label():
    # with no labels the enumeration had no all-zero pattern and returned an
    # empty behavior set, though v(T) is never empty
    _, spec = three_hyp_spec()
    for q in (0, -1):
        with pytest.raises(dk.PreconditionError):
            dk.GoodFunctionSpec(witness=spec.witness, num_labels=q)


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
