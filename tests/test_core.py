import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dimkit as dk
import oracles
from dimkit.core import _hypothesis_masks


@st.composite
def table_classes(draw, max_domain=4, max_labels=4, max_hypotheses=16):
    n = draw(st.integers(1, max_domain))
    q = draw(st.integers(2, max_labels))
    rows = draw(
        st.lists(
            st.tuples(*([st.integers(0, q - 1)] * n)),
            min_size=1,
            max_size=max_hypotheses,
            unique=True,
        )
    )
    return dk.class_from_tables(rows, num_labels=q)


# ---------------------------------------------------------------- restrict

def test_restrict_single_column():
    h = dk.class_from_tables([(0, 1), (1, 0), (2, 2)], num_labels=3)
    assert dk.restrict(h, (0,)).patterns == ((0,), (1,), (2,))


def test_restrict_keeps_distinct_rows():
    h = dk.class_from_tables([(0, 1), (1, 0), (2, 2)], num_labels=3)
    assert dk.restrict(h, (0, 1)).patterns == ((0, 1), (1, 0), (2, 2))


def test_restrict_finite_support_defaults_to_zero():
    h = dk.class_from_supports([{0: 1}, {5: 2}], num_labels=3)
    assert dk.restrict(h, (0, 5)).patterns == ((0, 2), (1, 0))


def test_restrict_rejects_out_of_domain_point():
    h = dk.class_from_tables([(0, 1)], num_labels=2)
    with pytest.raises(dk.DomainError):
        dk.restrict(h, (0, 2))


def test_restrict_rejects_duplicates():
    h = dk.class_from_tables([(0, 1)], num_labels=2)
    with pytest.raises(dk.PreconditionError):
        dk.restrict(h, (0, 0))


def test_oracle_class_arity_mismatch_is_representation_error():
    bad = dk.HypothesisClass(num_labels=2, behavior_fn=lambda pts: [(0,)])
    with pytest.raises(dk.RepresentationError):
        dk.restrict(bad, (0, 1))


@pytest.mark.parametrize("answer, message", [
    ([(0,), 5], "oracle behavior: 5 is not iterable"),
    (7, "oracle answer: 7 is not iterable"),
])
def test_oracle_answer_that_is_not_iterable_is_refused_by_name(answer, message):
    bad = dk.HypothesisClass(num_labels=2, behavior_fn=lambda pts: answer)
    with pytest.raises(dk.RepresentationError, match=f"^{message}$"):
        dk.restrict(bad, (0,))


def test_oracle_errors_propagate_as_raised():
    def behaviors(pts):
        yield (0,)
        raise TypeError("the oracle's own")

    def pattern(pts):
        yield 0
        raise TypeError("the oracle's own")

    for fn in (behaviors, lambda pts: [(0,), pattern(pts)]):
        with pytest.raises(TypeError, match="the oracle's own"):
            dk.restrict(dk.HypothesisClass(num_labels=2, behavior_fn=fn), (0,))


@st.composite
def explicit_classes(draw):
    """A table class, or a class over the naturals with supports in [0, 5]."""
    if draw(st.booleans()):
        return draw(table_classes())
    q = draw(st.integers(2, 4))
    supports = draw(st.lists(
        st.dictionaries(st.integers(0, 5), st.integers(1, q - 1), max_size=4),
        min_size=1, max_size=10, unique_by=lambda s: tuple(sorted(s.items()))))
    return dk.class_from_supports(supports, num_labels=q)


@given(explicit_classes(),
       st.lists(st.lists(st.integers(-2, 8), unique=True, max_size=4), min_size=1, max_size=6))
def test_restrict_matches_reference_on_one_class_object(cls, calls):
    # every call goes to the same class object, so early calls fill its
    # column cache and later ones read it; points come unsorted, past every
    # support, outside a finite domain or negative, and a failing call is
    # followed by further calls
    for points in [*calls, [], *reversed(calls)]:
        points = tuple(points)
        try:
            want = oracles.restrict_reference(cls, points)
        except dk.DomainError:
            with pytest.raises(dk.DomainError):
                dk.restrict(cls, points)
            continue
        got = dk.restrict(cls, points)
        assert (got.points, got.patterns) == (points, want)


@given(explicit_classes())
def test_cached_columns_and_masks_match_the_hypotheses(cls):
    # a table class fills every column from its rows at once; a class over
    # the naturals fills every support point's column at once, and any other
    # point's the first time it is used
    hyps = cls.hypotheses
    if cls.domain_size is not None:
        assert set(cls._columns) == set(range(cls.domain_size))
        points = tuple(range(cls.domain_size))
    else:
        assert set(cls._columns) == {x for h in hyps for x, _ in h.support}
        points = tuple(range(7))
    masks = _hypothesis_masks(cls, points)
    for x, column_masks in zip(points, masks):
        assert cls._columns[x] == tuple(h(x) for h in hyps)
        assert column_masks == {
            v: sum(1 << j for j, h in enumerate(hyps) if h(x) == v) for v in set(cls._columns[x])}


@given(table_classes())
def test_restrict_size_bounds(cls):
    points = tuple(range(cls.domain_size))
    got = dk.restrict(cls, points)
    assert len(got) <= min(len(cls.hypotheses), cls.num_labels ** len(points))


@given(table_classes(max_domain=4))
def test_projection_consistency(cls):
    domain = tuple(range(cls.domain_size))
    for r in range(1, len(domain) + 1):
        for pts in itertools.combinations(domain, r):
            full = dk.restrict(cls, pts)
            for r2 in range(1, r + 1):
                for keep in itertools.combinations(range(r), r2):
                    sub = tuple(pts[i] for i in keep)
                    projected = {tuple(p[i] for i in keep) for p in full.patterns}
                    assert projected == set(dk.restrict(cls, sub).patterns)


# -------------------------------------------------------------------- risk

def test_empirical_risk_perfect_fit():
    h = dk.Hypothesis(num_labels=3, table=(2, 2))
    assert dk.empirical_risk(h, ((0, 2), (1, 2))) == 0


def test_empirical_risk_half():
    h = dk.Hypothesis(num_labels=2, table=(0, 1))
    assert dk.empirical_risk(h, ((0, 0), (1, 0))) == Fraction(1, 2)


def test_empirical_risk_counts_repeats():
    h = dk.Hypothesis(num_labels=2, table=(0, 1))
    assert dk.empirical_risk(h, ((0, 1), (0, 1), (1, 1))) == Fraction(2, 3)


def test_empirical_risk_rejects_empty_sample():
    h = dk.Hypothesis(num_labels=2, table=(0,))
    with pytest.raises(dk.PreconditionError):
        dk.empirical_risk(h, ())


def test_true_risk_realizable_pair_is_zero():
    h = dk.Hypothesis(num_labels=3, table=(1, 2))
    d = dk.FiniteDistribution.uniform_on_graph((0, 1), (1, 2))
    assert dk.true_risk(h, d) == 0


def test_true_risk_total_miss():
    h = dk.Hypothesis(num_labels=3, table=(1, 1))
    d = dk.FiniteDistribution.uniform_on_graph((0, 1), (2, 2))
    assert dk.true_risk(h, d) == 1


def test_true_risk_weighted_atom():
    h = dk.Hypothesis(num_labels=3, table=(1, 2))
    d = dk.FiniteDistribution(
        atoms=(((0, 1), Fraction(1, 3)), ((1, 1), Fraction(2, 3)))
    )
    assert dk.true_risk(h, d) == Fraction(2, 3)


@given(table_classes(max_domain=3, max_hypotheses=6), st.randoms(use_true_random=False))
def test_risk_agreement_on_uniform_distinct_samples(cls, rng):
    h = cls.hypotheses[0]
    points = range(cls.domain_size)
    pairs = sorted({(x, rng.randrange(cls.num_labels)) for x in points})
    d = dk.FiniteDistribution(
        atoms=tuple((p, Fraction(1, len(pairs))) for p in pairs)
    )
    assert dk.empirical_risk(h, tuple(pairs)) == dk.true_risk(h, d)


def test_distribution_validation():
    with pytest.raises(dk.RepresentationError):
        dk.FiniteDistribution(atoms=(((0, 0), Fraction(1, 2)),))
    with pytest.raises(dk.RepresentationError):
        dk.FiniteDistribution(
            atoms=(((0, 0), Fraction(1, 2)), ((0, 0), Fraction(1, 2)))
        )


def test_uniform_on_graph_needs_one_value_per_point():
    # no points used to raise ZeroDivisionError, and unequal lengths a raw
    # ValueError from zip
    for points, values in (((), ()), ((0, 1), (1,)), ((0,), (1, 2))):
        with pytest.raises(dk.RepresentationError):
            dk.FiniteDistribution.uniform_on_graph(points, values)


# ------------------------------------------------------------ mix_labelings

def test_mix_full_set_is_first_labeling():
    assert dk.mix_labelings({0, 1}, (0, 0), (1, 1)) == (0, 0)


def test_mix_empty_set_is_second_labeling():
    assert dk.mix_labelings(set(), (0, 0), (1, 1)) == (1, 1)


def test_mix_single_index():
    assert dk.mix_labelings({0}, (0, 0), (1, 1)) == (0, 1)


def test_mix_rejects_arity_mismatch():
    with pytest.raises(dk.PreconditionError):
        dk.mix_labelings({0}, (0,), (1, 1))


@pytest.mark.parametrize("index_set, message", [
    ({-1}, "index -1 outside arity 2"),
    ({2}, "index 2 outside arity 2"),
    ({"a"}, "index 'a' is not an exact int"),
    ({True}, "index True is not an exact int"),
    ({1.0}, "index 1.0 is not an exact int"),
])
def test_mix_refuses_indices_outside_the_arity(index_set, message):
    # {True} once read True as index 1, and {"a"} raised a raw TypeError
    with pytest.raises(dk.PreconditionError, match=f"^{re.escape(message)}$"):
        dk.mix_labelings(index_set, (0, 1), (1, 0))


@given(st.integers(1, 4).flatmap(lambda n: st.sets(
    st.tuples(*([st.integers(0, 3)] * n)), min_size=1, max_size=20)))
def test_behavior_index_partitions_the_behaviors(pats):
    arity = len(next(iter(pats)))
    behaviors = dk.BehaviorSet(points=tuple(range(arity)), patterns=tuple(sorted(pats)))
    listed = list(behaviors.pattern_set)
    full = (1 << len(listed)) - 1
    assert len(behaviors.index) == arity
    for i, column in enumerate(behaviors.index):
        union = 0
        for v, mask in column.items():
            assert not union & mask
            union |= mask
            assert mask == sum(1 << j for j, p in enumerate(listed) if p[i] == v)
        assert union == full


# ------------------------------------------------- truncate and max_support

def test_truncate_zero_function_stays_zero():
    h = dk.Hypothesis(num_labels=2, support=())
    assert dk.truncate(h, 7).support == ()


def test_truncate_drops_far_support():
    h = dk.Hypothesis(num_labels=6, support=((3, 5), (9, 1)))
    assert dk.truncate(h, 5).support == ((3, 5),)


def test_truncate_keeps_boundary():
    h = dk.Hypothesis(num_labels=2, support=((0, 1),))
    assert dk.truncate(h, 0).support == ((0, 1),)


def test_truncate_refuses_a_negative_point():
    h = dk.Hypothesis(num_labels=2, support=((0, 1),))
    with pytest.raises(dk.PreconditionError, match="truncation point must be a natural"):
        dk.truncate(h, -1)


def test_max_support_of_zero_is_none():
    assert dk.max_support(dk.Hypothesis(num_labels=2, support=())) is None


def test_max_support_of_support_rep():
    assert dk.max_support(dk.Hypothesis(num_labels=6, support=((3, 5), (9, 1)))) == 9


def test_max_support_of_table():
    assert dk.max_support(dk.Hypothesis(num_labels=3, table=(0, 2, 0))) == 1


@given(
    st.lists(st.tuples(st.integers(0, 9), st.integers(1, 3)), max_size=5),
    st.integers(0, 9),
)
def test_truncate_properties(raw, m):
    support = {x: y for x, y in raw}
    h = dk.Hypothesis(num_labels=4, support=tuple(support.items()))
    t = dk.truncate(h, m)
    for x in range(m + 1):
        assert t(x) == h(x)
    top = dk.max_support(t)
    assert top is None or top <= m


# ------------------------------------------------------------- validation

def test_hypothesis_requires_exactly_one_representation():
    with pytest.raises(dk.RepresentationError):
        dk.Hypothesis(num_labels=2)
    with pytest.raises(dk.RepresentationError):
        dk.Hypothesis(num_labels=2, table=(0,), support=())


def test_support_rejects_explicit_zero():
    with pytest.raises(dk.RepresentationError):
        dk.Hypothesis(num_labels=2, support=((0, 0),))


def test_class_rejects_duplicates():
    with pytest.raises(dk.RepresentationError):
        dk.class_from_tables([(0, 1), (0, 1)], num_labels=2)


def test_class_orders_hypotheses_canonically():
    cls = dk.class_from_tables([(1, 1), (0, 0)], num_labels=2)
    assert [h.table for h in cls.hypotheses] == [(0, 0), (1, 1)]


def test_explicit_class_agrees_with_oracle_view():
    rows = [(0, 1), (1, 0), (2, 2)]
    explicit = dk.class_from_tables(rows, num_labels=3)
    oracle = dk.HypothesisClass(
        num_labels=3,
        domain_size=2,
        behavior_fn=lambda pts: {tuple(r[x] for x in pts) for r in rows},
    )
    for pts in ((0,), (1,), (0, 1), (1, 0)):
        assert dk.restrict(explicit, pts).patterns == dk.restrict(oracle, pts).patterns


# ---------------------------------------------------------- exact-int entries

def _good_patterns(points):
    cls = dk.class_from_supports([{1: 1}, {0: 1}, {0: 2, 1: 2}], num_labels=3)
    spec = dk.GoodFunctionSpec(witness=dk.canonical_witness(cls, "natarajan", 1),
                               num_labels=3)
    return dk.good_patterns(spec, points).patterns


def _oracle_answers(entries):
    oracle = dk.HypothesisClass(num_labels=3, behavior_fn=lambda pts: [entries, (0, 0)])
    return dk.restrict(oracle, (0, 1)).patterns


# Each entry point that takes labels, points or encoder outputs: its exact-int
# entries, a function of a tuple of entries, and that function's value on them.
ENTRY_POINTS = {
    "Hypothesis table": ((0, 1, 2), lambda e: dk.Hypothesis(num_labels=3, table=e).table,
                         (0, 1, 2)),
    "Hypothesis support points": (
        (0, 4), lambda e: dk.Hypothesis(num_labels=3, support=tuple(zip(e, (2, 1)))).support,
        ((0, 2), (4, 1))),
    "Hypothesis support labels": (
        (2, 1), lambda e: dk.Hypothesis(num_labels=3, support=tuple(zip((4, 0), e))).support,
        ((0, 1), (4, 2))),
    "class_from_tables": (
        (0, 1, 1, 0),
        lambda e: [h.table for h in dk.class_from_tables([e[:2], e[2:]], 2).hypotheses],
        [(0, 1), (1, 0)]),
    "class_from_supports": (
        (10, 1), lambda e: dk.class_from_supports([{e[0]: e[1]}], 2).hypotheses[0].support,
        ((10, 1),)),
    "PsiFunction": ((0, 1, dk.STAR), lambda e: dk.PsiFunction(table=e).table,
                    (0, 1, dk.STAR)),
    "restrict points": (
        (2, 0), lambda e: dk.restrict(dk.class_from_tables([(0, 1, 2), (2, 1, 0)], 3), e).patterns,
        ((0, 2), (2, 0))),
    "oracle answers": ((2, 1), _oracle_answers, ((0, 0), (2, 1))),
    "FiniteDistribution atoms": (
        (0, 1, 3, 0),
        lambda e: dk.FiniteDistribution(atoms=((e[:2], Fraction(1, 3)),
                                               (e[2:], Fraction(2, 3)))).atoms,
        (((0, 1), Fraction(1, 3)), ((3, 0), Fraction(2, 3)))),
    "good_patterns points": ((2, 0), _good_patterns,
                             ((0, 0), (1, 0), (2, 0), (2, 1), (2, 2))),
}
DIMKIT_ERRORS = (dk.RepresentationError, dk.DomainError, dk.PreconditionError)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@given(st.data())
def test_entries_must_be_exact_ints(name, data):
    # a bool, float, str or None entry is refused, never coerced by int();
    # the exact ints give the value they always gave
    entries, build, value = ENTRY_POINTS[name]
    assert build(entries) == value
    j = data.draw(st.integers(0, len(entries) - 1), label="position")
    bad = data.draw(st.sampled_from([True, False, 1.0, 0.5, 1.9, "1", "10", None]),
                    label="entry")
    with pytest.raises(DIMKIT_ERRORS):
        build(entries[:j] + (bad,) + entries[j + 1:])


@pytest.mark.parametrize("build", [
    lambda: dk.Hypothesis(num_labels=3, table=(1.9,)),
    lambda: dk.class_from_supports([{"10": 1}], 2),
    lambda: dk.restrict(dk.class_from_tables([(0, 1), (1, 0)], 2), ("1", 0.5)),
    lambda: _good_patterns((0.9, 1)),
], ids=["label 1.9", "support key '10'", "points '1' and 0.5", "point 0.9"])
def test_values_int_used_to_coerce_are_refused(build):
    with pytest.raises(DIMKIT_ERRORS):
        build()


def test_entry_errors_name_the_entry():
    for build, message in (
        (lambda: dk.Hypothesis(num_labels=3, table=(0, 1, 5)), "[2]: label 5 outside 0..2"),
        (lambda: dk.Hypothesis(num_labels=2, support=((3, 2),)),
         "support[3]: label 2 outside 1..1"),
        (lambda: dk.Hypothesis(num_labels=2, support=((-1, 1),)),
         "support[-1]: point is not a natural"),
        (lambda: dk.Hypothesis(num_labels=2, support=((3, 1), (3, 1))),
         "support[3]: duplicate point"),
        (lambda: dk.PsiFunction(table=(0, 3)), "encoder output 3 outside {0,1,*}"),
    ):
        with pytest.raises(dk.RepresentationError) as err:
            build()
        assert str(err.value) == message


def _exact_int_calls():
    """(argument, call) pairs, each call taking one count or window that
    should be an exact int."""
    three = dk.class_from_tables([(0, 1, 2), (1, 1, 0), (2, 0, 1)], num_labels=3)
    natarajan = dk.canonical_witness(three, "natarajan", 1)
    learner = dk.constant_learner(0, num_labels=3, window=2)
    family = dk.PsiFamily(members=dk.psi.all_encoders(2)[:1], num_labels=2)
    h = dk.Hypothesis(num_labels=2, table=(0, 1))
    return [
        ("Witness.order", lambda v: dk.Witness("graph", v, lambda *a: ())),
        ("witness_from_learner.m", lambda v: dk.witness_from_learner(learner, v)),
        ("sauer_crossover.order", lambda v: dk.sauer_crossover(v, 3)),
        ("sauer_crossover.labels", lambda v: dk.sauer_crossover(1, v)),
        ("validate_witness.window", lambda v: dk.validate_witness(natarajan, three, v)),
        ("exact_dimension.window", lambda v: dk.exact_dimension(three, "natarajan", window=v)),
        ("constant_learner.window", lambda v: dk.constant_learner(0, num_labels=3, window=v)),
        ("gap_class.m", dk.gap_class),
        ("full_class.n", lambda v: dk.full_class(v, 2)),
        ("full_class.labels", lambda v: dk.full_class(2, v)),
        ("failing_psi_class.window", lambda v: dk.psi.failing_psi_class(family, v)),
        ("sauer_natarajan_check.d", lambda v: dk.sauer_natarajan_check(three, (0, 1), v)),
        ("truncate.m", lambda v: dk.truncate(dk.Hypothesis(num_labels=2, support=((0, 1),)), v)),
        ("graph_family.labels", dk.graph_family),
        ("natarajan_family.labels", dk.natarajan_family),
        ("witness_inputs.labels", lambda v: dk.witnesses.witness_inputs(natarajan, v)),
        ("PsiFamily.labels", lambda v: dk.PsiFamily(family.members, v)),
        ("realizable_enumeration_erm.budget",
         lambda v: dk.realizable_enumeration_erm(iter((h,)), ((0, 0),), v)),
        ("GoodFunctionSpec.labels", lambda v: dk.GoodFunctionSpec(natarajan, v)),
    ]


@pytest.mark.parametrize("bad", [1.5, 2.0, True, "1"])
@pytest.mark.parametrize("call", _exact_int_calls(), ids=lambda c: c[0])
def test_counts_and_windows_refuse_values_that_are_not_exact_ints(call, bad):
    """A float, a bool or a str where a count or a window belongs raises
    PreconditionError naming the value, never a raw TypeError, and a bool
    is not read as 0 or 1."""
    _, make = call
    with pytest.raises(dk.PreconditionError, match=f" {re.escape(repr(bad))} is not an exact int$"):
        make(bad)


@pytest.mark.parametrize("build, message", [
    (lambda: dk.Hypothesis(num_labels=True, table=(0,)), "alphabet size True is not an exact int"),
    (lambda: dk.Hypothesis(num_labels=2.5, table=(0,)), "alphabet size 2.5 is not an exact int"),
    (lambda: dk.Hypothesis(num_labels="3", table=(0,)), "alphabet size '3' is not an exact int"),
    (lambda: dk.HypothesisClass(num_labels=2.0, domain_size=1, rows=[(0,)]),
     "alphabet size 2.0 is not an exact int"),
    (lambda: dk.HypothesisClass(num_labels=2, domain_size=2.0, rows=[(0, 1)]),
     "domain size 2.0 is not an exact int"),
    (lambda: dk.HypothesisClass(num_labels=2, domain_size=True, rows=[(0,)]),
     "domain size True is not an exact int"),
    (lambda: dk.HypothesisClass(num_labels=2, domain_size=1, hypotheses=((0,),)),
     "hypotheses[0]: (0,) is not a Hypothesis"),
    (lambda: dk.class_from_tables([[]], 2), "domain size 0 is not positive"),
    (lambda: dk.HypothesisClass(num_labels=0, behavior_fn=lambda pts: ()),
     "alphabet must contain label 0"),
], ids=["label True", "labels 2.5", "labels '3'", "class labels 2.0", "domain 2.0",
        "domain True", "row (0,)", "empty domain", "no label 0"])
def test_class_constructors_refuse_values_outside_their_domain(build, message):
    """Each raises one of dimkit's errors naming the value, never a raw
    TypeError or AttributeError, and an empty domain is refused as the
    class file loader refuses it."""
    with pytest.raises(DIMKIT_ERRORS) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("build, message", [
    (lambda: dk.Hypothesis(num_labels=2, table=5), "table: 5 is not iterable"),
    (lambda: dk.Hypothesis(num_labels=2, support=5), "support: 5 is not iterable"),
    (lambda: dk.class_from_tables([5], 2), "hypotheses[0]: 5 is not iterable"),
    (lambda: dk.class_from_tables([(0,), 5], 2), "hypotheses[1]: 5 is not iterable"),
    (lambda: dk.class_from_tables(5, 2), "hypotheses: 5 is not iterable"),
    (lambda: dk.class_from_supports([{}, 5], 2), "hypotheses[1]: 5 is not iterable"),
    (lambda: dk.class_from_supports(5, 2), "hypotheses: 5 is not iterable"),
    (lambda: dk.HypothesisClass(num_labels=2, domain_size=1, rows=5),
     "hypotheses: 5 is not iterable"),
    (lambda: dk.HypothesisClass(num_labels=2, domain_size=1, hypotheses=5),
     "hypotheses: 5 is not iterable"),
], ids=["table 5", "support 5", "table row 5", "second table row 5", "tables 5",
        "support row 5", "supports 5", "rows 5", "hypotheses 5"])
def test_members_that_are_not_iterable_are_refused_by_name(build, message):
    """A table, support or member list that is not iterable raises
    RepresentationError where it enters, not a raw TypeError."""
    with pytest.raises(dk.RepresentationError) as err:
        build()
    assert str(err.value) == message


def test_rows_and_hypotheses_build_the_same_class():
    rows = [(2, 0), (0, 1), (1, 1)]
    hyps = [dk.Hypothesis(num_labels=3, table=r) for r in rows]
    by_rows = dk.class_from_tables(rows, 3)
    by_hyps = dk.HypothesisClass(num_labels=3, domain_size=2, hypotheses=hyps)
    assert by_rows == by_hyps and hash(by_rows) == hash(by_hyps)
    assert by_rows.rows == by_hyps.rows == ((0, 1), (1, 1), (2, 0))
    assert by_rows.hypotheses == by_hyps.hypotheses == tuple(sorted(hyps, key=dk.Hypothesis.sort_key))
    assert repr(by_rows) == repr(by_hyps)
    supports = [{4: 1, 0: 2}, {}, {3: 1}]
    by_rows = dk.class_from_supports(supports, 3)
    by_hyps = dk.HypothesisClass(num_labels=3, hypotheses=[
        dk.Hypothesis(num_labels=3, support=s.items()) for s in supports])
    assert by_rows == by_hyps and by_rows.rows == ((), ((0, 2), (4, 1)), ((3, 1),))
    # a row's error names the row, as the class file loader reports it
    for build, message in (
        (lambda: dk.class_from_tables([(0, 1), (1, 5)], 3), "hypotheses[1][1]: label 5 outside 0..2"),
        (lambda: dk.class_from_tables([(0, 1), (1,)], 3),
         "hypotheses[1]: table length 1 differs from domain size 2"),
        (lambda: dk.class_from_supports([{}, {2: 1, 4: 3}], 3),
         "hypotheses[1].support[4]: label 3 outside 1..2"),
        (lambda: dk.class_from_supports([{}, ((2, 1), (2, 2))], 3),
         "hypotheses[1].support[2]: duplicate point"),
        (lambda: dk.class_from_tables([(0, 1), (1, 0), (0, 1)], 3),
         "duplicate hypotheses at indices [2]"),
        (lambda: dk.HypothesisClass(num_labels=2, domain_size=1, rows=[(0,), 5]),
         "hypotheses[1]: 5 is not a tuple or list"),
        (lambda: dk.class_from_supports([{}, [(1,)]], 2),
         "hypotheses[1].support: (1,) is not a (point, label) pair"),
    ):
        with pytest.raises(dk.RepresentationError) as err:
            build()
        assert str(err.value) == message


def test_verify_certificate_refuses_what_is_not_a_certificate():
    with pytest.raises(dk.PreconditionError, match="^str is not a ShatterCertificate$"):
        dk.verify_certificate("junk", dk.full_class(2, 2))


@pytest.mark.parametrize("args, message", [
    ((True, Fraction(1, 4), Fraction(1, 5)), "number of hypotheses True is not an exact int"),
    ((1, "a", Fraction(1, 10)), "eps 'a' is not a Fraction"),
    ((1, 0.1, Fraction(1, 10)), "eps 0.1 is not a Fraction"),
    ((1, Fraction(1, 10), 0.5), "delta 0.5 is not a Fraction"),
    ((1, Fraction(1, 10), 1), "delta 1 is not a Fraction"),
])
def test_uc_sample_size_takes_an_exact_int_and_fractions(args, message):
    # a float eps of 0.1 would be read as 3602879701896397/2^55, not 1/10
    with pytest.raises(dk.PreconditionError) as err:
        dk.uc_sample_size(*args)
    assert str(err.value) == message


def test_random_table_class_draws_without_listing_every_row():
    """The corpus draws a class's rows as indices into the q^domain rows:
    below sys.maxsize rows it picks the rows sampling the listed rows
    would, and a 40-point class over three labels (3^40 > 2^63 rows, too
    many to list) is drawn in one step."""
    import random

    from corpus import random_table_class

    for seed in range(20):
        rng, listed = random.Random(seed), random.Random(seed)
        rows = list(itertools.product(range(3), repeat=4))
        want = dk.class_from_tables(listed.sample(rows, listed.randint(1, 12)), num_labels=3)
        assert random_table_class(rng, 4, 3, 12).hypotheses == want.hypotheses
        assert rng.getstate() == listed.getstate()
    wide = random_table_class(random.Random(1), 40, 3, 12)
    assert wide.domain_size == 40 and 1 <= len(set(wide.rows)) == len(wide.rows) <= 12
