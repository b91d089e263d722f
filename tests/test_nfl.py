import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dimkit as dk
from dimkit import nfl
from oracles import exact_expected_risk as reference_risk
from oracles import nfl_adversary as reference_adversary


def test_expected_risk_constant_learner_total_miss():
    learner = dk.constant_learner(1, num_labels=3, window=1)
    expected, table = dk.exact_expected_risk(learner, (0, 1), (2, 2), 1)
    assert expected == 1
    assert [risk for _, risk in table] == [1, 1]


def test_expected_risk_constant_learner_perfect():
    learner = dk.constant_learner(1, num_labels=3, window=1)
    expected, _ = dk.exact_expected_risk(learner, (0, 1), (1, 1), 1)
    assert expected == 0


def test_expected_risk_memorizer():
    # After seeing (0,1) the memorizer errs at 1 only; after (1,2) it is
    # exact everywhere, so the average over both sequences is 1/4.
    learner = dk.memorizing_learner(1, num_labels=3, window=1)
    expected, table = dk.exact_expected_risk(learner, (0, 1), (1, 2), 1)
    assert expected == Fraction(1, 4)
    assert sorted(risk for _, risk in table) == [0, Fraction(1, 2)]


def test_adversary_against_constant_learner():
    learner = dk.constant_learner(1, num_labels=3, window=1)
    report = dk.nfl_adversary(learner, (0, 1), (1, 1), (2, 2))
    assert report.f_values == (2, 2)
    assert report.index_set == frozenset()
    assert report.expected_risk == 1
    assert report.tail_probability == 1
    assert report.mixtures_examined == 1


def test_adversary_target_is_realizable_by_construction():
    learner = dk.memorizing_learner(0, num_labels=3, window=1)
    report = dk.nfl_adversary(learner, (0, 1), (1, 1), (2, 2))
    f = dk.Hypothesis(num_labels=3, table=report.f_values)
    assert dk.true_risk(f, report.distribution) == 0


def test_adversary_against_erm_singleton():
    erm = dk.erm_learner(dk.class_from_tables([(1, 1)], num_labels=3))
    report = dk.nfl_adversary(erm, (0, 1), (1, 1), (2, 2))
    assert report.index_set != frozenset({0, 1})
    assert report.f_values == (2, 2)


def test_adversary_m2_against_even_mixture_erm():
    g1, g2 = (0, 0, 0, 0), (1, 1, 1, 1)
    rows = [
        dk.mix_labelings(I, g1, g2)
        for I in ({}, {0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {0, 1, 2, 3})
    ]
    erm = dk.erm_learner(dk.class_from_tables(rows, num_labels=2))
    report = dk.nfl_adversary(erm, (0, 1, 2, 3), g1, g2)
    assert report.mixtures_examined <= 16
    assert report.expected_risk >= Fraction(1, 4)
    assert report.tail_probability >= Fraction(1, 7)


def test_adversary_rejects_bad_inputs():
    learner = dk.constant_learner(0, num_labels=2, window=3)
    with pytest.raises(dk.PreconditionError):
        dk.nfl_adversary(learner, (0, 1, 2), (0, 0, 0), (1, 1, 1))
    with pytest.raises(dk.PreconditionError):
        dk.nfl_adversary(learner, (0, 1), (0, 0), (1, 0))


def test_adversary_rejects_points_that_are_not_naturals():
    # ("a", "b") once raised a raw TypeError while the multisets were sorted
    learner = dk.constant_learner(0, num_labels=3, window=3)
    for points, shown in ((("a", "b"), "'a'"), ((0, -1), "-1"), ((0, True), "True")):
        with pytest.raises(dk.DomainError, match=f"^point {shown} is not a natural$"):
            dk.nfl_adversary(learner, points, (0, 1), (1, 0))


@pytest.mark.parametrize("g1, g2", [((-1, -1), (1, 1)), ((0, 1), (1, -2))])
def test_adversary_rejects_negative_labels(g1, g2):
    learner = dk.constant_learner(0, num_labels=2, window=1)
    with pytest.raises(dk.PreconditionError, match="labels must be naturals"):
        dk.nfl_adversary(learner, (0, 1), g1, g2)


@pytest.mark.parametrize("g1, g2", [((0.5, 1), (True, 2)), ((0, 1), (True, 2)),
                                    ((0, "1"), (1, 2)), ((0, 1), (1, 2.0))])
def test_adversary_rejects_labels_that_are_not_exact_ints(g1, g2):
    # (0.5, 1) against (True, 2) returned f_values (True, 2)
    learner = dk.constant_learner(0, num_labels=3, window=3)
    with pytest.raises(dk.PreconditionError, match="labels must be naturals"):
        dk.nfl_adversary(learner, (0, 1), g1, g2)


def test_adversary_labels_outside_the_learners_alphabet_are_mistakes():
    """A ``Learner`` carries no alphabet, so a label no hypothesis outputs
    is taken as given: it is always a mistake, and the adversary and the
    learner witness answer on it."""
    learner = dk.constant_learner(0, num_labels=3, window=3)
    report = dk.nfl_adversary(learner, (0, 1), (0, 1), (5, 0))
    assert report.f_values == (5, 0) and report.index_set == frozenset()
    assert report.expected_risk == Fraction(1, 2)
    witness = dk.witness_from_learner(learner, 1)
    assert witness.evaluate((0, 1), (7, 0), (1, 2)) == frozenset()


def _built_in_learners(num_labels, window):
    base = dk.class_from_supports([{0: 1}, {1: 1}], num_labels=num_labels)
    witness = dk.canonical_witness(base, "natarajan", 1)
    spec = dk.GoodFunctionSpec(witness=witness, num_labels=num_labels)
    erm_cls = dk.class_from_tables(
        [(0,) * (window + 1), (1,) * (window + 1)], num_labels=num_labels
    )
    return [
        dk.constant_learner(0, num_labels, window),
        dk.memorizing_learner(1, num_labels, window),
        dk.erm_learner(erm_cls),
        dk.agnostic_learner(spec),
    ]


def _fields(report):
    return (report.f_values, report.index_set, report.expected_risk,
            report.tail_probability, report.mixtures_examined)


@pytest.mark.parametrize("m", [1, 2])
def test_adversary_constants_for_every_builtin_learner(m):
    points = tuple(range(2 * m))
    g1 = (1,) * (2 * m)
    g2 = (2,) * (2 * m)
    for learner in _built_in_learners(3, 2 * m - 1):
        report = dk.nfl_adversary(learner, points, g1, g2)
        assert report.expected_risk >= Fraction(1, 4)
        assert report.tail_probability >= Fraction(1, 7)
        assert not report.markov_flag
        # the mixture property: f follows g1 exactly on the index set
        rebuilt = dk.mix_labelings(report.index_set, g1, g2)
        assert rebuilt == report.f_values


def test_adversary_m3_smoke():
    for learner in (
        dk.constant_learner(0, num_labels=2, window=5),
        dk.memorizing_learner(1, num_labels=2, window=5),
    ):
        report = dk.nfl_adversary(learner, tuple(range(6)), (1,) * 6, (0,) * 6)
        assert report.expected_risk >= Fraction(1, 4)
        assert report.tail_probability >= Fraction(1, 7)


def _random_learner(trial, q, window):
    """A fixed random map from samples (as sequences) to hypotheses, and the
    list of samples it was called on."""
    answers = {}
    calls = []
    rng = random.Random(trial)

    def fn(sample):
        calls.append(sample)
        key = tuple(sample)
        if key not in answers:
            answers[key] = dk.Hypothesis(
                num_labels=q, table=tuple(rng.randrange(q) for _ in range(window + 1)))
        return answers[key]

    return dk.Learner(name=f"random:{trial}", fn=fn), calls


def test_adversary_succeeds_against_arbitrary_deterministic_learners():
    # random total deterministic behavior: a fixed random map from samples to
    # hypotheses; the averaging argument guarantees some mixture reaches 1/4.
    # Such a learner is not declared symmetric, so the adversary runs it on
    # every sequence of every mixture it examines.
    rng = random.Random(161803)
    for trial in range(50):
        q = rng.choice((2, 3))
        learner, calls = _random_learner(trial, q, 1)
        assert not learner.symmetric
        g1 = tuple(rng.randrange(q) for _ in range(2))
        g2 = tuple((v + 1) % q for v in g1)
        report = dk.nfl_adversary(learner, (0, 1), g1, g2)
        assert report.expected_risk >= Fraction(1, 4)
        assert report.tail_probability >= Fraction(1, 7)
        assert len(calls) == 2 * report.mixtures_examined
        assert _fields(report) == reference_adversary(learner, (0, 1), g1, g2)


def test_undeclared_learners_run_on_every_sequence():
    # at m = 2 the 16 sequences differ from the 10 multisets, and a random
    # map answers two orderings of one sample differently
    rng = random.Random(314159)
    points = (0, 1, 2, 3)
    for trial in range(20):
        q = rng.choice((2, 3))
        learner, calls = _random_learner(trial, q, 3)
        g1 = tuple(rng.randrange(q) for _ in points)
        g2 = tuple((v + 1) % q for v in g1)
        report = dk.nfl_adversary(learner, points, g1, g2)
        assert len(calls) == 16 * report.mixtures_examined
        assert [tuple(x for x, _ in c) for c in calls[:16]] == list(
            itertools.product(points, repeat=2))
        assert _fields(report) == reference_adversary(learner, points, g1, g2)


def test_adversary_is_deterministic():
    learner = dk.memorizing_learner(0, num_labels=3, window=3)
    a = dk.nfl_adversary(learner, (0, 1, 2, 3), (1, 2, 1, 2), (2, 1, 2, 1))
    b = dk.nfl_adversary(learner, (0, 1, 2, 3), (1, 2, 1, 2), (2, 1, 2, 1))
    assert a == b


# ------------------------------------------ integer risk sums and ERM memo

def test_expected_risk_matches_fraction_sums():
    rng = random.Random(4242)
    for m in (1, 2, 3):
        points = tuple(sorted(rng.sample(range(8), 2 * m)))
        for learner in _built_in_learners(3, 7):
            for _ in range(10):
                f = tuple(rng.randrange(3) for _ in points)
                got = dk.exact_expected_risk(learner, points, f, m)
                assert got == reference_risk(learner, points, f, m)
                assert all(isinstance(risk, Fraction) for _, risk in got[1])


def test_erm_memo_matches_unmemoised_min():
    from corpus import random_table_class
    from oracles import erm

    rng = random.Random(5150)
    for _ in range(20):
        cls = random_table_class(rng, 4, rng.choice((2, 3)), 12)
        learner = dk.erm_learner(cls)
        samples = []
        for _ in range(15):
            sample = [(rng.randrange(4), rng.randrange(cls.num_labels))
                      for _ in range(rng.randint(1, 5))]
            samples.append(tuple(sample))
            rng.shuffle(sample)
            samples.append(tuple(sample))  # the same sample, permuted
            samples.append(tuple(sample + sample[:1]))  # a pair repeated
        for sample in samples + samples[::-1]:
            assert learner(sample) == erm(cls, sample)


def test_erm_ties_go_to_the_first_hypothesis_in_canonical_order():
    cls = dk.class_from_tables([(2, 1), (0, 1), (1, 1), (1, 0)], num_labels=3)
    learner = dk.erm_learner(cls)
    # (0, 1), (1, 0) and (1, 1) err once on this sample, (2, 1) twice
    sample = ((0, 1), (0, 0))
    assert learner(sample).table == (0, 1)
    assert learner(sample[::-1]).table == (0, 1)
    # no error for (1, 0) or (1, 1) at point 0 with label 1; (1, 0) sorts first
    assert learner(((0, 1),)).table == (1, 0)


def test_erm_rejects_empty_and_out_of_domain_samples():
    learner = dk.erm_learner(dk.class_from_tables([(0, 1), (1, 0)], num_labels=2))
    with pytest.raises(dk.PreconditionError):
        learner(())
    with pytest.raises(dk.DomainError):
        learner(((5, 1),))


@pytest.mark.parametrize("make", [dk.constant_learner, dk.memorizing_learner])
def test_learners_reject_a_negative_window(make):
    # a negative window built hypotheses over an empty domain, and the fault
    # only showed later as a DomainError at point 0 inside the adversary
    with pytest.raises(dk.PreconditionError, match="^window must be a natural$"):
        make(0, 3, -1)
    assert make(0, 3, 0)(()).table == (0,)


@pytest.mark.parametrize("args", [(5, 3, 2), (-1, 3, 2), (0, 0, 2)])
def test_memorizing_learner_checks_its_labels_when_built(args):
    # these failed only at the first call, inside the adversary
    with pytest.raises(dk.RepresentationError) as const_err:
        dk.constant_learner(*args)
    with pytest.raises(dk.RepresentationError) as memo_err:
        dk.memorizing_learner(*args)
    assert str(memo_err.value) == str(const_err.value)


@pytest.mark.parametrize("label, num_labels, message", [
    (5, 2, "learner label 5 outside 0..1"),
    (-1, 3, "learner label -1 outside 0..2"),
    (True, 2, "learner label True outside 0..1"),
])
def test_learners_name_their_own_label_when_it_is_outside_the_alphabet(
        label, num_labels, message):
    # the message named "[0]", an index into the learner's internal table
    for make in (dk.constant_learner, dk.memorizing_learner):
        with pytest.raises(dk.RepresentationError) as err:
            make(label, num_labels, 3)
        assert str(err.value) == message


# ------------------------------------------- inputs of exact_expected_risk

@pytest.mark.parametrize("points, f_values, m, message", [
    ((), (), 0, "even, positive number of points"),
    ((0, 0), (1, 2), 1, "duplicate points"),
    ((0, 1), (1,), 1, "labelings must cover the points"),
    ((0, 1), (1, -1), 1, "labels must be naturals"),
    ((0, 1), (1, 1), 2, "need exactly 4 points"),
])
def test_expected_risk_rejects_bad_inputs(points, f_values, m, message):
    learner = dk.constant_learner(0, num_labels=3, window=1)
    with pytest.raises(dk.PreconditionError, match=message):
        dk.exact_expected_risk(learner, points, f_values, m)


# --------------------------------------------- the weighted multiset sweep

def test_multiset_weights_count_every_sequence():
    for m in (1, 2, 3, 4):
        points = tuple(range(2 * m))
        multisets = nfl._multisets(points, m)
        assert sum(w for _, w in multisets) == len(points) ** m
        assert [ms for ms, _ in multisets] == sorted(
            {tuple(sorted(seq)) for seq in itertools.product(points, repeat=m)})


def test_weighted_sweep_matches_the_sequence_oracle():
    # at m = 4 a sequence with one wrong answer sits on the tail boundary
    rng = random.Random(27182)
    for m in (1, 2, 3, 4):
        points = tuple(sorted(rng.sample(range(8), 2 * m)))
        multisets = nfl._multisets(points, m)
        n = len(points)
        for learner in _built_in_learners(3, 7):
            for _ in range(6 if m < 4 else 1):
                f = tuple(rng.randrange(3) for _ in points)
                expected, table = reference_risk(learner, points, f, m)
                tail = Fraction(sum(1 for _, r in table if r >= Fraction(1, 8)), len(table))
                for sweep in (multisets, None):
                    total, tail_count = nfl._risk_counts(learner, points, f, sweep)
                    assert Fraction(total, n ** (m + 1)) == expected
                    assert Fraction(tail_count, n ** m) == tail


@pytest.mark.parametrize("m", [1, 2, 3])
def test_undeclared_wrapper_gives_the_same_report(m):
    # the full sequence sweep and the multiset sweep agree on every built-in
    rng = random.Random(1732 + m)
    points = tuple(range(2 * m))
    for learner in _built_in_learners(3, 2 * m - 1):
        g1, g2 = zip(*(rng.sample(range(3), 2) for _ in points))
        wrapped = dk.Learner(learner.name, learner.fn, symmetric=False)
        assert dk.nfl_adversary(wrapped, points, g1, g2) == dk.nfl_adversary(
            learner, points, g1, g2)


@given(st.integers(2, 3).flatmap(lambda q: st.tuples(
    st.just(q),
    st.lists(st.integers(0, q - 1), min_size=4, max_size=4),
    st.lists(st.integers(0, 3), min_size=1, max_size=5).flatmap(
        lambda seq: st.tuples(st.just(seq), st.permutations(seq))),
)))
def test_symmetric_learners_ignore_sample_order(case):
    q, f, (seq, permuted) = case
    for learner in _built_in_learners(q, 3):
        assert learner.symmetric
        sample = tuple((x, f[x]) for x in seq)
        assert learner(sample) == learner(tuple((x, f[x]) for x in permuted)), learner.name


def test_distribution_is_derived_from_the_graph():
    assert "distribution" not in {f.name for f in dataclasses.fields(dk.AdversaryReport)}
    learner = dk.memorizing_learner(0, num_labels=3, window=3)
    report = dk.nfl_adversary(learner, (0, 1, 2, 3), (1, 2, 1, 2), (2, 1, 2, 1))
    assert report.distribution == dk.FiniteDistribution.uniform_on_graph(
        report.points, report.f_values)
    assert report.distribution is report.distribution
    again = dk.nfl_adversary(learner, (0, 1, 2, 3), (1, 2, 1, 2), (2, 1, 2, 1))
    assert report == again  # a cached distribution on one side changes nothing
