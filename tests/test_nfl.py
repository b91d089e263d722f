from fractions import Fraction

import pytest

import dimkit as dk


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


@pytest.mark.parametrize("g1, g2", [((-1, -1), (1, 1)), ((0, 1), (1, -2))])
def test_adversary_rejects_negative_labels(g1, g2):
    learner = dk.constant_learner(0, num_labels=2, window=1)
    with pytest.raises(dk.PreconditionError, match="labels must be naturals"):
        dk.nfl_adversary(learner, (0, 1), g1, g2)


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


def test_adversary_succeeds_against_arbitrary_deterministic_learners():
    # random total deterministic behavior: a fixed random map from samples to
    # hypotheses; the averaging argument guarantees some mixture reaches 1/4
    import random

    rng = random.Random(161803)
    for trial in range(50):
        q = rng.choice((2, 3))
        window = 1
        answers = {}

        def fn(sample, _rng=random.Random(trial), _q=q, _w=window):
            key = tuple(sample)
            if key not in answers:
                answers[key] = dk.Hypothesis(
                    num_labels=_q,
                    table=tuple(_rng.randrange(_q) for _ in range(_w + 1)),
                )
            return answers[key]

        learner = dk.Learner(name=f"random:{trial}", fn=fn)
        g1 = tuple(rng.randrange(q) for _ in range(2))
        g2 = tuple((v + 1) % q for v in g1)
        report = dk.nfl_adversary(learner, (0, 1), g1, g2)
        assert report.expected_risk >= Fraction(1, 4)
        assert report.tail_probability >= Fraction(1, 7)


def test_adversary_is_deterministic():
    learner = dk.memorizing_learner(0, num_labels=3, window=3)
    a = dk.nfl_adversary(learner, (0, 1, 2, 3), (1, 2, 1, 2), (2, 1, 2, 1))
    b = dk.nfl_adversary(learner, (0, 1, 2, 3), (1, 2, 1, 2), (2, 1, 2, 1))
    assert a == b


# ------------------------------------------ integer risk sums and ERM memo

def test_expected_risk_matches_fraction_sums():
    import random

    from oracles import exact_expected_risk as reference

    rng = random.Random(4242)
    for m in (1, 2, 3):
        points = tuple(sorted(rng.sample(range(8), 2 * m)))
        for learner in _built_in_learners(3, 7):
            for _ in range(10):
                f = tuple(rng.randrange(3) for _ in points)
                got = dk.exact_expected_risk(learner, points, f, m)
                assert got == reference(learner, points, f, m)
                assert all(isinstance(risk, Fraction) for _, risk in got[1])


def test_erm_memo_matches_unmemoised_min():
    import random

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
