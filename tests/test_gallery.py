import itertools
import re
import time

import pytest

import dimkit as dk
import oracles
from dimkit.cli import dispatch
from dimkit.core import _check_hypothesis_count


def test_full_class_sizes_and_dims():
    assert len(dk.full_class(2, 2).hypotheses) == 4
    for kind in ("vc", "natarajan", "graph", "ds"):
        assert dk.exact_dimension(dk.full_class(2, 2), kind).value == 2
    assert len(dk.full_class(1, 3).hypotheses) == 3
    assert dk.exact_dimension(dk.full_class(1, 3), "natarajan").value == 1
    assert dk.exact_dimension(dk.full_class(3, 2), "vc").value == 3


def test_full_class_budget_guard():
    with pytest.raises(dk.PreconditionError):
        dk.full_class(40, 3)


def test_hypothesis_budget_takes_no_power_far_past_it():
    """2^(10^12) would take minutes and gigabytes to compute; the budget
    refuses it from the exponent alone, and 1^(10^12) is one hypothesis."""
    family = dk.PsiFamily(members=(dk.PsiFunction(table=(0, 0)),), num_labels=2)
    for build, count in ((lambda: dk.full_class(10 ** 12, 2), "2^1000000000000"),
                         (lambda: dk.failing_psi_class(family, 10 ** 12), "2^1000000000001"),
                         (lambda: dk.full_class(21, 2), "2^21"),
                         (lambda: dk.full_class(13, 3), "3^13")):
        with pytest.raises(dk.PreconditionError, match=rf"^{re.escape(count)} hypotheses exceed"):
            build()
    assert _check_hypothesis_count(2, 20) is None
    assert _check_hypothesis_count(1, 10 ** 12) is None


def test_one_label_full_class_is_refused_by_its_table_entries(capsys):
    """1^n is one hypothesis for any n, so it passes the hypothesis budget;
    its one row of n entries is refused before it is built once n is above
    the 20 * 2^20 entries of full_class(20, 2), the largest class the budget
    admits with two labels or more."""
    started = time.monotonic()
    code = dispatch(["gallery", "emit", "full", "--params", '{"n": 200000000, "labels": 1}'])
    captured = capsys.readouterr()
    assert time.monotonic() - started < 5
    assert (code, captured.out) == (2, "")
    assert captured.err == ("error: 1^200000000 hypotheses over 200000000 points hold "
                            "200000000 table entries, above the budget of 20971520\n")
    with pytest.raises(dk.PreconditionError, match=r"^1\^20971521 hypotheses over"):
        dk.full_class(20 * 2 ** 20 + 1, 1)
    assert dk.full_class(20, 1).rows == ((0,) * 20,)


def test_gap_class_boundary_m1():
    entry = dk.gap_class(1)
    assert len(entry.cls.hypotheses) == 2
    assert dk.exact_dimension(entry.cls, "graph").value == 1


@pytest.mark.parametrize("m", [1, 2, 3])
def test_gap_class_dimension_separation(m):
    entry = dk.gap_class(m)
    assert dk.exact_dimension(entry.cls, "natarajan").value == 1
    assert dk.exact_dimension(entry.cls, "graph").value == m


@pytest.mark.parametrize("m", [2, 3])
def test_gap_witness_validates_exhaustively(m):
    entry = dk.gap_class(m)
    report = dk.validate_witness(entry.witness, entry.cls, m - 1)
    assert report.valid


@pytest.mark.parametrize("m", [1, 2, 3])
def test_gap_witness_matches_the_two_case_rule(m):
    """The comparison rule equals the label-pair loop of
    ``oracles.gap_rule`` on every input with differing pairs, on points up
    to m + 1 (the first point past the domain too), and answers with one of
    four frozensets."""
    evaluator = dk.gap_class(m).witness.evaluator
    labels = range((1 << m) + 1)
    pairs = [(a, b) for a in labels for b in labels if a != b]
    answers = {}
    for points in itertools.combinations(range(m + 2), 2):
        for (a1, a2), (b1, b2) in itertools.product(pairs, repeat=2):
            y1, y2 = (a1, b1), (a2, b2)
            got = evaluator(points, y1, y2)
            assert got == oracles.gap_rule(m, points, y1, y2), (points, y1, y2)
            answers.setdefault(got, set()).add(id(got))
    assert sorted(map(sorted, answers)) == [[], [0], [0, 1], [1]]
    assert all(len(ids) == 1 for ids in answers.values())


def test_gap_class_hypotheses_are_membership_tables():
    entry = dk.gap_class(3)
    blank = 1 << 3
    for h in entry.cls.hypotheses:
        codes = {v for v in h.table if v != blank}
        assert len(codes) <= 1
        for x, v in enumerate(h.table):
            if v != blank:
                assert (v >> x) & 1


def test_six_cycle_entry():
    entry = dk.six_cycle_class()
    pats = dk.restrict(entry.cls, (0, 1)).patterns
    assert oracles.pseudo_cube(pats)
    assert dk.is_pseudo_cube(pats)


def test_six_cycle_named_subclasses_have_ds_one():
    for rows in (
        [(0, 1), (2, 1), (4, 5), (0, 5)],
        [(0, 1), (0, 5), (4, 5), (4, 3)],
    ):
        sub = dk.class_from_tables(rows, num_labels=6)
        assert not oracles.ds_shattered(sub, (0, 1))
        assert dk.exact_dimension(sub, "ds").value == 1


def test_expected_dims_reverify():
    entries = [dk.gap_class(2), dk.gap_class(3), dk.six_cycle_class()]
    for entry in entries:
        for kind, want in entry.expected_dims.items():
            assert dk.exact_dimension(entry.cls, kind).value == want, (entry.name, kind)


def test_failing_psi_gallery_delegates():
    fam = dk.PsiFamily(
        members=(dk.PsiFunction(table=(1, 0, 0)),), num_labels=3
    )
    entry = dk.failing_psi_gallery(fam, window=2)
    assert entry.name == "failing_psi"
    assert dk.exact_dimension(entry.cls, "graph").value == 3
    assert dk.validate_witness(entry.witness, entry.cls, 2).valid


@pytest.mark.parametrize("name, params, key", [
    ("gap", {"n": 5}, "n"),
    ("gap", {"m": 2, "window": 1}, "window"),
    ("full", {"n": 2, "q": 3}, "q"),
    ("six_cycle", {"m": 3}, "m"),
    ("failing_psi", {"labels": 2, "family": [["0", "1"]], "m": 1}, "m"),
])
def test_build_rejects_a_parameter_the_entry_does_not_take(name, params, key):
    with pytest.raises(dk.PreconditionError, match=f"takes no parameter '{key}'"):
        dk.gallery.build(name, params)

