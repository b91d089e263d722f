import collections
import copy
import enum
import hashlib
import json
import math
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dimkit as dk
from dimkit import cli
from dimkit.cli import (
    SchemaError,
    canonical_json,
    class_to_file,
    digest,
    dispatch,
    jsonable,
    parse_class_file,
    parse_psi_file,
)
from dimkit import psi
from dimkit.psi import PairEntries, PairEntry, RefutationReport
from oracles import canonical_json as reference_json
from oracles import class_from_file_reference
from oracles import refute_ds_reference


@pytest.fixture
def c6_file(tmp_path):
    path = tmp_path / "c6.json"
    path.write_text(canonical_json(class_to_file(dk.six_cycle_class().cls)))
    return str(path)


@pytest.fixture
def three_file(tmp_path):
    path = tmp_path / "three.json"
    path.write_text(json.dumps(
        {"labels": 3, "domain": 2, "hypotheses": [[0, 1], [1, 0], [2, 2]]}
    ))
    return str(path)


@pytest.fixture
def psin3_file(tmp_path):
    path = tmp_path / "psin3.json"
    path.write_text(json.dumps({"labels": 3, "builtin": "psi_N"}))
    return str(path)


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def assert_usage_error(capsys, *argv):
    """Exit 2 with one 'error:' line on stderr and no report.  A traceback
    would propagate out of dispatch and fail the test."""
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert code == 2, argv
    assert captured.out == "", argv
    assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)


# ------------------------------------------------------------- file formats

def test_parse_explicit_class(three_file):
    cls = parse_class_file(three_file)
    assert len(cls.hypotheses) == 3 and cls.num_labels == 3


def test_parse_gallery_reference(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"gallery": "six_cycle"}))
    cls = parse_class_file(str(path))
    assert len(cls.hypotheses) == 6


def test_parse_finite_support_class(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({
        "labels": 3, "domain": "nat",
        "hypotheses": [{"support": {"0": 1}}, {"support": {"5": 2}}],
    }))
    cls = parse_class_file(str(path))
    assert cls.domain_size is None
    assert dk.restrict(cls, (0, 5)).patterns == ((0, 2), (1, 0))


def test_row_length_mismatch_is_schema_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"labels": 2, "domain": 2, "hypotheses": [[0]]}))
    with pytest.raises(SchemaError, match=r"hypotheses\[0\]"):
        parse_class_file(str(path))


def test_label_overflow_is_schema_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"labels": 2, "domain": 1, "hypotheses": [[5]]}))
    with pytest.raises(SchemaError, match="label 5"):
        parse_class_file(str(path))
    # JSON booleans are not integers here, although Python's bool is an int
    for doc, field in (
        ({"labels": True, "domain": 1, "hypotheses": [[0]]}, "labels"),
        ({"labels": 2, "domain": True, "hypotheses": [[True], [False]]}, "domain"),
        ({"labels": 2, "domain": 1, "hypotheses": [[True], [False]]}, r"hypotheses\[0\]\[0\]"),
        ({"labels": 2, "domain": "nat", "hypotheses": [{"support": {"0": True}}]},
         r"support\[0\]"),
    ):
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=field):
            parse_class_file(str(path))
        assert_usage_error(capsys, "dim", "--class", str(path), "--kind", "natarajan")


@pytest.mark.parametrize("key", ["1_0", "01", " 1", "+1", "-0", "\u0661", "1.0", ""])
def test_support_keys_must_be_canonical_decimals(capsys, tmp_path, key):
    # int() reads most of these keys as a point ("1_0" as 10, "01" and "+1"
    # as 1), but class_to_file writes none of them, so none may name one
    path = tmp_path / "keys.json"
    path.write_text(json.dumps({"labels": 2, "domain": "nat",
                                "hypotheses": [{"support": {}}, {"support": {key: 1}}]}))
    assert_usage_error(capsys, "dim", "--class", str(path), "--kind", "natarajan")
    dispatch(["dim", "--class", str(path), "--kind", "natarajan"])
    assert capsys.readouterr().err == (
        f"error: {path}: hypotheses[1].support: key {key!r} is not a canonical decimal integer\n")


def test_duplicate_hypotheses_listed_by_index(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(
        {"labels": 2, "domain": 1, "hypotheses": [[0], [1], [0]]}
    ))
    with pytest.raises(SchemaError, match=r"indices \[2\]"):
        parse_class_file(str(path))
    # several duplicates, each listed at its own index in file order; support
    # objects are equal whatever their key order
    for doc, listed in (
        ({"labels": 3, "domain": 2,
          "hypotheses": [[0, 1], [2, 2], [0, 1], [1, 0], [2, 2], [0, 1]]}, "[2, 4, 5]"),
        ({"labels": 3, "domain": "nat",
          "hypotheses": [{"support": {"4": 2, "1": 1}}, {"support": {}},
                         {"support": {"1": 1, "4": 2}}, {"support": {}},
                         {"support": {"4": 2}}]}, "[2, 3]"),
    ):
        path.write_text(json.dumps(doc))
        message = f"{path}: duplicate hypotheses at indices {listed}"
        with pytest.raises(SchemaError, match=re.escape(message)):
            parse_class_file(str(path))


def test_psi_file_inline_rows(tmp_path):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"labels": 2, "family": [["0", "1"], ["*", "1"]]}))
    fam = parse_psi_file(str(path))
    assert len(fam) == 2 and fam.members[1].table == (dk.STAR, 1)


def test_psi_file_bad_symbol(capsys, tmp_path):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"labels": 2, "family": [["0", "2"]]}))
    with pytest.raises(SchemaError, match=r"family\[0\]\[1\]"):
        parse_psi_file(str(path))
    for doc, field in (
        ({"labels": True, "builtin": "psi_N"}, "labels"),
        ({"labels": 2, "family": [[True, "*"]]}, r"family\[0\]\[0\]"),
    ):
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=field):
            parse_psi_file(str(path))
        assert_usage_error(capsys, "distinguisher", "--psi", str(path))


# labels, entries and support keys a class file may hold, good and bad
BAD_ENTRIES = [True, False, 1.0, 0.5, "1", None, -1]
KEYS = ["0", "1", "2", "3", "10", "-1", "01", "+1", " 1", "1_0", "-0", "", "a", "1.0"]


@st.composite
def table_rows(draw, q, n):
    """A row of length n over 0..q-1 (duplicates likely), or now and then a
    short, long or non-list row, or one with a bad entry."""
    row = draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    flaw = draw(st.sampled_from(["none"] * 12 + ["entry", "range", "short", "long", "type"]))
    if flaw == "entry":
        row[draw(st.integers(0, n - 1))] = draw(st.sampled_from(BAD_ENTRIES))
    elif flaw == "range":
        row[draw(st.integers(0, n - 1))] = q + draw(st.integers(0, 2))
    elif flaw in ("short", "long"):
        row = row[:-1] if flaw == "short" else row + [0]
    elif flaw == "type":
        row = draw(st.sampled_from([5, "01", {"support": {}}, None, tuple(row)]))
    return row


@st.composite
def support_rows(draw, q):
    """{"support": {key: label}} over a few points (duplicate rows likely),
    or now and then a non-canonical key, a bad label, or a malformed row."""
    keys = draw(st.lists(st.sampled_from(KEYS[:5]), max_size=3, unique=True))
    support = {k: draw(st.integers(1, q - 1)) for k in keys} if q > 1 else {}
    flaw = draw(st.sampled_from(["none"] * 12 + ["key", "label", "range", "row", "object"]))
    if flaw == "key":
        support[draw(st.sampled_from(KEYS[5:]))] = 1
    elif flaw in ("label", "range"):
        bad = draw(st.sampled_from(BAD_ENTRIES + [0]) if flaw == "label"
                   else st.integers(q, q + 2))
        support[draw(st.sampled_from(KEYS[:5]))] = bad
    elif flaw == "row":
        return draw(st.sampled_from([[], 3, {"supports": {}}, {"support": []}]))
    elif flaw == "object":
        return {"support": support, "extra": 1}
    return {"support": dict(sorted(support.items(), key=lambda kv: draw(st.integers(0, 3))))}


@st.composite
def class_documents(draw):
    q = draw(st.integers(1, 3))
    if draw(st.booleans()):
        n = draw(st.integers(1, 3))
        rows = draw(st.lists(table_rows(q, n), min_size=1, max_size=7))
        return {"labels": q, "domain": n, "hypotheses": rows}
    rows = draw(st.lists(support_rows(q), min_size=1, max_size=7))
    return {"labels": q, "domain": "nat", "hypotheses": rows}


def _loaded(load, doc):
    try:
        cls = load(doc)
    except (SchemaError, dk.RepresentationError) as err:
        return type(err), str(err)
    return cls, cls.hypotheses, class_to_file(cls), canonical_json(class_to_file(cls))


@settings(max_examples=400)
@given(class_documents())
def test_class_loader_matches_the_row_by_row_reference(doc):
    """The loader checks rows in bulk and the class builds hypotheses on first
    read; the reference builds one Hypothesis per row.  They give the same
    class, hypotheses in the same order, class_to_file and canonical text, or
    the same error text, the loader's always a SchemaError."""
    got = _loaded(lambda d: cli.class_from_file(copy.deepcopy(d))[0], doc)
    want = _loaded(class_from_file_reference, doc)
    if isinstance(want[0], type):
        assert got == (SchemaError, want[1])
    else:
        assert got == want


# ---------------------------------------------------------------- commands

def test_dim_command_on_six_cycle(capsys, c6_file):
    code, report = run(capsys, "dim", "--class", c6_file, "--kind", "ds")
    assert code == 0
    assert report["result"]["dimension"] == 2
    assert report["certificates"][0]["kind"] == "ds"


def test_dim_psi_kind_needs_family(capsys, c6_file):
    code = dispatch(["dim", "--class", c6_file, "--kind", "psi"])
    capsys.readouterr()
    assert code == 2


def test_dim_refuses_a_family_with_a_non_psi_kind(capsys, c6_file, tmp_path):
    # an unused family would still be folded into inputs_digest
    fam = tmp_path / "psin6.json"
    fam.write_text(json.dumps({"labels": 6, "builtin": "psi_N"}))
    for kind in ("natarajan", "graph", "ds"):
        assert_usage_error(capsys, "dim", "--class", c6_file, "--kind", kind, "--psi", str(fam))
    code, report = run(capsys, "dim", "--class", c6_file, "--kind", "psi", "--psi", str(fam))
    assert code == 0 and report["result"]["dimension"] == 1
    with pytest.raises(dk.PreconditionError):
        dk.exact_dimension(dk.six_cycle_class().cls, "graph", psi=dk.natarajan_family(6))


def test_distinguisher_true(capsys, psin3_file):
    code, report = run(capsys, "distinguisher", "--psi", psin3_file)
    assert code == 0 and report["result"]["distinguisher"] is True


def test_distinguisher_false_exits_one(capsys, tmp_path):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"labels": 3, "family": [["1", "0", "0"]]}))
    code, report = run(capsys, "distinguisher", "--psi", str(path))
    assert code == 1
    assert report["result"]["failing_pair"] == [1, 2]


def test_witness_check_full_class_shattered(capsys, tmp_path):
    path = tmp_path / "full.json"
    path.write_text(json.dumps({"gallery": "full", "params": {"n": 2, "labels": 3}}))
    code, report = run(capsys, "witness", "check", "--class", str(path),
                       "--flavor", "natarajan", "--order", "1")
    assert code == 1
    assert report["result"]["valid"] is False
    assert any(v["reason"] == "shattered" for v in report["result"]["violations"])


def test_witness_check_valid_witness(capsys, three_file):
    code, report = run(capsys, "witness", "check", "--class", three_file,
                       "--flavor", "natarajan", "--order", "1")
    assert code == 0 and report["result"]["valid"] is True


def test_witness_check_bundled_gap(capsys, tmp_path):
    path = tmp_path / "gap.json"
    path.write_text(json.dumps({"gallery": "gap", "params": {"m": 3}}))
    code, report = run(capsys, "witness", "check", "--class", str(path), "--bundled")
    assert code == 0 and report["result"]["valid"] is True
    assert report["result"]["witness"]["provenance"] == "gap_rule"


@pytest.mark.parametrize("action", ["make", "check"])
@pytest.mark.parametrize("extra", [["--psi", "PSI"], ["--flavor", "graph"], ["--order", "5"],
                                   ["--flavor", "graph", "--order", "5"]])
def test_witness_bundled_refuses_flavor_order_and_psi(capsys, tmp_path, psin3_file,
                                                      action, extra):
    # these options used to be parsed and ignored (--psi only went into the
    # inputs digest), so the report did not say which witness ran
    path = tmp_path / "gap.json"
    path.write_text(json.dumps({"gallery": "gap", "params": {"m": 3}}))
    extra = [psin3_file if v == "PSI" else v for v in extra]
    assert_usage_error(capsys, "witness", action, "--class", str(path), "--bundled", *extra)


def test_witness_make_reports_metadata(capsys, three_file):
    code, report = run(capsys, "witness", "make", "--class", three_file,
                       "--flavor", "graph", "--order", "1")
    assert code == 0
    assert report["result"]["witness"] == {
        "flavor": "graph", "order": 1, "provenance": "canonical",
    }


def test_failing_psi_gallery_class_file(capsys, tmp_path):
    path = tmp_path / "fp.json"
    path.write_text(json.dumps({
        "gallery": "failing_psi",
        "params": {"labels": 3, "family": [["1", "0", "0"]], "window": 1},
    }))
    cls = parse_class_file(str(path))
    assert len(cls.hypotheses) == 4
    code, report = run(capsys, "dim", "--class", str(path), "--kind", "graph")
    assert code == 0 and report["result"]["dimension"] == 2


def test_witness_from_learner_validates(capsys, tmp_path):
    path = tmp_path / "single.json"
    path.write_text(json.dumps({"labels": 3, "domain": 4,
                                "hypotheses": [[1, 1, 1, 1]]}))
    code, report = run(capsys, "witness", "from-learner", "--learner",
                       f"erm:{path}", "--m", "1", "--check-class", str(path))
    assert code == 0
    assert report["result"]["witness"]["order"] == 1
    assert report["result"]["valid"] is True


def test_nfl_command(capsys):
    code, report = run(capsys, "nfl", "--learner", "const:1",
                       "--points", "0,1", "--g1", "1,1", "--g2", "2,2")
    assert code == 0
    res = report["result"]
    assert res["f"] == [2, 2]
    assert res["expected_risk"] == {"num": 1, "den": 1}
    assert res["tail_probability"] == {"num": 1, "den": 1}


@pytest.mark.parametrize("labels", [("--g1=-1,-1", "--g2", "1,1"),
                                    ("--g1", "0,1", "--g2=1,-1")])
def test_nfl_negative_label_exits_two(capsys, labels):
    argv = ["nfl", "--learner", "const:0", "--points", "0,1", *labels]
    assert_usage_error(capsys, *argv)
    dispatch(argv)
    assert capsys.readouterr().err == "error: labels must be naturals\n"


@pytest.mark.parametrize("learner", ["memorize:5", "const:5"])
def test_nfl_learner_label_outside_the_alphabet_exits_two(capsys, learner):
    # the message named "[0]", an index the user never typed
    argv = ["nfl", "--learner", learner, "--points", "0,1", "--g1", "0,1", "--g2", "1,0"]
    assert_usage_error(capsys, *argv)
    dispatch(argv)
    assert capsys.readouterr().err == "error: learner label 5 outside 0..1\n"


def test_nfl_at_m5_sweeps_multisets(capsys):
    # 2,002 multisets per mixture where the sequence sweep ran 100,000
    points = ",".join(str(x) for x in range(10))
    code, report = run(capsys, "nfl", "--learner", "memorize:0", "--points", points,
                       "--g1", ",".join(["1"] * 10), "--g2", ",".join(["2"] * 10))
    assert code == 0
    res = report["result"]
    # f = g2 everywhere; the memorizer misses each unseen point, and a point
    # is unseen in 5 draws with probability (9/10)^5
    assert res["f"] == [2] * 10 and res["index_set"] == []
    assert res["expected_risk"] == {"num": 9 ** 5, "den": 10 ** 5}
    assert res["tail_probability"] == {"num": 1, "den": 1}
    assert res["mixtures_examined"] == 1 and res["markov_flag"] is False


@pytest.mark.parametrize("spec, message", [
    ("natarajan:\u00b2", "--witness: expected an integer, got '\u00b2'"),
    ("psi:\u00b9", "--witness: expected an integer, got '\u00b9'"),
    ("natarajan:", "--witness: expected an integer, got ''"),
    ("natarajan:-1", "order must be a natural"),
    ("graph:1", "--witness: expected 'natarajan:K' or 'psi:K'"),
])
def test_embed_order_that_is_not_a_natural_exits_two(capsys, three_file, spec, message):
    # superscript digits pass str.isdigit but not int(); that may not escape
    # as a traceback
    argv = ["embed", "behaviors", "--class", three_file, "--witness", spec,
            "--points", "0,1"]
    assert_usage_error(capsys, *argv)
    dispatch(argv)
    assert capsys.readouterr().err == f"error: {message}\n"


def test_embed_commands(capsys, tmp_path):
    path = tmp_path / "nat.json"
    path.write_text(json.dumps({
        "labels": 3, "domain": "nat",
        "hypotheses": [{"support": {"1": 1}}, {"support": {"0": 1}},
                       {"support": {"0": 2, "1": 2}}],
    }))
    code, report = run(capsys, "embed", "behaviors", "--class", str(path),
                       "--witness", "natarajan:1", "--points", "0,1")
    assert code == 0
    assert [0, 1] in report["result"]["patterns"]
    code, report = run(capsys, "embed", "erm", "--class", str(path),
                       "--witness", "natarajan:1", "--sample", "0:2,1:2")
    assert code == 0
    assert report["result"]["hypothesis"] == {"support": {"0": 2, "1": 2}}
    assert report["result"]["empirical_risk"] == {"num": 0, "den": 1}
    code, report = run(capsys, "embed", "erm", "--class", str(path),
                       "--witness", "natarajan:1", "--sample", "0:0,1:0")
    assert code == 0
    assert report["result"]["hypothesis"] == {"support": {}}
    assert report["result"]["empirical_risk"] == {"num": 0, "den": 1}


def test_embed_below_dimension_exits_two(capsys, tmp_path, three_file):
    # single points of this class are Natarajan-shattered, so the canonical
    # witness of order 0 has no answer on them; that is a usage error, not a
    # crash that would exit 1 like a verified negative
    cases = [
        ("embed", "behaviors", "--class", three_file, "--witness", "natarajan:0",
         "--points", "0,1"),
        ("embed", "erm", "--class", three_file, "--witness", "natarajan:0",
         "--sample", "0:1"),
        ("nfl", "--learner", f"embed:{three_file}:0", "--points", "0,1",
         "--g1", "1,1", "--g2", "2,2"),
    ]
    for argv in cases:
        assert_usage_error(capsys, *argv)
    dispatch(list(cases[0]))
    err = capsys.readouterr().err
    assert "natarajan:0" in err and "points [0]" in err
    assert err == ("error: --witness natarajan:0: the class shatters points [0] on witness "
                   "input [[0],[1]], so no witness of that order exists\n")
    psig = tmp_path / "psig3.json"
    psig.write_text(json.dumps({"labels": 3, "builtin": "psi_G"}))
    assert dispatch(["embed", "behaviors", "--class", three_file, "--witness", "psi:0",
                     "--psi", str(psig), "--points", "0,1"]) == 2
    assert capsys.readouterr().err == (
        'error: --witness psi:0: the class shatters points [0] on witness input '
        '[[["1","0","0"]]], so no witness of that order exists\n')
    proc = subprocess.run([sys.executable, "-m", "dimkit", *cases[0]],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ("behaviors", "--points=-1,1"),
    ("behaviors", "--points", "-1"),
    ("erm", "--sample=-1:0"),
])
def test_embed_negative_point_exits_two(capsys, tmp_path, argv):
    path = tmp_path / "nat.json"
    path.write_text(json.dumps({"labels": 2, "domain": "nat",
                                "hypotheses": [{"support": {}}, {"support": {"1": 1}}]}))
    mode, *rest = argv
    assert_usage_error(capsys, "embed", mode, "--class", str(path),
                       "--witness", "natarajan:1", *rest)
    dispatch(["embed", mode, "--class", str(path), "--witness", "natarajan:1", *rest])
    assert capsys.readouterr().err == "error: point -1 is not a natural\n"


def test_embed_behaviors_refuses_duplicate_points(capsys, three_file):
    # --points 1,1 once answered for the one point 1, a different question
    argv = ["embed", "behaviors", "--class", three_file, "--witness", "natarajan:1",
            "--points", "1,1"]
    assert_usage_error(capsys, *argv)
    dispatch(argv)
    assert capsys.readouterr().err == "error: duplicate points in (1, 1)\n"


def test_sauer_command(capsys, three_file):
    code, report = run(capsys, "sauer", "--class", three_file,
                       "--points", "0,1", "--d", "1")
    assert code == 0
    assert report["result"] == {"count": 3, "bound": 18, "holds": True}


def test_gallery_list(capsys):
    code, report = run(capsys, "gallery", "list")
    assert code == 0
    assert "six_cycle" in report["result"]["entries"]


def test_gallery_emit_round_trip(capsys, tmp_path):
    code = dispatch(["gallery", "emit", "gap", "--params", '{"m": 2}'])
    first = capsys.readouterr().out
    assert code == 0
    path = tmp_path / "gap.json"
    path.write_text(first)
    cls = parse_class_file(str(path))
    assert canonical_json(class_to_file(cls)) + "\n" == first


def test_dim_negative_window_exits_two(capsys, c6_file):
    assert_usage_error(capsys, "dim", "--class", c6_file, "--kind", "natarajan",
                       "--window", "-5")


def test_dim_window_past_the_supports_matches_window_three(capsys, tmp_path):
    path = tmp_path / "nat.json"
    path.write_text(json.dumps({"labels": 3, "domain": "nat", "hypotheses": [
        {"support": {"0": 1, "2": 2}}, {"support": {"1": 2}}, {"support": {"2": 1}}]}))
    argv = ["dim", "--class", str(path), "--kind", "graph", "--window"]
    code, want = run(capsys, *argv, "3")
    assert code == 0
    for window in ("1180591620717411303424", "100000"):
        code, report = run(capsys, *argv, window)
        assert code == 0, window
        assert report["result"] == want["result"], window
        assert report["certificates"] == want["certificates"], window


def test_witness_check_negative_window_exits_two(capsys, c6_file):
    assert_usage_error(capsys, "witness", "check", "--class", c6_file,
                       "--flavor", "natarajan", "--order", "1", "--window", "-1")


def test_windows_too_large_to_enumerate_exit_two(capsys, tmp_path):
    """A window of 2^70 is refused as a usage error wherever it would be
    enumerated (witness validation) or tabulated (the const and memorize
    learners, whose window `nfl` takes from its largest point)."""
    path = tmp_path / "nat.json"
    path.write_text(json.dumps({"labels": 3, "domain": "nat", "hypotheses": [
        {"support": {"0": 1, "2": 2}}, {"support": {"1": 2}}, {"support": {"2": 1}}]}))
    huge = str(2 ** 70)
    argvs = [["witness", "check", "--class", str(path), "--flavor", "natarajan",
              "--order", "1", "--window", huge]]
    for learner in ("const:0", "memorize:0"):
        from_learner = ["witness", "from-learner", "--learner", learner, "--m", "1",
                        "--window", huge]
        argvs += [from_learner + ["--labels", "2"],
                  from_learner + ["--check-class", str(path)],
                  ["nfl", "--learner", learner, "--points", f"0,{huge}",
                   "--g1", "0,0", "--g2", "1,1"]]
    # good patterns are extended over [0, largest point]
    embed = ["--class", str(path), "--witness", "natarajan:1"]
    argvs += [["embed", "behaviors", *embed, "--points", huge],
              ["embed", "erm", *embed, "--sample", f"{huge}:1"]]
    for argv in argvs:
        assert_usage_error(capsys, *argv)


def test_dim_on_a_support_point_too_large_to_enumerate_exits_two(capsys, tmp_path):
    # the default window is the largest support point, here 2^70
    huge = str(2 ** 70)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"labels": 2, "domain": "nat", "hypotheses": [
        {"support": {}}, {"support": {huge: 1}}]}))
    argv = ["dim", "--class", str(path), "--kind", "natarajan"]
    assert_usage_error(capsys, *argv)
    dispatch(argv)
    assert capsys.readouterr().err == f"error: window {huge} is too large to enumerate\n"
    code, report = run(capsys, *argv, "--window", "3")
    assert code == 0 and report["result"]["dimension"] == 0


def test_witness_check_past_the_input_budget_exits_two(capsys, tmp_path, monkeypatch):
    path = tmp_path / "nat.json"
    path.write_text(json.dumps({"labels": 3, "domain": "nat", "hypotheses": [
        {"support": {"0": 1, "2": 2}}, {"support": {"1": 2}}, {"support": {"2": 1}}]}))
    # C(100001, 3) point tuples times 6^3 label-pair inputs each
    argv = ["witness", "check", "--class", str(path), "--flavor", "natarajan",
            "--order", "2", "--window", "100000"]
    assert_usage_error(capsys, *argv)
    dispatch(argv)
    count = math.comb(100001, 3) * 6 ** 3
    assert capsys.readouterr().err == (
        f"error: validating on [0, 100000] takes {count} witness inputs, "
        "above the budget of 100000000\n")
    # the count is the number of inputs checked: C(4, 2) * 6^2 = 216 at window 3
    small = ["witness", "check", "--class", str(path), "--flavor", "natarajan",
             "--order", "1", "--window", "3"]
    monkeypatch.setattr(dk.witnesses, "_VALIDATION_BUDGET", 216)
    code, report = run(capsys, *small)
    assert code in (0, 1) and report["result"]["checked_inputs"] == 216
    monkeypatch.setattr(dk.witnesses, "_VALIDATION_BUDGET", 215)
    assert_usage_error(capsys, *small)


def test_witness_from_learner_at_m3(capsys, tmp_path):
    full = tmp_path / "full.json"
    full.write_text(json.dumps({"gallery": "full", "params": {"n": 6, "labels": 2}}))
    code, report = run(capsys, "witness", "from-learner", "--learner", "memorize:0",
                       "--m", "3", "--check-class", str(full))
    result = report["result"]
    assert code == 1 and not result["valid"]
    assert result["witness"]["order"] == 5 and result["window"] == 5
    assert result["checked_inputs"] == 64 and result["violation_count"] == 64


def test_witness_from_learner_negative_window_exits_two(capsys):
    assert_usage_error(capsys, "witness", "from-learner", "--learner", "const:0",
                       "--m", "1", "--window", "-2", "--labels", "2")
    dispatch(["witness", "from-learner", "--learner", "const:0", "--m", "1",
              "--window", "-2", "--labels", "2"])
    assert capsys.readouterr().err == "error: window must be a natural\n"


@pytest.mark.parametrize("labels", ["0", "-1"])
def test_witness_from_learner_labels_below_one_exit_two(capsys, three_file, labels):
    # with --check-class too: --labels 0 must not fall back to the class's
    # alphabet as if it were missing
    for extra in ([], ["--check-class", three_file]):
        argv = ["witness", "from-learner", "--learner", "const:0", "--m", "1",
                "--window", "1", "--labels", labels, *extra]
        assert_usage_error(capsys, *argv)
        dispatch(argv)
        assert capsys.readouterr().err == "error: --labels: expected a positive integer\n"


def test_sauer_negative_degree_exits_two(capsys, three_file):
    assert_usage_error(capsys, "sauer", "--class", three_file, "--points", "0,1",
                       "--d", "-1")


def test_all_zero_class_checks_window_zero(capsys, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"labels": 2, "domain": "nat",
                                "hypotheses": [{"support": {}}]}))
    code, report = run(capsys, "witness", "check", "--class", str(path),
                       "--flavor", "natarajan", "--order", "0")
    assert code == 0
    assert report["result"]["window"] == 0 and report["result"]["valid"] is True


def test_bad_argv_values_exit_two(capsys, tmp_path, c6_file):
    bad_full = tmp_path / "full.json"
    bad_full.write_text(json.dumps({"gallery": "full", "params": {"n": "x"}}))
    cases = [
        ["gallery", "emit", "gap", "--params", "{bad"],
        ["gallery", "emit", "gap", "--params", "[1]"],
        ["gallery", "emit", "full", "--params", '{"n":"x"}'],
        ["gallery", "emit", "failing_psi", "--params", '{"labels": 2, "family": [["x", "1"]]}'],
        ["dim", "--class", str(bad_full), "--kind", "natarajan"],
    ]
    # gallery parameters take JSON integers only: true as n, "3" and 2.9 as
    # sizes, and true or 2 as encoder symbols used to build a class
    float_full = tmp_path / "float_full.json"
    float_full.write_text(json.dumps({"gallery": "full", "params": {"n": 2.9, "labels": 2}}))
    cases += [
        ["gallery", "emit", "full", "--params", '{"n": true, "labels": "3"}'],
        ["gallery", "emit", "full", "--params", '{"n": 2, "labels": true}'],
        ["dim", "--class", str(float_full), "--kind", "natarajan"],
    ]
    for k, row in enumerate(([True, False, "*"], ["1", "0", 2])):
        params = {"family": [row, ["*", "1", "0"]], "labels": 3, "window": 1}
        failing = tmp_path / f"failing{k}.json"
        failing.write_text(json.dumps({"gallery": "failing_psi", "params": params}))
        cases += [["gallery", "emit", "failing_psi", "--params", json.dumps(params)],
                  ["dim", "--class", str(failing), "--kind", "graph"]]
    for learner in ("memorize:x", "const:x", f"embed:{c6_file}:x", f"embed:{c6_file}"):
        cases.append(["nfl", "--learner", learner, "--points", "0,1",
                      "--g1", "1,1", "--g2", "2,2"])
    cases.append(["sauer", "--class", c6_file, "--points", "0,5", "--d", "1"])
    cases.append(["dim", "--class", str(tmp_path), "--kind", "ds"])
    for argv in cases:
        assert_usage_error(capsys, *argv)


def test_gallery_params_take_only_the_entry_keys(capsys, tmp_path):
    # an unknown key used to be dropped, so {"n": 5} built gap at m=3
    gap = tmp_path / "gap.json"
    gap.write_text(json.dumps({"gallery": "gap", "params": {"n": 5}}))
    cases = [
        (["gallery", "emit", "gap", "--params", '{"n":5}'], "'n'"),
        (["gallery", "emit", "full", "--params", '{"n":2,"q":3}'], "'q'"),
        (["gallery", "emit", "six_cycle", "--params", '{"window":1}'], "'window'"),
        (["dim", "--class", str(gap), "--kind", "natarajan"], "'n'"),
    ]
    for argv, key in cases:
        assert_usage_error(capsys, *argv)
        dispatch(argv)
        assert f"takes no parameter {key}" in capsys.readouterr().err


def test_failing_psi_rows_keep_family_field_names(capsys):
    params = {"family": [["1", "0", "0"], ["1", 2, "0"]], "labels": 3}
    assert dispatch(["gallery", "emit", "failing_psi", "--params", json.dumps(params)]) == 2
    assert "family[1][1]: expected '0', '1' or '*'" in capsys.readouterr().err


def test_failing_psi_past_the_hypothesis_budget_exits_two(capsys, tmp_path):
    """Window 25 would build 2^26 rows; the budget that ``full_class`` keeps
    refuses it before any row is built, from the command line and from a
    class file alike.  It used to die with a MemoryError and exit 1."""
    params = {"labels": 2, "family": [["0", "0"]], "window": 25}
    path = tmp_path / "failing.json"
    path.write_text(json.dumps({"gallery": "failing_psi", "params": params}))
    for argv in (["gallery", "emit", "failing_psi", "--params", json.dumps(params)],
                 ["dim", "--class", str(path), "--kind", "graph"]):
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.endswith("2^26 hypotheses exceed the budget\n")


def test_builtin_family_past_the_table_entry_budget_exits_two(capsys, tmp_path):
    """psi_N over 1000 labels would build about 10^9 table entries before any
    alphabet check; the entry budget refuses it first, naming the count."""
    path = tmp_path / "psin1000.json"
    path.write_text(json.dumps({"labels": 1000, "builtin": "psi_N"}))
    assert dispatch(["distinguisher", "--psi", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("999000 encoders over 1000 labels hold 999000000 table "
                                 "entries, above the budget of 20971520\n")


def test_unknown_subcommand_exits_two(capsys):
    assert dispatch(["frobnicate"]) == 2
    capsys.readouterr()


def test_missing_file_exits_two(capsys):
    assert dispatch(["dim", "--class", "/nonexistent.json", "--kind", "ds"]) == 2
    capsys.readouterr()


# ------------------------------------------------------------ report shape

def test_report_byte_stability(capsys, c6_file):
    dispatch(["dim", "--class", c6_file, "--kind", "natarajan"])
    first = capsys.readouterr().out
    dispatch(["dim", "--class", c6_file, "--kind", "natarajan"])
    second = capsys.readouterr().out
    assert first == second


def test_report_has_no_float_tokens(capsys, c6_file, psin3_file):
    for argv in (
        ["dim", "--class", c6_file, "--kind", "ds"],
        ["nfl", "--learner", "memorize:0", "--points", "0,1",
         "--g1", "1,1", "--g2", "2,2"],
        ["distinguisher", "--psi", psin3_file],
    ):
        dispatch(argv)
        out = capsys.readouterr().out
        assert not re.search(r"-?\d+\.\d", out)
        assert not re.search(r"\d[eE][+-]\d", out)

        def walk(node):
            assert not isinstance(node, float)
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)

        walk(json.loads(out))


def test_refute_report_equals_per_entry_conversion(capsys, tmp_path):
    # the report as it was built before entries shared their parts: the
    # table-pair reference, each entry converted on its own, then the whole
    grid = dk.class_from_tables([(0, 1), (0, 2), (3, 1), (3, 2), (1, 1), (2, 0)],
                                num_labels=4)
    codes = []
    for cls in (dk.six_cycle_class().cls, grid):
        path = tmp_path / "cls.json"
        path.write_text(canonical_json(class_to_file(cls)))
        ref = refute_ds_reference(cls)
        result = {
            "verdict": ref.verdict,
            "pairs_examined": ref.pairs_examined,
            "shattering_pairs": len(ref.entries),
            "entries": [
                {"psi1": jsonable(e.psi1), "psi2": jsonable(e.psi2),
                 "subclasses": [[list(p) for p in s] for s in e.subclasses]}
                for e in ref.entries
            ],
        }
        expected = canonical_json({
            "command": "refute-ds",
            "inputs_digest": digest({"class": class_to_file(cls)}),
            "result": jsonable(result),
            "certificates": [],
        }) + "\n"
        codes.append(dispatch(["refute-ds", "--class", str(path)]))
        assert capsys.readouterr().out == expected
    assert codes == [0, 1]  # refuted, not_refuted


def test_float_in_shared_container_is_rejected():
    shared = [1, Fraction(1, 2), 0.5]
    for payload in ({"a": shared, "b": shared}, [shared, [shared]], (shared, shared)):
        with pytest.raises(SchemaError, match="floats"):
            jsonable(payload)


def test_shared_container_serializes_like_fresh_copies():
    part = (dk.PsiFunction(table=(0, 1, dk.STAR)), ((0, 1), (1, 0)), Fraction(2, 3),
            frozenset({3, 1}), {"4": "x", "y": [True, None]})
    shared = [part, {"k": part, "7": [part]}, part]
    fresh = [copy.deepcopy(part), {"k": copy.deepcopy(part), "7": [copy.deepcopy(part)]},
             copy.deepcopy(part)]
    assert canonical_json(shared) == canonical_json(fresh)
    assert canonical_json(jsonable(shared)) == canonical_json(jsonable(fresh))
    assert jsonable(shared)[1]["7"] == [jsonable(part)]


_PSI = st.lists(st.sampled_from([0, 1, dk.STAR]), min_size=1, max_size=4).map(
    lambda t: dk.PsiFunction(table=tuple(t)))
_LEAVES = st.one_of(
    st.integers(-10**20, 10**20), st.booleans(), st.none(), st.fractions(),
    st.text(max_size=6),
    st.sampled_from(['"', "\\", "\n\t", "\x00\x1f\x7f", "é ü", "∞\u2028", "😀", "</"]),
    _PSI,
    st.frozensets(st.integers(-3, 30), max_size=5),
    st.lists(st.integers(0, 3), min_size=1, max_size=4).map(
        lambda t: dk.Hypothesis(num_labels=4, table=tuple(t))),
    st.dictionaries(st.integers(0, 20), st.integers(1, 3), max_size=3).map(
        lambda d: dk.Hypothesis(num_labels=4, support=tuple(d.items()))),
)


@st.composite
def _pair_entries(draw, children):
    # a refutation report's entries held by image, small enough to be drawn
    # whole: at most two labels, any of them realized at each point, and per
    # image pair no entry (None) or a subclasses tuple shared by its table
    # pairs
    q = draw(st.integers(1, 2))
    labels1, labels2 = (tuple(sorted(draw(st.sets(st.integers(0, q - 1)))))
                        for _ in range(2))
    cell = st.none() | st.lists(children, max_size=3).map(tuple)
    decided = tuple(tuple(draw(cell) for _ in range(3 ** len(labels2)))
                    for _ in range(3 ** len(labels1)))
    return PairEntries(q, labels1, labels2, decided)


def _nested(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=3), children, max_size=4),
        st.builds(dk.ShatterCertificate, kind=st.sampled_from(["ds", "psi", "é"]),
                  points=st.lists(st.integers(0, 12), max_size=3).map(tuple),
                  payload=children),
        st.builds(PairEntry, psi1=_PSI, psi2=_PSI, subclasses=children),
        _pair_entries(children),
        # the same object three times
        children.map(lambda v: [v, {"again": v}, (v,)]),
    )


@settings(max_examples=300)
@given(st.recursive(_LEAVES, _nested, max_leaves=24))
def test_canonical_json_equals_two_pass_reference(value):
    assert canonical_json(value) == reference_json(value)


@given(_pair_entries(st.lists(st.integers(0, 3), max_size=2).map(tuple)))
def test_grouped_entries_count_and_subclasses_as_their_expansion(entries):
    # each image is shared by 3^(q - r) tables, which the count multiplies out
    expanded = list(entries)
    assert len(entries) == len(expanded)
    report = RefutationReport(verdict="refuted", pairs_examined=0, entries=entries)
    assert report.distinct_subclasses() == {s for e in expanded for s in e.subclasses}


@st.composite
def _split_entries(draw, children):
    # as a refutation holds them: the images that do not split leave their
    # rows and columns None throughout, each such row the one shared tuple
    entries = draw(_pair_entries(children))
    width = 3 ** len(entries.labels2)
    dead_rows = draw(st.sets(st.integers(0, len(entries.decided) - 1)))
    dead_columns = draw(st.sets(st.integers(0, width - 1)))
    undecided = (None,) * width
    decided = tuple(undecided if i in dead_rows else
                    tuple(None if j in dead_columns else found for j, found in enumerate(row))
                    for i, row in enumerate(entries.decided))
    return PairEntries(entries.num_labels, entries.labels1, entries.labels2, decided)


@given(_split_entries(st.lists(st.integers(0, 3), max_size=2).map(tuple)))
def test_entries_with_undecided_rows_and_columns_count_and_serialize_as_their_expansion(
        entries):
    expanded = list(entries)
    assert len(entries) == len(expanded)
    assert canonical_json(entries) == reference_json(entries)


def test_grouped_entries_serialize_as_their_expansion():
    # one label, realized at point 0 only: the three tables are the three
    # images at point 0 and share the one image at point 1; table 0's pairs
    # have subclasses, table 1's have none, and table 2's do not shatter
    t0, t1, t2 = (dk.PsiFunction(table=(t,)) for t in (0, 1, dk.STAR))
    found = (((0, 1), (1, 0)),)
    entries = PairEntries(1, labels1=(0,), labels2=(), decided=((found,), ((),), (None,)))
    want = [PairEntry(psi1=t, psi2=u, subclasses=f)
            for t, f in ((t0, found), (t1, ())) for u in (t0, t1, t2)]
    assert list(entries) == want and len(entries) == 6
    assert jsonable(entries) == jsonable(want)
    assert canonical_json(entries) == canonical_json(want) == reference_json(entries)
    assert canonical_json([entries, {"again": entries}]) == reference_json([want, {"again": want}])


class _Label(enum.IntEnum):
    TWO = 2


def test_canonical_json_orders_keys_and_members_like_the_reference():
    # keys sort as strings, frozenset members as numbers; one literal text
    # per report type pins the conversion that the writer and the
    # reference share
    t0, t1 = dk.PsiFunction(table=(0, 1, dk.STAR)), dk.PsiFunction(table=(1, dk.STAR, 0))
    psi0, psi1 = '["0","1","*"]', '["1","*","0"]'
    for value, text in (
            ({"10": 0, "9": 1, "True": 2}, '{"10":0,"9":1,"True":2}'),
            (frozenset({10, 9, 100}), "[9,10,100]"),
            (Fraction(-3, 4), '{"den":4,"num":-3}'),
            (t0, psi0),
            (dk.Hypothesis(num_labels=3, table=(0, 2, 1)), '{"table":[0,2,1]}'),
            (dk.Hypothesis(num_labels=3, support=((10, 2), (9, 1))),
             '{"support":{"10":2,"9":1}}'),
            (dk.ShatterCertificate(kind="ds", points=(0, 1), payload=((0, 1), (1, 0))),
             '{"kind":"ds","payload":[[0,1],[1,0]],"points":[0,1]}'),
            (PairEntry(psi1=t0, psi2=t1, subclasses=(((0, 1), (1, 0)),)),
             f'{{"psi1":{psi0},"psi2":{psi1},"subclasses":[[[0,1],[1,0]]]}}'),
            # with all three labels realized at both points each table is
            # its own image, its values read in base 3: t0 is 5 and t1 is 15
            (PairEntries(3, (0, 1, 2), (0, 1, 2), tuple(
                tuple((("x",),) if i == 5 and j in (5, 15) else None for j in range(27))
                for i in range(27))),
             f'[{{"psi1":{psi0},"psi2":{psi0},"subclasses":[["x"]]}},'
             f'{{"psi1":{psi0},"psi2":{psi1},"subclasses":[["x"]]}}]')):
        assert canonical_json(value) == reference_json(value) == text


_POINT = collections.namedtuple("point", "x y")


@pytest.mark.parametrize("value, message", [
    (0.5, "floats are banned"),
    ({10: "a"}, "cannot serialize int as a dict key"),
    ({True: 1}, "cannot serialize bool as a dict key"),
    ({(0, 1): 1}, "cannot serialize tuple as a dict key"),
    ({0.5: 1}, "floats are banned"),
    ({3, 1}, "cannot serialize set"),
    (frozenset({(9, 1), (10,)}), "cannot serialize tuple in a frozenset"),
    (frozenset({True}), "cannot serialize bool in a frozenset"),
    (frozenset({"a"}), "cannot serialize str in a frozenset"),
    (_Label.TWO, "cannot serialize _Label"),
    (_POINT(1, 0), "cannot serialize point"),
    (collections.OrderedDict([("a", 1)]), "cannot serialize OrderedDict"),
    (collections.Counter({"a": 1}), "cannot serialize Counter"),
    (dk.natarajan_family(3), "cannot serialize PsiFamily"),
    (object(), "cannot serialize object"),
])
def test_values_outside_the_report_vocabulary_are_rejected(value, message):
    # on their own, nested (also in lists and dicts only, which the C encoder
    # could write in one call), and shared
    for payload in (value, [1, {"k": (value,)}], [[1], {"k": [value]}], [value, value]):
        for convert in (canonical_json, jsonable):
            with pytest.raises(SchemaError, match=f"^{message}"):
                convert(payload)


@pytest.mark.parametrize("value", [
    0.5,
    [1, Fraction(1, 2), 0.5],
    {"a": {"b": [0.5]}},
    frozenset({0.5, 1}),
    dk.ShatterCertificate(kind="ds", points=(0,), payload=((0.5,),)),
    PairEntry(psi1=dk.PsiFunction(table=(0, 1)), psi2=dk.PsiFunction(table=(1, 0)),
              subclasses=((0.5,),)),
])
def test_canonical_json_rejects_floats(value):
    for payload in (value, [value, {"again": value}]):
        with pytest.raises(SchemaError, match="floats"):
            canonical_json(payload)


@pytest.mark.parametrize("value", [object(), b"x", 1j, {"k": [dk.natarajan_family(3)]},
                                   frozenset({object()})])
def test_canonical_json_rejects_unknown_types(value):
    with pytest.raises(SchemaError, match="cannot serialize"):
        canonical_json(value)


def test_six_cycle_refute_report_is_pinned(capsys, c6_file):
    assert dispatch(["refute-ds", "--class", c6_file]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "ad0d297d3f148a1e231e7348b1c944d1d3c465420e5b014a64b71f2982af52e4"


def _grid_class_file(tmp_path, q):
    # two points, five hypotheses, DS dimension 2, three labels realized at
    # each point: 3^(q-3) tables share each image
    path = tmp_path / f"grid{q}.json"
    path.write_text(json.dumps({"labels": q, "domain": 2, "hypotheses": [
        [0, 0], [0, 1], [1, 0], [1, 1], [q - 1, q - 1]]}))
    return str(path)


def test_q7_refute_report_is_pinned(capsys, tmp_path):
    # 236,196 entries, a size the perfbench deck does not reach
    assert dispatch(["refute-ds", "--class", _grid_class_file(tmp_path, 7)]) == 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "4ee8a6bfd4b728b933c03f2f6d2b9364f1cc2f3b81a5755aa3742a8d8d867589"


def test_refute_report_over_the_entry_budget_exits_2(capsys, tmp_path):
    started = time.monotonic()
    assert dispatch(["refute-ds", "--class", _grid_class_file(tmp_path, 8)]) == 2
    assert time.monotonic() - started < 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "2125764 shattering encoder pairs, above the budget of 1000000" in err


def test_refute_image_pairs_over_budget_exit_2_before_the_work(capsys, tmp_path):
    # all 100 hypotheses over 10 labels: 3^20 image pairs, refused before
    # the C(100, 4) candidate subclasses are built
    path = tmp_path / "full10.json"
    path.write_text(json.dumps({"labels": 10, "domain": 2, "hypotheses": [
        [a, b] for a in range(10) for b in range(10)]}))
    started = time.monotonic()
    assert dispatch(["refute-ds", "--class", str(path)]) == 2
    assert time.monotonic() - started < 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "decides 3486784401 encoder image pairs, above the budget of 1000000" in err


def test_refute_decisions_over_budget_exit_2_before_the_work(capsys, tmp_path):
    # all 25 hypotheses over 5 labels: 180 x 180 splitting image pairs, each
    # checked against C(25, 4) subsets, refused before those are built
    path = tmp_path / "full5.json"
    path.write_text(canonical_json(class_to_file(dk.full_class(2, 5))))
    started = time.monotonic()
    assert dispatch(["refute-ds", "--class", str(path)]) == 2
    assert time.monotonic() - started < 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "makes 409860000 subset checks (splitting image pairs x 4-behavior subsets), " \
        "above the budget of 100000000" in err


def test_refute_report_over_the_table_budget_exits_2(capsys, tmp_path):
    assert dispatch(["refute-ds", "--class", _grid_class_file(tmp_path, 11)]) == 2
    assert "3^11 encoder tables" in capsys.readouterr().err


def test_refute_command_builds_no_pair_entry(monkeypatch, capsys, c6_file):
    built = []

    def counted(*args, **kwargs):
        built.append(1)
        return PairEntry(*args, **kwargs)

    monkeypatch.setattr(psi, "PairEntry", counted)
    # nor any encoder table: the decision reads images, the report text
    # writes tables from their symbols
    tables = []
    post_init = psi.PsiFunction.__post_init__
    monkeypatch.setattr(psi.PsiFunction, "__post_init__",
                        lambda self: tables.append(1) or post_init(self))
    assert dispatch(["refute-ds", "--class", c6_file]) == 0
    assert capsys.readouterr().out and built == [] and tables == []
    # the count sees entries that are read from the report
    next(iter(psi.refute_ds_expressibility(dk.six_cycle_class().cls).entries))
    assert built == [1]


SMALL_TABLE = {"labels": 3, "domain": 4, "hypotheses": [
    [0, 1, 2, 0], [1, 0, 2, 1], [2, 2, 0, 1], [0, 0, 1, 2], [1, 2, 1, 0]]}


@pytest.mark.parametrize("argv, code, expected", [
    (["--class", "gap.json", "--bundled"], 0,
     "a719819d17b0f3267ee5b396b26bdc18d6ab078d08eec53a15d4f6b069ec9384"),
    (["--class", "small.json", "--flavor", "graph", "--order", "1"], 1,
     "869359363511d39ae0f83105cb27f152e3aa4f8e74b53eced48b7a81f2962c8a"),
    (["--class", "small.json", "--flavor", "psi", "--psi", "psiG.json", "--order", "1"], 1,
     "ea918deaf86621696eed402590174e4e2f777308adf8b7e990f6261b78b3a95d"),
], ids=["gap3-bundled", "graph", "psiG"])
def test_witness_check_reports_are_pinned(capsys, tmp_path, monkeypatch, argv, code, expected):
    (tmp_path / "gap.json").write_text(json.dumps({"gallery": "gap", "params": {"m": 3}}))
    (tmp_path / "small.json").write_text(json.dumps(SMALL_TABLE))
    (tmp_path / "psiG.json").write_text(json.dumps({"labels": 3, "builtin": "psi_G"}))
    monkeypatch.chdir(tmp_path)
    assert dispatch(["witness", "check", *argv]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == expected


def test_dispatch_carries_no_value_to_the_next_call(capsys, three_file, psin3_file):
    code, report = run(capsys, "--timing", "dim", "--class", three_file, "--kind", "psi",
                       "--psi", psin3_file)
    assert code == 0 and "runtime_ms" in report
    # a --psi left over from the first call would make this one exit 2
    code, report = run(capsys, "dim", "--class", three_file, "--kind", "natarajan")
    assert code == 0 and "runtime_ms" not in report
    assert report["inputs_digest"] == digest({
        "class": class_to_file(parse_class_file(three_file)), "kind": "natarajan",
        "psi": None, "window": None})
    assert cli._parser() is cli._parser()


@pytest.mark.parametrize("error", [dk.ConsistencyError, dk.NflFailureError])
def test_broken_invariant_exits_three(capsys, monkeypatch, c6_file, error):
    def broken(cls):
        raise error("adversary found no mixture")

    monkeypatch.setattr(psi, "refute_ds_expressibility", broken)
    code = dispatch(["refute-ds", "--class", c6_file])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: internal invariant failed: adversary found no mixture\n"


def test_timing_is_opt_in(capsys, c6_file):
    _, report = run(capsys, "dim", "--class", c6_file, "--kind", "graph")
    assert "runtime_ms" not in report
    _, report = run(capsys, "--timing", "dim", "--class", c6_file, "--kind", "graph")
    assert isinstance(report["runtime_ms"], int)


def test_console_entry_point(tmp_path):
    path = tmp_path / "c6.json"
    path.write_text(json.dumps({"gallery": "six_cycle"}))
    proc = subprocess.run(
        [sys.executable, "-m", "dimkit", "dim", "--class", str(path), "--kind", "ds"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["dimension"] == 2


def test_cross_process_byte_stability(tmp_path):
    # separate processes with different hash seeds, so set and dict order
    # leaking into a report (e.g. from the DS core's peeling) would show here
    import os

    c6 = tmp_path / "c6.json"
    c6.write_text(json.dumps({"gallery": "six_cycle"}))
    # the six-cycle plus a chain (3,0) -> (1,0) -> (1,1) that peels away one
    # pattern after another, so the DS core is a proper nonempty subset
    rows = [[0, 1], [2, 1], [2, 3], [4, 3], [4, 5], [0, 5], [1, 1], [1, 0], [3, 0]]
    tail = tmp_path / "tail.json"
    tail.write_text(json.dumps({"labels": 6, "domain": 2, "hypotheses": rows}))
    psin = tmp_path / "psin6.json"
    psin.write_text(json.dumps({"labels": 6, "builtin": "psi_N"}))
    # two complementary pairs of members; they 2-shatter the tail class
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"labels": 6, "family": [
        ["1", "0", "*", "*", "*", "1"], ["0", "1", "*", "*", "*", "0"],
        ["*", "0", "*", "*", "1", "1"], ["*", "1", "*", "*", "0", "0"]]}))
    # a sparse base over the naturals with Natarajan dimension 1 and Psi_G
    # dimension 2, for the good-pattern commands
    base = tmp_path / "base.json"
    base.write_text(json.dumps({"labels": 3, "domain": "nat", "hypotheses": [
        {"support": sup} for sup in ({"0": 1, "1": 2}, {"1": 1, "2": 2}, {"0": 2, "2": 1},
                                     {"3": 1}, {"1": 2, "3": 2})]}))
    psig = tmp_path / "psig3.json"
    psig.write_text(json.dumps({"labels": 3, "builtin": "psi_G"}))
    # refute-ds and the graph witness read bitmasks whose bits follow the
    # iteration order of a frozenset of behaviors; the coverage search
    # iterates dicts of suffixes and of realized labels
    commands = [
        (["witness", "check", "--class", str(c6), "--flavor", "natarajan", "--order", "1"], 0),
        (["witness", "check", "--class", str(c6), "--flavor", "graph", "--order", "1"], 1),
        (["refute-ds", "--class", str(c6)], 0),
        # the good-pattern exclusion collects excluded labelings in sets
        (["embed", "behaviors", "--class", str(base), "--witness", "natarajan:1",
          "--points", "0,2,4"], 0),
        (["embed", "erm", "--class", str(base), "--witness", "natarajan:1",
          "--sample", "0:1,2:2,4:1"], 0),
        (["embed", "behaviors", "--class", str(base), "--witness", "psi:2",
          "--psi", str(psig), "--points", "1,3,4"], 0),
        (["nfl", "--learner", f"embed:{base}:1", "--points", "0,1,2,3",
          "--g1", "0,1,2,0", "--g2", "1,2,0,2"], 0),
        (["dim", "--class", str(tail), "--kind", "graph"], 0),
        (["dim", "--class", str(tail), "--kind", "psi", "--psi", str(psin)], 0),
        (["dim", "--class", str(tail), "--kind", "psi", "--psi", str(pair)], 0),
        (["dim", "--class", str(tail), "--kind", "ds"], 0),
    ]
    for command, code in commands:
        outs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run([sys.executable, "-m", "dimkit", *command],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == code
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
    cert = json.loads(outs[0])["certificates"][0]
    assert cert["payload"] == [sorted(rows[:6])]


def test_demo_script_runs(tmp_path):
    import os

    demo = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "demo.py")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, demo], capture_output=True, text=True,
                          env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "== gallery dimensions ==" in proc.stdout
    assert "verdict=refuted" in proc.stdout
