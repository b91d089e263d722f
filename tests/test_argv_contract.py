"""The exit-code contract under generated command lines: every argv, valid
or not, exits 0, 1 or 2 without a traceback, and exit 1 always comes with a
well-formed report.

Argument values are drawn from small pools that mix valid values with
malformed ones (non-integers, negatives, out-of-range labels, unknown
names, unreadable or malformed files).  Sizes stay small (windows up to 4,
alphabets up to 5, sample size m up to 2) so that every command finishes in
milliseconds; the point is the boundary, not the search.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dimkit.cli import dispatch

CLASS_FILES = {
    "three.json": {"labels": 3, "domain": 2, "hypotheses": [[0, 1], [1, 0], [2, 2]]},
    "full.json": {"gallery": "full", "params": {"n": 2, "labels": 2}},
    "gap.json": {"gallery": "gap", "params": {"m": 2}},
    "nat.json": {"labels": 2, "domain": "nat",
                 "hypotheses": [{"support": {}}, {"support": {"1": 1}}, {"support": {"0": 1, "2": 1}}]},
    "zero.json": {"labels": 2, "domain": "nat", "hypotheses": [{"support": {}}]},
    "failing.json": {"gallery": "failing_psi",
                     "params": {"family": [["0", "1", "*"], ["*", "*", "1"]], "labels": 3,
                                "window": 1}},
    # malformed
    "list.json": [1, 2],
    "nolabels.json": {"domain": 2, "hypotheses": [[0, 1]]},
    "boollabels.json": {"labels": True, "domain": 1, "hypotheses": [[0]]},
    "zerolabels.json": {"labels": 0, "domain": 1, "hypotheses": [[0]]},
    "floatlabels.json": {"labels": 2.0, "domain": 1, "hypotheses": [[0]]},
    "baddomain.json": {"labels": 2, "domain": "x", "hypotheses": [[0]]},
    "empty.json": {"labels": 2, "domain": 1, "hypotheses": []},
    "shortrow.json": {"labels": 2, "domain": 2, "hypotheses": [[0]]},
    "bigvalue.json": {"labels": 2, "domain": 2, "hypotheses": [[0, 5]]},
    "nullvalue.json": {"labels": 2, "domain": 2, "hypotheses": [[0, None]]},
    "dupes.json": {"labels": 2, "domain": 1, "hypotheses": [[1], [1]]},
    "badsupport.json": {"labels": 2, "domain": "nat", "hypotheses": [{"support": [1]}]},
    "badkey.json": {"labels": 2, "domain": "nat", "hypotheses": [{"support": {"a": 1}}]},
    "negkey.json": {"labels": 2, "domain": "nat", "hypotheses": [{"support": {"-1": 1}}]},
    "strlabel.json": {"labels": 3, "domain": "nat", "hypotheses": [{"support": {"0": "1"}}]},
    "zerolabel.json": {"labels": 3, "domain": "nat", "hypotheses": [{"support": {"0": 0}}]},
    "nosupport.json": {"labels": 2, "domain": "nat", "hypotheses": [{}]},
    "badgallery.json": {"gallery": "nope"},
    "badparams.json": {"gallery": "gap", "params": [1]},
    "strparam.json": {"gallery": "gap", "params": {"m": "x"}},
    "hugeparam.json": {"gallery": "gap", "params": {"m": 99}},
    "inftyparam.json": {"gallery": "full", "params": {"n": 1e999}},
    "badfamily.json": {"gallery": "failing_psi", "params": {"family": [[5]], "labels": 2}},
    "nofamily.json": {"gallery": "failing_psi", "params": {"labels": "x"}},
}

FAMILY_FILES = {
    "psiN3.json": {"labels": 3, "builtin": "psi_N"},
    "psiG2.json": {"labels": 2, "builtin": "psi_G"},
    "rows3.json": {"labels": 3, "family": [["0", "1", "*"], [1, 0, "*"], ["*", "0", "1"]]},
    # malformed
    "fam1.json": {"labels": 1, "builtin": "psi_G"},
    "famname.json": {"labels": 3, "builtin": "psi_X"},
    "famempty.json": {"labels": 2, "family": []},
    "famshort.json": {"labels": 3, "family": [["0", "1"]]},
    "famsym.json": {"labels": 2, "family": [["0", "2"]]},
    "fambool.json": {"labels": 2, "family": [[True, "0"]]},
    "famlist.json": ["psi_N"],
}

RAW_FILES = {
    "badjson.json": b"{\"labels\": 2,",
    "deep.json": b"[" * 100000 + b"]" * 100000,
    "latin1.json": b"\xff\xfe{}",
    "blank.json": b"",
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    for name, doc in {**CLASS_FILES, **FAMILY_FILES}.items():
        (root / name).write_text(json.dumps(doc))
    for name, data in RAW_FILES.items():
        (root / name).write_bytes(data)
    (root / "adir.json").mkdir()
    return root


def _pool(good, bad):
    """Valid values four times as likely as each malformed one, so that
    most commands get past parsing into the code behind it."""
    return st.sampled_from([*good] * 4 + [*bad])


def _files(root, good, bad):
    return _pool([str(root / n) for n in good],
                 [str(root / n) for n in (*bad, *RAW_FILES, "adir.json", "missing.json")])


GOOD_CLASSES = ("three.json", "full.json", "gap.json", "nat.json", "zero.json", "failing.json")
GOOD_FAMILIES = ("psiN3.json", "psiG2.json", "rows3.json")
INTS = _pool(["0", "1", "2", "3", "4"], ["-1", "x", "", "1.5", "01"])
POINTS = _pool(["0,1", "1,0", "0,1,2,3", "0,1,2", "2,0"], ["0,0", "", "x", "-1,2", "5,6", "0,,1"])
LABELS = _pool(["0,0", "1,1", "0,1", "1,0", "2,2", "0,0,0,0", "1,1,1,1", "1,2,1,2"],
               ["", "x", "-1,-1", "9,9", "1"])
SAMPLES = _pool(["0:1", "0:1,1:0", "1:1,1:1", "0:2,1:1"], ["x", "", "0:9", "-1:0", "0:1:2", "7:1"])
WITNESS_SPECS = _pool(["natarajan:0", "natarajan:1", "psi:1", "psi:0", "natarajan:2"],
                      ["graph:1", "natarajan:x", "natarajan:-1", "", "natarajan"])
PARAMS = _pool(['{}', '{"n":2,"labels":3}', '{"m":2}', '{"window":1}', '{"labels":2}',
                '{"family":[["0","*"]],"labels":2,"window":1}'],
               ['{bad', '[]', 'null', '{"n":"x"}', '{"m":-1}', '{"m":99}', '{"m":1e999}',
                '{"m":1.5}', '{"n":true}', '{"window":-1}', '{"family":[["0","1"]],"labels":2}',
                '{"family":[[{}]],"labels":2}', '{"family":[[5]],"labels":2}'])


def _learners(root):
    classes = _pool([str(root / n) for n in ("three.json", "full.json", "nat.json")],
                    [str(root / n) for n in ("bigvalue.json", "missing.json", "badjson.json")])
    return st.one_of(
        _pool(["const:0", "const:1", "memorize:1", "memorize:0"],
              ["const:x", "const:-1", "const:9", "memorize:", "bogus", "", "erm:", "embed::1"]),
        classes.map(lambda p: f"erm:{p}"),
        st.tuples(classes, _pool(["0", "1"], ["x", "-1"])).map(
            lambda t: f"embed:{t[0]}:{t[1]}"),
    )


def _argv(root):
    classes = _files(root, GOOD_CLASSES, [n for n in CLASS_FILES if n not in GOOD_CLASSES])
    families = _files(root, GOOD_FAMILIES, [n for n in FAMILY_FILES if n not in GOOD_FAMILIES])
    learners = _learners(root)

    def concat(*parts):
        return st.tuples(*parts).map(lambda ps: [tok for p in ps for tok in p])

    def flag(name, values, present):
        return st.tuples(st.sampled_from(present), values).map(
            lambda t: [name, t[1]] if t[0] else [])

    def req(name, values):
        return flag(name, values, [True] * 9 + [False])

    def opt(name, values):
        return flag(name, values, [True, False])

    dim = concat(st.just(["dim"]), req("--class", classes),
                 req("--kind", _pool(["vc", "natarajan", "graph", "ds", "psi"], ["x"])),
                 opt("--psi", families), opt("--window", INTS))
    witness = concat(st.sampled_from([["witness", "make"], ["witness", "check"]]),
                     req("--class", classes),
                     req("--flavor", _pool(["natarajan", "graph", "psi"], ["x"])),
                     req("--order", INTS), opt("--psi", families), opt("--window", INTS),
                     st.sampled_from([[], [], ["--bundled"]]))
    from_learner = concat(st.just(["witness", "from-learner"]), req("--learner", learners),
                          req("--m", _pool(["1", "2"], ["-1", "0", "x"])),
                          opt("--window", INTS), opt("--labels", INTS),
                          opt("--check-class", classes))
    nfl = concat(st.just(["nfl"]), req("--learner", learners), req("--points", POINTS),
                 req("--g1", LABELS), req("--g2", LABELS))
    embed = concat(st.just(["embed"]), _pool([["behaviors"], ["erm"]], [["x"]]),
                   req("--class", classes), req("--witness", WITNESS_SPECS),
                   opt("--psi", families), opt("--points", POINTS), opt("--sample", SAMPLES))
    distinguisher = concat(st.just(["distinguisher"]), req("--psi", families))
    refute = concat(st.just(["refute-ds"]), req("--class", classes))
    sauer = concat(st.just(["sauer"]), req("--class", classes), req("--points", POINTS),
                   req("--d", INTS))
    gallery = concat(st.just(["gallery"]),
                     _pool([["list"], ["emit", "full"], ["emit", "gap"], ["emit", "six_cycle"],
                            ["emit", "failing_psi"]], [["emit"], ["emit", "nope"], ["x"]]),
                     opt("--params", PARAMS))
    junk = st.lists(st.sampled_from(["--help", "--timing", "-x", "dim", "--class", "x", "--"]),
                    max_size=3)
    command = st.one_of(dim, witness, from_learner, nfl, embed, distinguisher, refute,
                        sauer, gallery, junk)
    return concat(st.sampled_from([[], ["--timing"]]), command)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    return code, out.getvalue(), err.getvalue()


def test_generated_argv_keeps_the_exit_code_contract(workdir):
    @settings(derandomize=True, database=None, max_examples=600, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_argv(workdir))
    def check(argv):
        code, out, err = _run(argv)
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err, (argv, err)
        if code == 1:
            report = json.loads(out)
            assert isinstance(report, dict) and isinstance(report.get("result"), dict), argv
        if code == 2:
            assert out == "" and err, (argv, out, err)

    check()
