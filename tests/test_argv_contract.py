"""The exit-code contract under generated command lines: every argv, valid
or not, exits 0, 1 or 2 without a traceback, and exit 1 always comes with a
well-formed report.

Argument values are drawn from small pools that mix valid values with
malformed ones (non-integers, negatives, out-of-range labels, unknown
names, unreadable or malformed files).  Sizes stay small (windows up to 4,
alphabets up to 5, sample size m up to 2) so that every command finishes in
milliseconds; the point is the boundary, not the search.
"""

import argparse
import contextlib
import io
import json
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dimkit import cli
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
    "underkey.json": {"labels": 2, "domain": "nat", "hypotheses": [{"support": {"1_0": 1}}]},
    "zerokey.json": {"labels": 2, "domain": "nat", "hypotheses": [{"support": {"01": 1}}]},
    "strlabel.json": {"labels": 3, "domain": "nat", "hypotheses": [{"support": {"0": "1"}}]},
    "zerolabel.json": {"labels": 3, "domain": "nat", "hypotheses": [{"support": {"0": 0}}]},
    "nosupport.json": {"labels": 2, "domain": "nat", "hypotheses": [{}]},
    "badgallery.json": {"gallery": "nope"},
    "badparams.json": {"gallery": "gap", "params": [1]},
    "strparam.json": {"gallery": "gap", "params": {"m": "x"}},
    "hugeparam.json": {"gallery": "gap", "params": {"m": 99}},
    "unknownparam.json": {"gallery": "gap", "params": {"n": 5}},
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


class Pool(NamedTuple):
    """The values drawn for one option: valid ones, then malformed ones.
    A pool of file names (``files``) passes each name as a path under the
    work directory."""

    good: tuple
    bad: tuple
    files: bool = False

    def values(self, root):
        return [str(root / v) if self.files else v for v in (*self.good, *self.bad)]

    def strategy(self, root):
        """Valid values four times as likely as each malformed one, so that
        most commands get past parsing into the code behind it."""
        values = self.values(root)
        return st.sampled_from(values[:len(self.good)] * 4 + values[len(self.good):])


def _files(good, bad):
    return Pool(tuple(good), (*bad, *RAW_FILES, "adir.json", "missing.json"), files=True)


GOOD_CLASSES = ("three.json", "full.json", "gap.json", "nat.json", "zero.json", "failing.json")
GOOD_FAMILIES = ("psiN3.json", "psiG2.json", "rows3.json")
CLASSES = _files(GOOD_CLASSES, [n for n in CLASS_FILES if n not in GOOD_CLASSES])
FAMILIES = _files(GOOD_FAMILIES, [n for n in FAMILY_FILES if n not in GOOD_FAMILIES])
INTS = Pool(("0", "1", "2", "3", "4"), ("-1", "x", "", "1.5", "01"))
# A value written "=v" is passed joined to its option, as "--points=v": as a
# token of its own, argparse takes "-1,2" for an option, so only the joined
# form brings a negative list to the handler.
POINTS = Pool(("0,1", "1,0", "0,1,2,3", "0,1,2", "2,0"),
              ("0,0", "", "x", "-1,2", "5,6", "0,,1", "=-1,2", "=-1"))
LABELS = Pool(("0,0", "1,1", "0,1", "1,0", "2,2", "0,0,0,0", "1,1,1,1", "1,2,1,2"),
              ("", "x", "-1,-1", "9,9", "1", "=-1,0"))
# alphabet sizes for --labels; 0 used to fall back to --check-class's alphabet
ALPHABETS = Pool(("1", "2", "3", "5"), ("0", "-1", "x"))
SAMPLES = Pool(("0:1", "0:1,1:0", "1:1,1:1", "0:2,1:1"),
               ("x", "", "0:9", "-1:0", "0:1:2", "7:1", "=-1:0", "=0:1,-2:1"))
WITNESS_SPECS = Pool(("natarajan:0", "natarajan:1", "psi:1", "psi:0", "natarajan:2"),
                     ("graph:1", "natarajan:x", "natarajan:-1", "", "natarajan",
                      "natarajan:\u00b2"))
PARAMS = Pool(('{}', '{"n":2,"labels":3}', '{"m":2}', '{"window":1}', '{"labels":2}',
               '{"family":[["0","*"]],"labels":2,"window":1}'),
              ('{bad', '[]', 'null', '{"n":"x"}', '{"m":-1}', '{"m":99}', '{"m":1e999}',
               '{"m":1.5}', '{"n":true}', '{"window":-1}', '{"family":[["0","1"]],"labels":2}',
               '{"family":[[{}]],"labels":2}', '{"family":[[5]],"labels":2}',
               '{"m":2,"q":3}'))
KINDS = Pool(("vc", "natarajan", "graph", "ds", "psi"), ("x",))
FLAVORS = Pool(("natarajan", "graph", "psi"), ("x",))
SIZES = Pool(("1", "2"), ("-1", "0", "x"))
# learners: a spec, erm over a class file, or embed over a class file and order
LEARNER_SPECS = Pool(("const:0", "const:1", "memorize:1", "memorize:0"),
                     ("const:x", "const:-1", "const:9", "memorize:", "bogus", "", "erm:",
                      "embed::1"))
LEARNER_CLASSES = Pool(("three.json", "full.json", "nat.json"),
                       ("bigvalue.json", "missing.json", "badjson.json"), files=True)
EMBED_ORDERS = Pool(("0", "1"), ("x", "-1"))
# positional words, as token lists
EMBED_MODES = Pool((["behaviors"], ["erm"]), (["x"],))
GALLERY_ACTIONS = Pool((["list"], ["emit", "full"], ["emit", "gap"], ["emit", "six_cycle"],
                        ["emit", "failing_psi"]), (["emit"], ["emit", "nope"], ["x"]))


def _learners(root):
    classes = LEARNER_CLASSES.strategy(root)
    return st.one_of(
        LEARNER_SPECS.strategy(root),
        classes.map(lambda p: f"erm:{p}"),
        st.tuples(classes, EMBED_ORDERS.strategy(root)).map(
            lambda t: f"embed:{t[0]}:{t[1]}"),
    )


def _argv(root):
    classes = CLASSES.strategy(root)
    families = FAMILIES.strategy(root)
    learners = _learners(root)
    ints = INTS.strategy(root)
    points = POINTS.strategy(root)

    def concat(*parts):
        return st.tuples(*parts).map(lambda ps: [tok for p in ps for tok in p])

    def flag(name, values, present):
        return st.tuples(st.sampled_from(present), values).map(
            lambda t: _tokens(name, t[1]) if t[0] else [])

    def req(name, values):
        return flag(name, values, [True] * 9 + [False])

    def opt(name, values):
        return flag(name, values, [True, False])

    dim = concat(st.just(["dim"]), req("--class", classes),
                 req("--kind", KINDS.strategy(root)),
                 opt("--psi", families), opt("--window", ints))
    # a witness comes from --flavor and --order, or from --bundled alone
    chosen = st.one_of(
        concat(req("--flavor", FLAVORS.strategy(root)), req("--order", ints),
               opt("--psi", families)),
        concat(st.just(["--bundled"]), flag("--psi", families, [False] * 9 + [True])))
    witness = st.one_of(
        concat(st.just(["witness", "make"]), req("--class", classes), chosen),
        concat(st.just(["witness", "check"]), req("--class", classes), chosen,
               opt("--window", ints)))
    from_learner = concat(st.just(["witness", "from-learner"]), req("--learner", learners),
                          req("--m", SIZES.strategy(root)),
                          opt("--window", ints), opt("--labels", ALPHABETS.strategy(root)),
                          opt("--check-class", classes))
    nfl = concat(st.just(["nfl"]), req("--learner", learners), req("--points", points),
                 req("--g1", LABELS.strategy(root)), req("--g2", LABELS.strategy(root)))
    # each embed mode takes its own option: --points or --sample
    mode_option = {"behaviors": req("--points", points),
                   "erm": req("--sample", SAMPLES.strategy(root))}
    embed = EMBED_MODES.strategy(root).flatmap(lambda mode: concat(
        st.just(["embed", *mode]), req("--class", classes),
        req("--witness", WITNESS_SPECS.strategy(root)), opt("--psi", families),
        mode_option.get(mode[0], st.just([]))))
    distinguisher = concat(st.just(["distinguisher"]), req("--psi", families))
    refute = concat(st.just(["refute-ds"]), req("--class", classes))
    sauer = concat(st.just(["sauer"]), req("--class", classes), req("--points", points),
                   req("--d", ints))
    # only gallery emit takes --params
    gallery = GALLERY_ACTIONS.strategy(root).flatmap(lambda action: concat(
        st.just(["gallery", *action]),
        opt("--params", PARAMS.strategy(root)) if action[0] == "emit" else st.just([])))
    junk = st.lists(st.sampled_from(["--help", "--timing", "-x", "dim", "--class", "x", "--"]),
                    max_size=3)
    command = st.one_of(dim, witness, from_learner, nfl, embed, distinguisher, refute,
                        sauer, gallery, junk)
    return concat(st.sampled_from([[], ["--timing"]]), command)


def _tokens(name, value):
    return [name + value] if value.startswith("=") else [name, value]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    return code, out.getvalue(), err.getvalue()


def _check_contract(argv):
    code, out, err = _run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, (argv, err)
    if code == 1:
        report = json.loads(out)
        assert isinstance(report, dict) and isinstance(report.get("result"), dict), argv
    if code == 2:
        assert out == "" and err, (argv, out, err)


def _bases(root):
    """One command line per subcommand mode that runs to a report: the head
    words, then each option the subcommand takes with its base value, or
    None where the option is left out.  A key in angle brackets is a
    positional word list."""
    three, nat, full, psin3 = (str(root / n) for n in
                               ("three.json", "nat.json", "full.json", "psiN3.json"))
    witness = {"--class": three, "--flavor": "natarajan", "--order": "1", "--psi": None}
    embed = {"--class": nat, "--witness": "natarajan:1", "--psi": None}
    return [
        (["dim"], {"--class": three, "--kind": "natarajan", "--psi": None, "--window": None}),
        (["witness", "make"], witness),
        (["witness", "check"], {**witness, "--window": "1"}),
        (["witness", "from-learner"], {"--learner": "const:0", "--m": "1", "--window": "2",
                                       "--labels": "2", "--check-class": None}),
        (["nfl"], {"--learner": "memorize:0", "--points": "0,1", "--g1": "0,0",
                   "--g2": "1,1"}),
        (["embed"], {"<mode>": ["behaviors"], **embed, "--points": "0,1"}),
        (["embed"], {"<mode>": ["erm"], **embed, "--sample": "0:1,1:0"}),
        (["distinguisher"], {"--psi": psin3}),
        (["refute-ds"], {"--class": full}),
        (["sauer"], {"--class": three, "--points": "0,1", "--d": "1"}),
        (["gallery"], {"<action>": ["list"]}),
        (["gallery"], {"<action>": ["emit", "gap"], "--params": None}),
    ]


OPTION_POOLS = {
    "--class": CLASSES, "--check-class": CLASSES, "--psi": FAMILIES, "--kind": KINDS,
    "--flavor": FLAVORS, "--order": INTS, "--window": INTS, "--d": INTS, "--m": SIZES,
    "--labels": ALPHABETS, "--points": POINTS, "--g1": LABELS, "--g2": LABELS,
    "--sample": SAMPLES, "--witness": WITNESS_SPECS, "--params": PARAMS,
    "<mode>": EMBED_MODES, "<action>": GALLERY_ACTIONS,
}


def _substitutes(option, root):
    """(pool, index, value) for every value of the pools behind an option;
    a learner class goes in under both erm and embed."""
    if option != "--learner":
        pool = OPTION_POOLS[option]
        return [(pool, i, v) for i, v in enumerate(pool.values(root))]
    three = str(root / "three.json")
    return [
        *((LEARNER_SPECS, i, v) for i, v in enumerate(LEARNER_SPECS.values(root))),
        *((LEARNER_CLASSES, i, v) for i, path in enumerate(LEARNER_CLASSES.values(root))
          for v in (f"erm:{path}", f"embed:{path}:1")),
        *((EMBED_ORDERS, i, f"embed:{three}:{v}")
          for i, v in enumerate(EMBED_ORDERS.values(root))),
    ]


def _command_line(head, options):
    argv = list(head)
    for name, value in options.items():
        if value is not None:
            argv += value if name.startswith("<") else _tokens(name, value)
    return argv


def test_every_pool_value_keeps_the_exit_code_contract(workdir):
    # the draws below favour the first members of a pool, so this sweep
    # passes each pool value once, in place of its option's base value
    used = set()
    for head, base in _bases(workdir):
        code, out, _ = _run(_command_line(head, base))
        assert code in (0, 1) and json.loads(out), head  # 1: verified negative
        for option in base:
            for pool, index, value in _substitutes(option, workdir):
                _check_contract(_command_line(head, {**base, option: value}))
                used.add((id(pool), index))
    pools = [p for p in globals().values() if isinstance(p, Pool)]
    assert used == {(id(p), i) for p in pools for i in range(len(p.good) + len(p.bad))}


# the malformed class files whose error lies inside hypotheses[0]
ENTRY_ERRORS = {"shortrow.json", "bigvalue.json", "nullvalue.json", "badsupport.json",
                "badkey.json", "negkey.json", "underkey.json", "zerokey.json",
                "strlabel.json", "zerolabel.json", "nosupport.json"}


def test_malformed_class_files_name_the_file_and_the_entry(workdir):
    for name in CLASS_FILES:
        if name in GOOD_CLASSES:
            continue
        path = str(workdir / name)
        code, out, err = _run(["dim", "--class", path, "--kind", "natarajan"])
        assert code == 2 and err.startswith(f"error: {path}: "), (name, err)
        assert ("hypotheses[0]" in err) == (name in ENTRY_ERRORS), (name, err)


def _recording_namespace(reads: set):
    """An argparse namespace that adds the name of every attribute read
    from it to ``reads``."""
    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    return Recording()


# read by dispatch rather than by a handler: the subcommand words, the
# handler itself, --timing
DISPATCH_FIELDS = {"command", "action", "handler", "timing"}


def test_every_parsed_option_is_read(workdir):
    # an option that the parser takes and the handler never reads changes
    # nothing, so every field of each parsed base command line must be read
    unread = []
    for head, base in _bases(workdir):
        reads = set()
        argv = _command_line(head, base)
        args = cli.build_parser().parse_args(argv, namespace=_recording_namespace(reads))
        fields = set(vars(args)) - DISPATCH_FIELDS
        reads.clear()  # drop the parser's own reads
        with contextlib.redirect_stdout(io.StringIO()):
            args.handler(args)
        if fields - reads:
            unread.append((argv[:2], sorted(fields - reads)))
    assert not unread


def test_generated_argv_keeps_the_exit_code_contract(workdir):
    three, unknown_param = str(workdir / "three.json"), str(workdir / "unknownparam.json")

    # the draws rarely reach the last values of a pool, so the malformed
    # values that once escaped (or were taken silently) also run as examples
    @settings(derandomize=True, database=None, max_examples=600, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_argv(workdir))
    @example(["embed", "behaviors", "--class", three, "--witness", "natarajan:\u00b2",
              "--points", "0,1"])
    @example(["nfl", "--learner", "const:0", "--points", "0,1", "--g1=-1,0", "--g2", "1,1"])
    @example(["witness", "from-learner", "--learner", "const:0", "--m", "1", "--labels", "0",
              "--check-class", three])
    @example(["gallery", "emit", "gap", "--params", '{"m":2,"q":3}'])
    @example(["dim", "--class", unknown_param, "--kind", "natarajan"])
    def check(argv):
        # the code of this body seeds the derandomized draws, so it spells
        # out _check_contract rather than calling it and changing the draws
        code, out, err = _run(argv)
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err, (argv, err)
        if code == 1:
            report = json.loads(out)
            assert isinstance(report, dict) and isinstance(report.get("result"), dict), argv
        if code == 2:
            assert out == "" and err, (argv, out, err)

    check()
