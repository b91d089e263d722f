"""Command-line interface, file formats, and canonical report serialization.

Reports are JSON documents with sorted keys, compact separators, and no
floating-point tokens: exact rationals serialize as {"den": d, "num": n}
integer pairs.  Identical inputs produce byte-identical reports; wall-clock
timing is therefore opt-in (--timing adds a runtime_ms field that is
excluded from the stability guarantee).

A report holds, by exact type, only None, bool, int and str; lists, tuples,
dicts with str keys and frozensets of ints; and Fraction, PsiFunction,
ShatterCertificate, Hypothesis, PairEntry and PairEntries (as the list of
its entries).  Anything else, subclasses included, raises SchemaError:
"floats are banned from reports" for a float, "cannot serialize ..."
otherwise.  `jsonable` is the one per-type conversion to plain JSON, and
`canonical_json` writes the text ``json.dumps`` gives for it, by hand only
for dicts, plain lists and PairEntries, as pieces joined once at the end.
The argument parser is built once per process, on first use.

Exit codes: 0 success, 1 verified-negative result (invalid witness, family
that fails to distinguish, refutation that does not go through), 2 usage or
schema errors, 3 a broken internal invariant (ConsistencyError, e.g. the
adversary's NflFailureError), so a crash never reads as a verified negative.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import itertools
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import c_make_encoder, encode_basestring
from operator import itemgetter
from typing import Optional

from . import embedding, gallery, nfl, psi, witnesses
from .core import (
    ConsistencyError,
    DomainError,
    Hypothesis,
    HypothesisClass,
    PreconditionError,
    RepresentationError,
    ShatteredError,
    _checked_rows,
)
from .dimensions import (
    KINDS,
    ShatterCertificate,
    _default_window,
    exact_dimension,
    sauer_natarajan_check,
)
from .psi import PairEntries, PairEntry, PsiFamily, PsiFunction


class SchemaError(ValueError):
    """A file violated its schema; message carries field diagnostics."""


def canonical_json(obj) -> str:
    """Exactly ``json.dumps(jsonable(obj), sort_keys=True, separators=(",",
    ":"), ensure_ascii=False, allow_nan=False)``.  A dict is written key by
    key in sorted order, a list or tuple nested only of plain values (a
    class file's rows) by the stdlib C encoder in one call, and PairEntries
    by image pair; anything else is converted by `jsonable` first.  The
    pieces go to one list, joined once, so no nested value's text is copied
    into its parent's."""
    out = []
    _write(obj, out)
    return "".join(out)


def _write(obj, out: list) -> None:
    """Append the pieces of ``canonical_json(obj)`` to ``out``."""
    kind = type(obj)
    if kind is dict:
        _only(_STR, obj, " as a dict key")
        out.append("{")
        sep = ""
        for k in sorted(obj):
            out.append(f"{sep}{encode_basestring(k)}:")
            _write(obj[k], out)
            sep = ","
        out.append("}")
    elif (kind is list or kind is tuple) and _all_plain(obj):
        out += _c_encoder(obj, 0)
    elif kind is PairEntries:
        _pair_entries(obj, out)
    else:
        out += _c_encoder(jsonable(obj), 0)


def jsonable(obj):
    """Convert a report value to plain JSON structures: the one per-type
    conversion, over the vocabulary of the module docstring."""
    kind = type(obj)
    if kind in _PLAIN:
        return obj
    if kind is list or kind is tuple:
        return [jsonable(v) for v in obj]
    if kind is dict:
        _only(_STR, obj, " as a dict key")
        return {k: jsonable(v) for k, v in obj.items()}
    if kind is frozenset:
        _only(_INT, obj, " in a frozenset")
        return sorted(obj)
    if kind is Fraction:
        return {"num": obj.numerator, "den": obj.denominator}
    if kind is PsiFunction:
        return list(map(_SYMBOLS.__getitem__, obj.table))
    if kind is ShatterCertificate:
        return {"kind": obj.kind, "points": list(obj.points),
                "payload": jsonable(obj.payload)}
    if kind is Hypothesis:
        if obj.table is not None:
            return {"table": list(obj.table)}
        return {"support": {str(x): y for x, y in obj.support}}
    if kind is PairEntry:
        return {"psi1": jsonable(obj.psi1), "psi2": jsonable(obj.psi2),
                "subclasses": jsonable(obj.subclasses)}
    if kind is PairEntries:
        return [jsonable(e) for e in obj]
    raise _rejected(obj)


_PLAIN = frozenset({bool, int, str, type(None)})
_STR = frozenset({str})
_INT = frozenset({int})


def _rejected(value, role: str = "") -> SchemaError:
    if type(value) is float:
        return SchemaError("floats are banned from reports")
    return SchemaError(f"cannot serialize {type(value).__name__}{role}")


def _only(types: frozenset, values, role: str) -> None:
    """Reject the first of ``values`` whose exact type is not in ``types``."""
    if not types.issuperset(map(type, values)):
        raise _rejected(next(v for v in values if type(v) not in types), role)


_SYMBOLS = "01*"  # an encoder's symbols as written, indexed by 0, 1 and STAR (2)


# The stdlib C encoder with json.dumps's canonical settings, for values
# that need no conversion; ``default`` raises json.dumps's TypeError.
_c_encoder = c_make_encoder(None, json.JSONEncoder().default, encode_basestring,
                            None, ":", ",", True, False, False)


def _raw(value) -> str:
    """json.dumps text of ``value`` as it is, with no conversion."""
    return "".join(_c_encoder(value, 0))


def _pair_entries(entries: PairEntries, out: list) -> None:
    # each table's text (its symbols need no escaping) and each image pair's
    # subclasses are written once, the subclasses in one C call each when all
    # are plain; tails[i] holds the text after the psi1 field of each entry
    # whose first table has image i, in table order (none for a row of None
    # only), so an entry is a psi1 head followed by one of these
    q = entries.num_labels
    tables = ['["' + '","'.join(t) + '"]' for t in itertools.product(_SYMBOLS, repeat=q)]
    cells = [found for row in entries.decided for found in row if found is not None]
    texts = iter(map(_raw if _all_plain(cells) else canonical_json, cells))
    second = [(f'"psi2":{text},"subclasses":', j)
              for text, j in zip(tables, psi._image_numbers(q, entries.labels2))]
    tails = []
    for row in entries.decided:
        if row.count(None) == len(row):
            tails.append(())
            continue
        subclasses = [None if found is None else next(texts) + "}" for found in row]
        tails.append([psi2 + subclasses[j] for psi2, j in second
                      if subclasses[j] is not None])
    out.append("[")
    sep = ""
    for text, i in zip(tables, psi._image_numbers(q, entries.labels1)):
        if tails[i]:
            head = f'{{"psi1":{text},'
            out += (sep, head, ("," + head).join(tails[i]))
            sep = ","
    out.append("]")


# the nesting below a list that _all_plain reads before it gives up
_PLAIN_DEPTH = 6
_SEQUENCES = frozenset({list, tuple})
_NESTED = _PLAIN | _SEQUENCES | {dict}


def _all_plain(values) -> bool:
    """Whether every one of ``values`` (a list or tuple), and everything
    inside it, is of a plain type, a list, a tuple, or a dict with str keys
    (by exact type), so that the C encoder writes ``values`` as
    ``canonical_json`` would.  Read level by level at C speed: the types of
    all values of a level, then the keys of its dicts, then the items of its
    lists, tuples and dicts as the next level.  Beyond ``_PLAIN_DEPTH``
    levels the answer is no, so a deep or cyclic value goes the general
    way."""
    for _ in range(_PLAIN_DEPTH):
        types = set(map(type, values))
        if types <= _PLAIN:
            return True
        if not types <= _NESTED:
            return False
        lists = values if types <= _SEQUENCES else [v for v in values if type(v) in _SEQUENCES]
        dicts = (values if types == {dict} else [v for v in values if type(v) is dict]
                 if dict in types else ())
        if not _STR.issuperset(map(type, itertools.chain.from_iterable(dicts))):
            return False
        values = [*itertools.chain.from_iterable(lists),
                  *itertools.chain.from_iterable(map(dict.values, dicts))]
    return False


def digest(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


# ----------------------------------------------------------------------
# File formats
# ----------------------------------------------------------------------

def class_to_file(cls: HypothesisClass) -> dict:
    if not cls.is_explicit:
        raise SchemaError("only explicit classes serialize to class files")
    if cls.domain_size is not None:
        return {
            "labels": cls.num_labels,
            "domain": cls.domain_size,
            "hypotheses": list(map(list, cls.rows)),
        }
    return {
        "labels": cls.num_labels,
        "domain": "nat",
        "hypotheses": [{"support": {str(x): y for x, y in row}} for row in cls.rows],
    }


def class_from_file(doc: dict):
    """Build (class, gallery entry or None) from a parsed class file.  The
    loader checks the file's shape (see ``_file_rows``) and hands the rows
    to the ``HypothesisClass`` constructor, which checks their labels and
    points; its error names the row."""
    if not isinstance(doc, dict):
        raise SchemaError("class file must be a JSON object")
    if "gallery" in doc:
        name = doc["gallery"]
        params = doc.get("params", {})
        if not isinstance(params, dict):
            raise SchemaError("field 'params': expected an object")
        try:
            entry = gallery.build(name, params)
        except PreconditionError as err:
            raise SchemaError(f"field 'gallery': {err}") from err
        return entry.cls, entry
    labels = doc.get("labels")
    if type(labels) is not int or labels < 1:
        raise SchemaError("field 'labels': expected a positive integer")
    domain = doc.get("domain")
    rows = doc.get("hypotheses")
    if not isinstance(rows, list) or not rows:
        raise SchemaError("field 'hypotheses': expected a nonempty array")
    if domain == "nat":
        domain = None
    elif type(domain) is not int or domain < 1:
        raise SchemaError("field 'domain': expected a positive integer or 'nat'")
    try:
        rows, error = _file_rows(rows, domain)
        if error is not None:
            # a well-formed row before the malformed one fails first on its entries
            _checked_rows(rows, labels, domain)
            raise error
        return HypothesisClass(num_labels=labels, domain_size=domain, rows=rows), None
    except RepresentationError as err:
        raise SchemaError(str(err)) from err


def _file_rows(rows: list, domain: Optional[int]) -> tuple[list, Optional[SchemaError]]:
    """The class rows of a file's hypotheses, up to the first malformed one,
    and that one's error (None if there is none).  A row over a finite
    domain is an array of length ``domain``; one over the naturals (domain
    None) is {"support": {key: label}}, taken as its (point, label) pairs.
    A key is a point in the one form ``class_to_file`` writes: no sign but a
    minus, no leading zero, no space, underscore or non-ASCII digit.  Every
    row is checked at once at C speed, and only when that fails one by one."""
    if domain is not None:
        if {list}.issuperset(map(type, rows)) and {domain}.issuperset(map(len, rows)):
            return rows, None
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != domain:
                return rows[:i], SchemaError(f"hypotheses[{i}]: expected a row of length {domain}")
        return rows, None
    try:
        if {dict}.issuperset(map(type, rows)):
            supports = list(map(itemgetter("support"), rows))
            if {dict}.issuperset(map(type, supports)):
                keys = list(itertools.chain.from_iterable(supports))
                points = list(map(int, keys))
                if list(map(str, points)) == keys:
                    pairs = iter(zip(points, itertools.chain.from_iterable(
                        map(dict.values, supports))))
                    return [tuple(itertools.islice(pairs, len(s))) for s in supports], None
    except (KeyError, ValueError):  # a row with no support, or a key int() does not read
        pass
    parsed = []
    for i, row in enumerate(rows):
        if not isinstance(row, dict) or "support" not in row:
            return parsed, SchemaError(f"hypotheses[{i}]: expected {{'support': ...}}")
        support = row["support"]
        if not isinstance(support, dict):
            return parsed, SchemaError(f"hypotheses[{i}].support: expected an object")
        key = next((key for key in support if not _canonical_point(key)), None)
        if key is not None:
            return parsed, SchemaError(
                f"hypotheses[{i}].support: key {key!r} is not a canonical decimal integer")
        parsed.append(tuple(zip(map(int, support), support.values())))
    return parsed, None


def _canonical_point(key: str) -> bool:
    try:
        return str(int(key)) == key
    except ValueError:  # not an integer, or too long for int()
        return False


def _read_json(path: str, build):
    """Parse the JSON file at ``path`` and build from it; every error names
    the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise SchemaError(f"{path}: {err.strerror}") from err
    except json.JSONDecodeError as err:
        raise SchemaError(f"{path}:{err.lineno}: invalid JSON ({err.msg})") from err
    except UnicodeDecodeError as err:
        raise SchemaError(f"{path}: not UTF-8 text ({err.reason})") from err
    except RecursionError:
        raise SchemaError(f"{path}: JSON nested too deeply") from None
    try:
        return build(doc)
    except (RepresentationError, SchemaError) as err:
        raise SchemaError(f"{path}: {err}") from err


def parse_class_file(path: str) -> HypothesisClass:
    return _load_class(path)[0]


def _load_class(path: str):
    return _read_json(path, class_from_file)


def family_from_file(doc: dict) -> PsiFamily:
    if not isinstance(doc, dict):
        raise SchemaError("family file must be a JSON object")
    labels = doc.get("labels")
    if type(labels) is not int or labels < 2:
        raise SchemaError("field 'labels': expected an integer >= 2")
    if "builtin" in doc:
        which = doc["builtin"]
        if which == "psi_N":
            return psi.natarajan_family(labels)
        if which == "psi_G":
            return psi.graph_family(labels)
        raise SchemaError(f"field 'builtin': unknown family {which!r}")
    return psi.family_from_rows(doc.get("family"), labels)


def parse_psi_file(path: str) -> PsiFamily:
    return _read_json(path, family_from_file)


def _psi_family(args, needed_by: Optional[str] = None) -> Optional[PsiFamily]:
    """The family in the --psi file, or None without one; ``needed_by``
    names the option that makes --psi required."""
    if args.psi:
        return parse_psi_file(args.psi)
    if needed_by is not None:
        raise SchemaError(f"{needed_by} requires --psi FILE")
    return None


def _parse_ints(text: str, field: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok != "")
    except ValueError as err:
        raise SchemaError(f"{field}: expected comma-separated integers") from err


def _parse_sample(text: str):
    pairs = []
    for tok in text.split(","):
        if not tok:
            continue
        try:
            x, y = tok.split(":")
            pairs.append((int(x), int(y)))
        except ValueError as err:
            raise SchemaError("--sample: expected 'point:label,point:label,...'") from err
    if not pairs:
        raise SchemaError("--sample: empty sample")
    return tuple(pairs)


def _integer(text: str, option: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise SchemaError(f"{option}: expected an integer, got {text!r}") from None


def _parse_learner(spec: str, *, num_labels: int, window: int):
    head, _, rest = spec.partition(":")
    option = f"--learner {spec!r}"
    if head == "const":
        return nfl.constant_learner(_integer(rest, option), num_labels, window)
    if head == "memorize":
        return nfl.memorizing_learner(_integer(rest, option), num_labels, window)
    if head == "erm":
        cls = parse_class_file(rest)
        return nfl.erm_learner(cls)
    if head == "embed":
        path, _, order = rest.rpartition(":")
        order = _integer(order, option)
        cls = parse_class_file(path)
        w = witnesses.canonical_witness(cls, "natarajan", order)
        spec_obj = embedding.GoodFunctionSpec(witness=w, num_labels=cls.num_labels)
        return embedding.agnostic_learner(spec_obj)
    raise SchemaError(
        f"--learner: unknown spec {spec!r} (try const:V, memorize:V, erm:FILE, embed:FILE:K)"
    )


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------

@dataclass
class Outcome:
    code: int
    result: dict
    certificates: list
    inputs: dict


def _cmd_dim(args) -> Outcome:
    cls, _ = _load_class(args.class_file)
    family = _psi_family(args, "--kind psi" if args.kind == "psi" else None)
    res = exact_dimension(cls, args.kind, psi=family, window=args.window)
    result = {"kind": args.kind, "dimension": res.value}
    if res.warning:
        result["warning"] = res.warning
    certs = [res.certificate] if res.certificate else []
    return Outcome(0, result, certs, {
        "class": class_to_file(cls), "kind": args.kind,
        "psi": family.members if family else None,
        "window": args.window,
    })


def _witness_for(args, cls, entry):
    if args.bundled:
        if (args.flavor, args.order, args.psi) != (None, None, None):
            raise SchemaError("--bundled runs the gallery's own witness: "
                              "drop --flavor, --order and --psi")
        if entry is None or entry.witness is None:
            raise SchemaError("--bundled requires a gallery class with a bundled witness")
        return entry.witness, None
    if args.flavor is None or args.order is None:
        raise SchemaError("need --flavor and --order (or --bundled)")
    family = _psi_family(args, "--flavor psi" if args.flavor == "psi" else None)
    w = witnesses.canonical_witness(cls, args.flavor, args.order, psi=family)
    return w, family


def _witness_meta(w) -> dict:
    return {"flavor": w.flavor, "order": w.order, "provenance": w.provenance}


def _validation_result(report) -> dict:
    shown = [
        {"points": list(v.points), "reason": v.reason, "detail": v.detail}
        for v in report.violations[:25]
    ]
    return {
        "checked_inputs": report.checked_inputs,
        "violation_count": len(report.violations),
        "violations": shown,
        "valid": report.valid,
    }


def _cmd_witness(args) -> Outcome:
    """witness make and witness check: the same witness, which only check
    validates, over its --window."""
    cls, entry = _load_class(args.class_file)
    w, family = _witness_for(args, cls, entry)
    result = {"witness": _witness_meta(w)}
    inputs = {"class": class_to_file(cls), "flavor": w.flavor, "order": w.order,
              "psi": family.members if family else None}
    if args.action == "make":
        return Outcome(0, result, [], inputs)
    window = _default_window(cls) if args.window is None else args.window
    report = witnesses.validate_witness(w, cls, window)
    result["window"] = inputs["window"] = window
    result.update(_validation_result(report))
    return Outcome(0 if report.valid else 1, result, [], inputs)


def _cmd_witness_from_learner(args) -> Outcome:
    check_cls = parse_class_file(args.check_class) if args.check_class else None
    window = args.window
    if window is None and check_cls is not None:
        window = _default_window(check_cls)
    if window is None:
        raise SchemaError("--window required without --check-class")
    if window < 0:
        raise PreconditionError("window must be a natural")
    num_labels = args.labels if args.labels is not None else (
        check_cls.num_labels if check_cls else None)
    if num_labels is None:
        raise SchemaError("--labels required without --check-class")
    if num_labels < 1:
        raise SchemaError("--labels: expected a positive integer")
    learner = _parse_learner(args.learner, num_labels=num_labels, window=window)
    w = witnesses.witness_from_learner(learner, args.m, h_check=check_cls)
    result = {"witness": _witness_meta(w), "learner": learner.name, "m": args.m}
    code = 0
    if check_cls is not None:
        report = witnesses.validate_witness(w, check_cls, window)
        result["window"] = window
        result.update(_validation_result(report))
        code = 0 if report.valid else 1
    inputs = {"learner": args.learner, "m": args.m, "window": window,
              "labels": num_labels,
              "check_class": class_to_file(check_cls) if check_cls else None}
    return Outcome(code, result, [], inputs)


def _cmd_nfl(args) -> Outcome:
    points = _parse_ints(args.points, "--points")
    g1 = _parse_ints(args.g1, "--g1")
    g2 = _parse_ints(args.g2, "--g2")
    num_labels = max((*g1, *g2, 0)) + 1
    window = max(points, default=0)
    learner = _parse_learner(args.learner, num_labels=num_labels, window=window)
    with _witness_order(f"--learner {args.learner}"):
        report = nfl.nfl_adversary(learner, points, g1, g2)
    result = {
        "learner": learner.name,
        "points": list(points),
        "f": list(report.f_values),
        "index_set": report.index_set,
        "expected_risk": report.expected_risk,
        "tail_probability": report.tail_probability,
        "mixtures_examined": report.mixtures_examined,
        "markov_flag": report.markov_flag,
    }
    inputs = {"learner": args.learner, "points": list(points),
              "g1": list(g1), "g2": list(g2)}
    return Outcome(0, result, [], inputs)


@contextlib.contextmanager
def _witness_order(option: str):
    """A canonical witness raises ShatteredError on an input the class
    shatters, i.e. when its order is below the class's dimension; report
    that against ``option`` as a usage error naming the input."""
    try:
        yield
    except ShatteredError as err:
        points, *payload = err.witness_input
        raise PreconditionError(
            f"{option}: the class shatters points {list(points)} on witness input "
            f"{canonical_json(payload)}, so no witness of that order exists"
        ) from None


def _embed_spec(args, cls):
    flavor, _, order = args.witness.partition(":")
    if flavor not in ("natarajan", "psi"):
        raise SchemaError("--witness: expected 'natarajan:K' or 'psi:K'")
    order = _integer(order, "--witness")
    family = _psi_family(args, "--witness psi:K" if flavor == "psi" else None)
    w = witnesses.canonical_witness(cls, flavor, order, psi=family)
    return embedding.GoodFunctionSpec(witness=w, num_labels=cls.num_labels), family


def _cmd_embed(args) -> Outcome:
    cls, _ = _load_class(args.class_file)
    spec, family = _embed_spec(args, cls)
    inputs = {"class": class_to_file(cls), "witness": args.witness,
              "psi": family.members if family else None,
              "mode": args.mode}
    if args.mode == "behaviors":
        points = _parse_ints(args.points, "--points")
        with _witness_order(f"--witness {args.witness}"):
            behaviors = embedding.good_patterns(spec, points)
        inputs["points"] = list(behaviors.points)
        result = {"points": list(behaviors.points),
                  "count": len(behaviors),
                  "patterns": [list(p) for p in behaviors.patterns]}
        return Outcome(0, result, [], inputs)
    sample = _parse_sample(args.sample)
    inputs["sample"] = [list(p) for p in sample]
    with _witness_order(f"--witness {args.witness}"):
        h, risk = embedding.erm_augmented(spec, sample)
    result = {"hypothesis": h, "empirical_risk": risk}
    return Outcome(0, result, [], inputs)


def _cmd_distinguisher(args) -> Outcome:
    family = parse_psi_file(args.psi)
    ok, pair = psi.is_distinguisher(family)
    result = {"distinguisher": ok}
    if pair is not None:
        result["failing_pair"] = list(pair)
    inputs = {"psi": family.members, "labels": family.num_labels}
    return Outcome(0 if ok else 1, result, [], inputs)


# the most shattering table pairs a refute-ds report lists
_ENTRY_BUDGET = 10 ** 6


def _cmd_refute_ds(args) -> Outcome:
    cls, _ = _load_class(args.class_file)
    report = psi.refute_ds_expressibility(cls)
    count = len(report.entries)
    if count > _ENTRY_BUDGET:
        raise PreconditionError(f"the report would list {count} shattering encoder "
                                f"pairs, above the budget of {_ENTRY_BUDGET}")
    result = {
        "verdict": report.verdict,
        "pairs_examined": report.pairs_examined,
        "shattering_pairs": count,
        "entries": report.entries,
    }
    inputs = {"class": class_to_file(cls)}
    return Outcome(0 if report.verdict == "refuted" else 1, result, [], inputs)


def _cmd_sauer(args) -> Outcome:
    cls, _ = _load_class(args.class_file)
    points = _parse_ints(args.points, "--points")
    rep = sauer_natarajan_check(cls, points, args.d)
    result = {"count": rep.count, "bound": rep.bound, "holds": rep.holds}
    inputs = {"class": class_to_file(cls), "points": list(points), "d": args.d}
    return Outcome(0, result, [], inputs)


def _cmd_gallery(args) -> Outcome | int:
    if args.action == "list":
        result = {"entries": list(gallery.GALLERY_NAMES)}
        return Outcome(0, result, [], {"action": "list"})
    try:
        params = json.loads(args.params) if args.params else {}
    except json.JSONDecodeError as err:
        raise SchemaError(f"--params: invalid JSON ({err.msg})") from err
    if not isinstance(params, dict):
        raise SchemaError("--params: expected a JSON object")
    entry = gallery.build(args.name, params)
    sys.stdout.write(canonical_json(class_to_file(entry.cls)) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimkit",
        description="Exact multiclass dimensions, witnesses, and learners.",
    )
    parser.add_argument("--timing", action="store_true",
                        help="add runtime_ms to the report (breaks byte-stability)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dim", help="exact dimension of a class")
    p.add_argument("--class", dest="class_file", required=True)
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--psi")
    p.add_argument("--window", type=int)
    p.set_defaults(handler=_cmd_dim)

    p = sub.add_parser("witness", help="witness construction and checking")
    wsub = p.add_subparsers(dest="action", required=True)
    for action in ("make", "check"):
        wp = wsub.add_parser(action)
        wp.add_argument("--class", dest="class_file", required=True)
        wp.add_argument("--flavor", choices=witnesses.FLAVORS)
        wp.add_argument("--order", type=int)
        wp.add_argument("--psi")
        if action == "check":
            wp.add_argument("--window", type=int)
        wp.add_argument("--bundled", action="store_true")
        wp.set_defaults(handler=_cmd_witness)
    wp = wsub.add_parser("from-learner")
    wp.add_argument("--learner", required=True)
    wp.add_argument("--m", type=int, required=True)
    wp.add_argument("--window", type=int)
    wp.add_argument("--labels", type=int)
    wp.add_argument("--check-class", dest="check_class")
    wp.set_defaults(handler=_cmd_witness_from_learner)

    p = sub.add_parser("nfl", help="no-free-lunch adversary")
    p.add_argument("--learner", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--g1", required=True)
    p.add_argument("--g2", required=True)
    p.set_defaults(handler=_cmd_nfl)

    p = sub.add_parser("embed", help="augmented class: behaviors, ERM")
    esub = p.add_subparsers(dest="mode", required=True)
    for mode, option in (("behaviors", "--points"), ("erm", "--sample")):
        ep = esub.add_parser(mode)
        ep.add_argument("--class", dest="class_file", required=True)
        ep.add_argument("--witness", required=True, help="FLAVOR:ORDER, e.g. natarajan:1")
        ep.add_argument("--psi")
        ep.add_argument(option, required=True)
    p.set_defaults(handler=_cmd_embed)

    p = sub.add_parser("distinguisher", help="does the family separate all label pairs")
    p.add_argument("--psi", required=True)
    p.set_defaults(handler=_cmd_distinguisher)

    p = sub.add_parser("refute-ds", help="exhaustive DS-expressibility refutation")
    p.add_argument("--class", dest="class_file", required=True)
    p.set_defaults(handler=_cmd_refute_ds)

    p = sub.add_parser("sauer", help="growth bound check")
    p.add_argument("--class", dest="class_file", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(handler=_cmd_sauer)

    p = sub.add_parser("gallery", help="canonical classes")
    gsub = p.add_subparsers(dest="action", required=True)
    gsub.add_parser("list")
    gp = gsub.add_parser("emit")
    gp.add_argument("name")
    gp.add_argument("--params", help="JSON object of constructor parameters")
    p.set_defaults(handler=_cmd_gallery)

    return parser


# One parser per process, built on first use: each parse fills a new
# namespace, so no value carries over from one call to the next.
_parser = functools.cache(build_parser)


def dispatch(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as err:
        return err.code if err.code else 0
    started = time.monotonic()
    try:
        outcome = args.handler(args)
    except (SchemaError, DomainError, PreconditionError, RepresentationError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    except ConsistencyError as err:
        sys.stderr.write(f"error: internal invariant failed: {err}\n")
        return 3
    if isinstance(outcome, int):
        return outcome
    report = {
        "command": args.command if args.command != "witness"
        else f"witness {args.action}",
        "inputs_digest": digest(outcome.inputs),
        "result": outcome.result,
        "certificates": outcome.certificates,
    }
    if args.timing:
        report["runtime_ms"] = int((time.monotonic() - started) * 1000)
    sys.stdout.write(canonical_json(report))
    sys.stdout.write("\n")
    return outcome.code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
