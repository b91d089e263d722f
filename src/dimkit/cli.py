"""Command-line interface, file formats, and canonical report serialization.

Reports are JSON documents with sorted keys, compact separators, and no
floating-point tokens: exact rationals serialize as {"den": d, "num": n}
integer pairs.  Identical inputs produce byte-identical reports; wall-clock
timing is therefore opt-in (--timing adds a runtime_ms field that is
excluded from the stability guarantee).

Exit codes: 0 success, 1 verified-negative result (invalid witness, family
that fails to distinguish, refutation that does not go through), 2 usage or
schema errors.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from . import embedding, gallery, nfl, psi, witnesses
from .core import (
    DomainError,
    Hypothesis,
    HypothesisClass,
    PreconditionError,
    RepresentationError,
    ShatteredError,
    class_from_supports,
    class_from_tables,
)
from .dimensions import (
    KINDS,
    ShatterCertificate,
    _default_window,
    exact_dimension,
    sauer_natarajan_check,
)
from .psi import STAR, PsiFamily, PsiFunction


class SchemaError(ValueError):
    """A file violated its schema; message carries field diagnostics."""


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False, allow_nan=False)


def jsonable(obj):
    """Convert report payloads to JSON-safe structures without floats."""
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator}
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        raise SchemaError("floats are banned from reports")
    if isinstance(obj, PsiFunction):
        return ["*" if v == STAR else str(v) for v in obj.table]
    if isinstance(obj, frozenset):
        return sorted(jsonable(v) for v in obj)
    if isinstance(obj, (list, tuple, set)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, ShatterCertificate):
        return {"kind": obj.kind, "points": list(obj.points),
                "payload": jsonable(obj.payload)}
    if isinstance(obj, Hypothesis):
        if obj.table is not None:
            return {"table": list(obj.table)}
        return {"support": {str(x): y for x, y in obj.support}}
    raise SchemaError(f"cannot serialize {type(obj).__name__}")


def digest(payload) -> str:
    return hashlib.sha256(canonical_json(jsonable(payload)).encode()).hexdigest()


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
            "hypotheses": [list(h.table) for h in cls.hypotheses],
        }
    return {
        "labels": cls.num_labels,
        "domain": "nat",
        "hypotheses": [
            {"support": {str(x): y for x, y in h.support}} for h in cls.hypotheses
        ],
    }


def class_from_file(doc: dict):
    """Build (class, gallery entry or None) from a parsed class file."""
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
    if not _is_int(labels) or labels < 1:
        raise SchemaError("field 'labels': expected a positive integer")
    domain = doc.get("domain")
    rows = doc.get("hypotheses")
    if not isinstance(rows, list) or not rows:
        raise SchemaError("field 'hypotheses': expected a nonempty array")
    if domain == "nat":
        supports = []
        for i, row in enumerate(rows):
            if not isinstance(row, dict) or "support" not in row:
                raise SchemaError(f"hypotheses[{i}]: expected {{'support': ...}}")
            sup = row["support"]
            if not isinstance(sup, dict):
                raise SchemaError(f"hypotheses[{i}].support: expected an object")
            try:
                pairs = tuple((int(k), v) for k, v in sup.items())
            except ValueError as err:
                raise SchemaError(f"hypotheses[{i}].support: {err}") from err
            for x, y in pairs:
                if not _is_int(y) or not 1 <= y < labels:
                    raise SchemaError(
                        f"hypotheses[{i}].support[{x}]: label {y!r} outside 1..{labels - 1}"
                    )
            supports.append(pairs)
        _reject_duplicates([tuple(sorted(s)) for s in supports])
        cls = class_from_supports(supports, num_labels=labels)
        return cls, None
    if not _is_int(domain) or domain < 1:
        raise SchemaError("field 'domain': expected a positive integer or 'nat'")
    tables = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != domain:
            raise SchemaError(f"hypotheses[{i}]: expected a row of length {domain}")
        for j, v in enumerate(row):
            if not _is_int(v) or not 0 <= v < labels:
                raise SchemaError(
                    f"hypotheses[{i}][{j}]: label {v} outside 0..{labels - 1}"
                )
        tables.append(tuple(row))
    _reject_duplicates(tables)
    cls = class_from_tables(tables, num_labels=labels)
    return cls, None


def _reject_duplicates(keys):
    seen = {}
    dupes = []
    for i, k in enumerate(keys):
        if k in seen:
            dupes.append(i)
        else:
            seen[k] = i
    if dupes:
        raise SchemaError(f"duplicate hypotheses at indices {dupes}")


def _is_int(value) -> bool:
    """JSON integers only: ``true``/``false`` are not labels or sizes."""
    return isinstance(value, int) and not isinstance(value, bool)


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
    if not _is_int(labels) or labels < 2:
        raise SchemaError("field 'labels': expected an integer >= 2")
    if "builtin" in doc:
        which = doc["builtin"]
        if which == "psi_N":
            return psi.natarajan_family(labels)
        if which == "psi_G":
            return psi.graph_family(labels)
        raise SchemaError(f"field 'builtin': unknown family {which!r}")
    rows = doc.get("family")
    if not isinstance(rows, list) or not rows:
        raise SchemaError("field 'family': expected a nonempty array")
    members = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != labels:
            raise SchemaError(f"family[{i}]: expected a row of length {labels}")
        table = []
        for j, s in enumerate(row):
            if s == "*":
                table.append(STAR)
            elif s in ("0", "1", 0, 1) and not isinstance(s, bool):
                table.append(int(s))
            else:
                raise SchemaError(f"family[{i}][{j}]: expected '0', '1' or '*'")
        members.append(PsiFunction(table=tuple(table)))
    return PsiFamily(members=tuple(members), num_labels=labels)


def parse_psi_file(path: str) -> PsiFamily:
    return _read_json(path, family_from_file)


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


def _parse_learner(spec: str, *, num_labels: int, window: int):
    head, _, rest = spec.partition(":")

    def integer(text):
        try:
            return int(text)
        except ValueError:
            raise SchemaError(f"--learner {spec!r}: expected an integer, got {text!r}") from None

    if head == "const":
        return nfl.constant_learner(integer(rest), num_labels, window)
    if head == "memorize":
        return nfl.memorizing_learner(integer(rest), num_labels, window)
    if head == "erm":
        cls = parse_class_file(rest)
        return nfl.erm_learner(cls)
    if head == "embed":
        path, _, order = rest.rpartition(":")
        order = integer(order)
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
    family = parse_psi_file(args.psi) if args.psi else None
    if args.kind == "psi" and family is None:
        raise SchemaError("--kind psi requires --psi FILE")
    res = exact_dimension(cls, args.kind, psi=family, window=args.window)
    result = {"kind": args.kind, "dimension": res.value}
    if res.warning:
        result["warning"] = res.warning
    certs = [res.certificate] if res.certificate else []
    return Outcome(0, result, certs, {
        "class": class_to_file(cls), "kind": args.kind,
        "psi": jsonable(family.members) if family else None,
        "window": args.window,
    })


def _witness_for(args, cls, entry):
    family = parse_psi_file(args.psi) if getattr(args, "psi", None) else None
    if getattr(args, "bundled", False):
        if entry is None or entry.witness is None:
            raise SchemaError("--bundled requires a gallery class with a bundled witness")
        return entry.witness, family
    if args.flavor is None or args.order is None:
        raise SchemaError("need --flavor and --order (or --bundled)")
    if args.flavor == "psi" and family is None:
        raise SchemaError("--flavor psi requires --psi FILE")
    w = witnesses.canonical_witness(cls, args.flavor, args.order, psi=family)
    return w, family


def _witness_meta(w) -> dict:
    return {"flavor": w.flavor, "order": w.order, "provenance": w.provenance}


def _validation_result(report) -> dict:
    shown = [
        {"points": list(v.points), "reason": v.reason, "detail": jsonable(v.detail)}
        for v in report.violations[:25]
    ]
    return {
        "checked_inputs": report.checked_inputs,
        "violation_count": len(report.violations),
        "violations": shown,
        "valid": report.valid,
    }


def _cmd_witness_make(args) -> Outcome:
    cls, entry = _load_class(args.class_file)
    w, family = _witness_for(args, cls, entry)
    result = {"witness": _witness_meta(w)}
    inputs = {"class": class_to_file(cls), "flavor": w.flavor, "order": w.order,
              "psi": jsonable(family.members) if family else None}
    return Outcome(0, result, [], inputs)


def _cmd_witness_check(args) -> Outcome:
    cls, entry = _load_class(args.class_file)
    w, family = _witness_for(args, cls, entry)
    window = _default_window(cls) if args.window is None else args.window
    report = witnesses.validate_witness(w, cls, window)
    result = {"witness": _witness_meta(w), "window": window}
    result.update(_validation_result(report))
    inputs = {"class": class_to_file(cls), "flavor": w.flavor, "order": w.order,
              "window": window, "psi": jsonable(family.members) if family else None}
    return Outcome(0 if report.valid else 1, result, [], inputs)


def _cmd_witness_from_learner(args) -> Outcome:
    check_cls = parse_class_file(args.check_class) if args.check_class else None
    window = args.window
    if window is None and check_cls is not None:
        window = _default_window(check_cls)
    if window is None:
        raise SchemaError("--window required without --check-class")
    num_labels = args.labels or (check_cls.num_labels if check_cls else None)
    if num_labels is None:
        raise SchemaError("--labels required without --check-class")
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
        "index_set": jsonable(report.index_set),
        "expected_risk": jsonable(report.expected_risk),
        "tail_probability": jsonable(report.tail_probability),
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
            f"{canonical_json(jsonable(payload))}, so no witness of that order exists"
        ) from None


def _embed_spec(args, cls):
    flavor, _, order = args.witness.partition(":")
    if flavor not in ("natarajan", "psi") or not order.isdigit():
        raise SchemaError("--witness: expected 'natarajan:K' or 'psi:K'")
    family = parse_psi_file(args.psi) if getattr(args, "psi", None) else None
    if flavor == "psi" and family is None:
        raise SchemaError("--witness psi:K requires --psi FILE")
    w = witnesses.canonical_witness(cls, flavor, int(order), psi=family)
    return embedding.GoodFunctionSpec(witness=w, num_labels=cls.num_labels), family


def _cmd_embed(args) -> Outcome:
    cls, _ = _load_class(args.class_file)
    spec, family = _embed_spec(args, cls)
    inputs = {"class": class_to_file(cls), "witness": args.witness,
              "psi": jsonable(family.members) if family else None,
              "mode": args.mode}
    if args.mode == "behaviors":
        if not args.points:
            raise SchemaError("embed behaviors requires --points")
        points = _parse_ints(args.points, "--points")
        with _witness_order(f"--witness {args.witness}"):
            behaviors = embedding.good_patterns(spec, points)
        inputs["points"] = list(behaviors.points)
        result = {"points": list(behaviors.points),
                  "count": len(behaviors),
                  "patterns": [list(p) for p in behaviors.patterns]}
        return Outcome(0, result, [], inputs)
    if not args.sample:
        raise SchemaError("embed erm requires --sample")
    sample = _parse_sample(args.sample)
    inputs["sample"] = [list(p) for p in sample]
    with _witness_order(f"--witness {args.witness}"):
        h, risk = embedding.erm_augmented(spec, sample)
    result = {"hypothesis": jsonable(h), "empirical_risk": jsonable(risk)}
    return Outcome(0, result, [], inputs)


def _cmd_distinguisher(args) -> Outcome:
    family = parse_psi_file(args.psi)
    ok, pair = psi.is_distinguisher(family)
    result = {"distinguisher": ok}
    if pair is not None:
        result["failing_pair"] = list(pair)
    inputs = {"psi": jsonable(family.members), "labels": family.num_labels}
    return Outcome(0 if ok else 1, result, [], inputs)


def _cmd_refute_ds(args) -> Outcome:
    cls, _ = _load_class(args.class_file)
    report = psi.refute_ds_expressibility(cls)
    entries = [
        {"psi1": jsonable(e.psi1), "psi2": jsonable(e.psi2),
         "subclasses": [[list(p) for p in s] for s in e.subclasses]}
        for e in report.entries
    ]
    result = {
        "verdict": report.verdict,
        "pairs_examined": report.pairs_examined,
        "shattering_pairs": len(report.entries),
        "entries": entries,
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
    for action, handler in (("make", _cmd_witness_make), ("check", _cmd_witness_check)):
        wp = wsub.add_parser(action)
        wp.add_argument("--class", dest="class_file", required=True)
        wp.add_argument("--flavor", choices=witnesses.FLAVORS)
        wp.add_argument("--order", type=int)
        wp.add_argument("--psi")
        wp.add_argument("--window", type=int)
        wp.add_argument("--bundled", action="store_true")
        wp.set_defaults(handler=handler)
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
    p.add_argument("mode", choices=("behaviors", "erm"))
    p.add_argument("--class", dest="class_file", required=True)
    p.add_argument("--witness", required=True, help="FLAVOR:ORDER, e.g. natarajan:1")
    p.add_argument("--psi")
    p.add_argument("--points")
    p.add_argument("--sample")
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
    p.add_argument("action", choices=("list", "emit"))
    p.add_argument("name", nargs="?")
    p.add_argument("--params", help="JSON object of constructor parameters")
    p.set_defaults(handler=_cmd_gallery)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return err.code if err.code else 0
    started = time.monotonic()
    try:
        outcome = args.handler(args)
    except (SchemaError, DomainError, PreconditionError, RepresentationError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    if isinstance(outcome, int):
        return outcome
    report = {
        "command": args.command if args.command != "witness"
        else f"witness {args.action}",
        "inputs_digest": digest(outcome.inputs),
        "result": jsonable(outcome.result),
        "certificates": jsonable(outcome.certificates),
    }
    if args.timing:
        report["runtime_ms"] = int((time.monotonic() - started) * 1000)
    sys.stdout.write(canonical_json(report) + "\n")
    return outcome.code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
