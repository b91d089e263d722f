"""Per-layer spans recorded from outside the program.

`install` replaces every module attribute that binds a layer function (and
`Witness.evaluate` / `Learner.__call__` on their classes) with a wrapper, so
calls between dimkit's own modules are caught as well as calls from the
CLI.  A wrapper records a span only while an operation is active and only
for the outermost call of a function (recursive `jsonable` calls are one
span).  Spans stay in memory; `layer_metrics` reduces them at the end.  A
span's self time is its duration minus the durations of its direct
children, which nest inside it because everything runs on one thread.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

# metric group -> (span names summed into its self time)
SELF_GROUPS = {
    "cli.load": ("cli.class_from_file", "cli.parse_psi_file"),
    "cli.serialize": ("cli.jsonable", "cli.canonical_json", "cli.digest"),
    "gallery.build": ("gallery.build",),
    "core.restrict": ("core.restrict",),
    "core.empirical_risk": ("core.empirical_risk",),
    "dimensions.is_n_shattered": ("dimensions.is_n_shattered",),
    "dimensions.is_g_shattered": ("dimensions.is_g_shattered",),
    "dimensions.is_ds_shattered": ("dimensions.is_ds_shattered",),
    "dimensions.is_psi_shattered": ("dimensions.is_psi_shattered",),
    "witnesses.evaluate": ("witnesses.evaluate",),
    "witnesses.validate_witness": ("witnesses.validate_witness",),
    "embedding.good_patterns": ("embedding.good_patterns",),
    "embedding.erm_augmented": ("embedding.erm_augmented",),
    "nfl.nfl_adversary": ("nfl.nfl_adversary",),
    "nfl.exact_expected_risk": ("nfl.exact_expected_risk",),
    "psi.refute_ds_expressibility": ("psi.refute_ds_expressibility",),
}


class Tracer:
    """Spans live in flat arrays (name id, start, end, parent index or -1,
    op id): hundreds of thousands of small lists would make every cyclic
    garbage collection walk them and slow the traced program down."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op_id = array("q")
        self.stack = []
        self.active = Counter()
        self.counts = Counter()
        self.op = None

    def __len__(self):
        return len(self.start)

    def spans(self):
        """(op id, name, start, end, parent index) per span."""
        for i in range(len(self)):
            yield (self.op_id[i], self.names[self.name_id[i]], self.start[i],
                   self.end[i], self.parent[i])

    # -- recording ------------------------------------------------------
    def begin_op(self, op_id):
        self.op = op_id
        self.stack = [self._open("op", -1)]

    def end_op(self):
        self._close(self.stack.pop())
        self.op = None

    def _open(self, name, parent):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        self.name_id.append(nid)
        self.parent.append(parent)
        self.op_id.append(self.op)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return len(self.start) - 1

    def _close(self, idx):
        self.end[idx] = time.perf_counter()

    def span(self, name, fn, on_call=None, on_result=None, recursive_in=None):
        """Wrapper recording a span per outermost call.  For a function that
        recurses through its module global, ``recursive_in`` names that
        module: the global points at the bare function during the call, so
        the inner calls cost nothing extra."""
        calls = name + ".calls"
        self.active[name] = 0

        def wrapper(*args, **kwargs):
            if self.op is None or self.active[name]:
                return fn(*args, **kwargs)
            self.counts[calls] += 1
            if on_call is not None:
                on_call(self.counts, args)
            idx = self._open(name, self.stack[-1])
            self.stack.append(idx)
            self.active[name] += 1
            if recursive_in is not None:
                setattr(recursive_in, fn.__name__, fn)
            try:
                result = fn(*args, **kwargs)
            finally:
                if recursive_in is not None:
                    setattr(recursive_in, fn.__name__, wrapper)
                self.active[name] -= 1
                self.stack.pop()
                self._close(idx)
            if on_result is not None:
                on_result(self.counts, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn):
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            if self.op is not None:
                self.counts[calls] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- reduction ------------------------------------------------------
    def self_times(self) -> Counter:
        child = [0.0] * len(self)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[i] - self.start[i]
        out = Counter()
        for i, nid in enumerate(self.name_id):
            out[self.names[nid]] += (self.end[i] - self.start[i]) - child[i]
        return out


def _shatter_result(counts, cert):
    counts["dimensions.subsets_tried"] += 1
    if cert is not None:
        counts["dimensions.subsets_shattered"] += 1


def _good_window_call(counts, args):
    spec, window = args[0], args[1]
    if ("window", window) in spec._cache:
        counts["embedding.good_window.hits"] += 1


def install(tracer: Tracer) -> list:
    """Wrap the layer functions wherever a dimkit module binds them.
    Returns the patches as (owner, attribute, original, wrapper), for
    `switch`."""
    from dimkit import cli, core, dimensions, embedding, gallery, nfl, psi, witnesses

    patches = []

    def add(modules, attr, wrapper):
        for mod in modules:
            patches.append((mod, attr, getattr(mod, attr), wrapper))
            setattr(mod, attr, wrapper)

    def spanned(name, modules, attr, **hooks):
        fn = getattr(modules[0], attr)
        add(modules, attr, tracer.span(name, fn, **hooks))

    def counted(name, modules, attr):
        add(modules, attr, tracer.counter(name, getattr(modules[0], attr)))

    for attr in ("class_from_file", "parse_psi_file", "canonical_json", "digest"):
        spanned(f"cli.{attr}", [cli], attr)
    spanned("cli.jsonable", [cli], "jsonable", recursive_in=cli)
    spanned("gallery.build", [gallery], "build")
    spanned("core.restrict", [core, dimensions, witnesses, psi], "restrict",
            on_result=lambda c, r: c.update({"core.restrict.patterns_out": len(r)}))
    spanned("core.empirical_risk", [core, nfl, embedding], "empirical_risk")
    counted("core.mix_labelings", [core, witnesses, embedding, nfl], "mix_labelings")
    spanned("dimensions.exact_dimension", [dimensions, cli], "exact_dimension")
    for kind in ("vc", "n", "g", "ds", "psi"):
        spanned(f"dimensions.is_{kind}_shattered", [dimensions], f"is_{kind}_shattered",
                on_result=_shatter_result)
    spanned("witnesses.evaluate", [witnesses.Witness], "evaluate")
    spanned("witnesses.validate_witness", [witnesses], "validate_witness",
            on_result=lambda c, r: c.update({"witnesses.checked_inputs": r.checked_inputs,
                                             "witnesses.violations": len(r.violations)}))
    spanned("embedding.good_window", [embedding], "good_window",
            on_call=_good_window_call)
    spanned("embedding.good_patterns", [embedding], "good_patterns",
            on_result=lambda c, r: c.update({"embedding.patterns_out": len(r)}))
    spanned("embedding.erm_augmented", [embedding], "erm_augmented")
    spanned("nfl.nfl_adversary", [nfl], "nfl_adversary",
            on_result=lambda c, r: c.update({"nfl.mixtures_examined": r.mixtures_examined}))
    spanned("nfl.exact_expected_risk", [nfl], "exact_expected_risk")
    counted("nfl.learner", [nfl.Learner], "__call__")
    spanned("psi.refute_ds_expressibility", [psi], "refute_ds_expressibility",
            on_result=lambda c, r: c.update({"psi.pairs_examined": r.pairs_examined,
                                             "psi.shattering_pairs": len(r.entries)}))
    counted("psi.apply_encoders", [psi, witnesses], "apply_encoders")
    return patches


def switch(patches: list, on: bool) -> None:
    """Bind the wrappers (on) or the original functions (off)."""
    for owner, attr, original, wrapper in patches:
        setattr(owner, attr, wrapper if on else original)


# (metric, unit): the per-layer metrics a traced run reports, in order.
LAYER_METRICS = (
    ("cli.load.self_s", "s"),
    ("cli.serialize.self_s", "s"),
    ("cli.report_bytes", "bytes"),
    ("cli.report_drift", "count"),
    ("gallery.build.self_s", "s"),
    ("core.restrict.calls", "count"),
    ("core.restrict.self_s", "s"),
    ("core.restrict.patterns_out", "count"),
    ("core.mix_labelings.calls", "count"),
    ("core.empirical_risk.calls", "count"),
    ("core.empirical_risk.self_s", "s"),
    ("dimensions.subsets_tried", "count"),
    ("dimensions.subsets_shattered", "count"),
    ("dimensions.shatter_hit_ratio", "ratio"),
    ("dimensions.is_ds_shattered.self_s", "s"),
    ("dimensions.is_n_shattered.self_s", "s"),
    ("dimensions.is_g_shattered.self_s", "s"),
    ("dimensions.is_psi_shattered.self_s", "s"),
    ("witnesses.evaluate.calls", "count"),
    ("witnesses.evaluate.self_s", "s"),
    ("witnesses.validate_witness.self_s", "s"),
    ("witnesses.checked_inputs", "count"),
    ("witnesses.violations", "count"),
    ("embedding.good_patterns.calls", "count"),
    ("embedding.good_patterns.self_s", "s"),
    ("embedding.good_window.hit_ratio", "ratio"),
    ("embedding.erm_augmented.self_s", "s"),
    ("embedding.patterns_out", "count"),
    ("nfl.nfl_adversary.calls", "count"),
    ("nfl.nfl_adversary.self_s", "s"),
    ("nfl.exact_expected_risk.self_s", "s"),
    ("nfl.learner_calls", "count"),
    ("nfl.mixtures_examined", "count"),
    ("psi.refute_ds_expressibility.self_s", "s"),
    ("psi.pairs_examined", "count"),
    ("psi.shattering_pairs", "count"),
    ("psi.apply_encoders.calls", "count"),
    ("trace.overhead_pct", "%"),
)


def layer_metrics(tracer: Tracer, report_bytes: int, drift: int,
                  overhead_pct: float) -> dict:
    counts = tracer.counts
    selfs = tracer.self_times()
    values = {
        "cli.report_bytes": report_bytes,
        "cli.report_drift": drift,
        "trace.overhead_pct": overhead_pct,
        "nfl.learner_calls": counts["nfl.learner.calls"],
    }
    for group, names in SELF_GROUPS.items():
        values[f"{group}.self_s"] = sum(selfs[n] for n in names)
    tried = counts["dimensions.subsets_tried"]
    values["dimensions.shatter_hit_ratio"] = (
        counts["dimensions.subsets_shattered"] / tried if tried else 0.0)
    windows = counts["embedding.good_window.calls"]
    values["embedding.good_window.hit_ratio"] = (
        counts["embedding.good_window.hits"] / windows if windows else 0.0)
    out = {}
    for name, unit in LAYER_METRICS:
        out[name] = {"value": values[name] if name in values else counts[name],
                     "unit": unit}
    return out
