"""One workload process: set up, then measure, or run the traced pass.

Started by run.py in a fresh interpreter, so interpreter start, `import
dimkit`, input generation, writing the input files and the warm-up all count
as set-up.  Prints one JSON object on its last stdout line.

  --mode setup    set up, report when the first op could start, exit
  --mode measure  set up, then run the deck's ops closed-loop (one client),
                  pass after pass, for --seconds and at least two whole
                  passes; report each op's wall and CPU time (see `measure`),
                  raw and in reference units, its report size, and the
                  failures
  --mode trace    set up, run each op of one pass untraced and traced, twice
                  each; report per-layer metrics
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


def _import_dimkit(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import dimkit
    from dimkit import cli

    if not os.path.realpath(dimkit.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"dimkit was imported from {dimkit.__file__}, not from {src}")
    return cli


def run_op(dispatch, op):
    """Run one op through the CLI in process.  Returns (wall s, cpu s,
    report text, exit code or None, traceback or None)."""
    out, err = io.StringIO(), io.StringIO()
    code, tb = None, None
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = dispatch(op.argv)
    except Exception:
        tb = traceback.format_exc()
    t1 = time.perf_counter()
    c1 = time.process_time()
    return t1 - t0, c1 - c0, out.getvalue(), code, tb


def reference(reps=3):
    """Time a fixed slice of the kind of work dimkit does (tuple building,
    set dedup, sorting, JSON encoding), about 1 ms.  Returns the fastest of
    ``reps`` repeats as (wall s, cpu s): one repeat that a neighbour
    preempts would skew every op normalized by it."""
    best_wall = best_cpu = float("inf")
    for _ in range(reps):
        c0 = time.process_time()
        t0 = time.perf_counter()
        rows = [tuple((i * 7919 + j * 104729) % 5 for j in range(6)) for i in range(600)]
        pats = sorted({r[1:4] for r in rows})
        json.dumps([list(p) for p in rows + pats])
        best_wall = min(best_wall, time.perf_counter() - t0)
        best_cpu = min(best_cpu, time.process_time() - c0)
    return best_wall, best_cpu


def failure(workloads, op, code, out, tb, ctx):
    """None if the op succeeded, else why it failed."""
    if tb is not None:
        return "traceback: " + tb.strip().splitlines()[-1]
    return workloads.run_check(op, code, out, ctx)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    cli = _import_dimkit(args.root)
    sys.path.insert(0, HERE)
    import workloads

    deck, shared = workloads.build(args.workload, args.seed)
    workloads.write_files(deck, shared, args.workdir)
    os.chdir(args.workdir)
    for op in deck.warmup:  # checked where it recurs in the deck
        run_op(cli.dispatch, op)
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return
    if args.mode == "measure":
        print(json.dumps(measure(cli, workloads, deck, args.seconds, ready)))
    else:
        spans = os.path.join(os.path.dirname(args.workdir),
                             f"spans-{args.workload}-{args.seed}.tsv")
        print(json.dumps(trace(cli, workloads, deck, ready, spans)))


def measure(cli, workloads, deck, seconds, ready):
    """Run the deck pass after pass for --seconds, and at least two whole
    passes.  An op's time is the faster of its runs in two consecutive passes, averaged
    over the complete pairs of passes: on a shared host the slower repeat
    measures the neighbours, and a fixed two samples per minimum keep the
    figure from falling as more passes fit in the time.  Every op counts
    once, so the mix does not depend on the host's speed either.

    The host's speed also drifts for minutes at a time, which no repeat
    inside one run can filter.  So each op is also expressed in reference
    units: its time divided by the mean of `reference()` timed just before
    and just after it, which slows down with the host.  One op's "after" is
    the next op's "before"."""
    ops = deck.ops()
    keys = ("wall", "cpu", "wall_ref", "cpu_ref")
    runs = {key: [[] for _ in ops] for key in keys}
    size = [0] * len(ops)
    refs = []
    failures = []
    start = time.perf_counter()
    ref_w0, ref_c0 = reference()
    i = 0
    while i < 2 * len(ops) or time.perf_counter() - start < seconds:
        k = i % len(ops)
        first, op = ops[k]
        if first:
            ctx = {}
        wall, cpu_s, out, code, tb = run_op(cli.dispatch, op)
        ref_w1, ref_c1 = reference()
        refs.append(ref_w1)
        sample = {"wall": wall, "cpu": cpu_s,
                  "wall_ref": 2 * wall / (ref_w0 + ref_w1),
                  "cpu_ref": 2 * cpu_s / (ref_c0 + ref_c1)}
        ref_w0, ref_c0 = ref_w1, ref_c1
        for key, value in sample.items():
            runs[key][k].append(value)
        size[k] = len(out.encode())
        why = failure(workloads, op, code, out, tb, ctx)
        if why is not None:
            failures.append(f"{op.key}: {why}")
        i += 1
    pairs = i // (2 * len(ops))
    best = {key: [sum(min(r[2 * p], r[2 * p + 1]) for p in range(pairs)) / pairs
                  for r in runs[key]] for key in keys}
    return {
        "ready": ready,
        "executed": i,
        "passes": i / len(ops),
        "elapsed_s": time.perf_counter() - start,
        "lat_s": best["wall"],
        "cpu_s": best["cpu"],
        "lat_ref": best["wall_ref"],
        "cpu_ref": best["cpu_ref"],
        "reference_ms": 1000 * sorted(refs)[len(refs) // 2],
        "bytes": size,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _load_digests():
    try:
        with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def trace(cli, workloads, deck, ready, spans_path):
    """Make one pass over the deck, running each op four times: untraced,
    traced, untraced, traced.  `tracer` records the first traced run and a
    second tracer, whose record is dropped, the other; so two traced runs
    of one seed count the same work.  The tracing overhead compares each
    op's faster traced run with its faster untraced run, in reference units
    (see `measure`), so neither host drift nor one slow run enters it."""
    import tracing

    ops = deck.ops()
    tracer, spare = tracing.Tracer(), tracing.Tracer()
    patches = tracing.install(tracer)
    tracing.switch(patches, False)
    spare_patches = tracing.install(spare)
    tracing.switch(spare_patches, False)
    runs = ((None, None), (patches, tracer), (None, None), (spare_patches, spare))
    digests = _load_digests().get(deck.workload, {})
    plain = traced = 0.0
    failures = []
    report_bytes = drift = 0
    ref0 = reference()[0]
    for n, (first, op) in enumerate(ops):
        if first:
            ctx = {}
        best = [float("inf"), float("inf")]   # untraced, traced
        for bound, recorder in runs:
            if bound is not None:
                tracing.switch(bound, True)
                recorder.begin_op(n)
            try:
                result = run_op(cli.dispatch, op)
            finally:
                if bound is not None:
                    recorder.end_op()
                    tracing.switch(bound, False)
            ref1 = reference()[0]
            slot = bound is not None
            best[slot] = min(best[slot], 2 * result[0] / (ref0 + ref1))
            ref0 = ref1
            if recorder is tracer:
                _, _, out, code, tb = result
        plain += best[0]
        traced += best[1]
        data = out.encode()
        report_bytes += len(data)
        want = digests.get(op.input_id)
        if want is not None and want != hashlib.sha256(data).hexdigest():
            drift += 1
        why = failure(workloads, op, code, out, tb, ctx)
        if why is not None:
            failures.append(f"{op.key}: {why}")
    overhead = 100.0 * (traced - plain) / plain
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.write("op\tname\tstart_s\tend_s\tparent\n")
        for op_id, name, start, end, parent in tracer.spans():
            fh.write(f"{op_id}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
    return {
        "ready": ready,
        "ops": len(ops),
        "failures": failures,
        "spans": len(tracer),
        "plain_ref": plain,
        "traced_ref": traced,
        "metrics": tracing.layer_metrics(tracer, report_bytes, drift, overhead),
    }


if __name__ == "__main__":
    main()
