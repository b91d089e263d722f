"""Self-test of the benchmark's input generator and result checks.

    python3 perfbench/selftest.py

Shows, for every workload, that one seed reproduces byte-identical input
files and argv, that a second seed gives different inputs, and that a
corrupted report, an unexpected exit code or a traceback each count as a
failed op while the genuine report passes.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import worker  # noqa: E402

# workload -> (index of the op to corrupt in round 0, report mutation)
CORRUPTIONS = {
    "dims": (2, lambda rep: rep["result"].update(dimension=rep["result"]["dimension"] + 1)),
    "witness": (0, lambda rep: rep["result"].update(
        checked_inputs=rep["result"]["checked_inputs"] + 1)),
    "learn": (1, lambda rep: rep["result"]["empirical_risk"].update(
        num=rep["result"]["empirical_risk"]["num"] + 1)),
    "refute": (0, lambda rep: rep["result"].update(pairs_examined=1)),
}


def _inputs(workloads, name, seed, workdir):
    deck, shared = workloads.build(name, seed)
    workloads.write_files(deck, shared, workdir)
    files = {}
    for fname in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, fname), "rb") as fh:
            files[fname] = fh.read()
    return deck, files, [op.argv for _, op in deck.ops()]


def _expect(cond, msg):
    if not cond:
        raise SystemExit(f"selftest FAILED: {msg}")
    print(f"ok  {msg}")


def main():
    cli = worker._import_dimkit(ROOT)
    import workloads

    base = os.path.join(ROOT, ".bench_work", f"selftest-{os.getpid()}")
    try:
        for name in workloads.WORKLOADS:
            here = os.path.join(base, name)
            deck, a_files, a_argv = _inputs(workloads, name, 1, os.path.join(here, "a"))
            _, b_files, b_argv = _inputs(workloads, name, 1, os.path.join(here, "b"))
            _, c_files, _ = _inputs(workloads, name, 2, os.path.join(here, "c"))
            _expect(a_files == b_files and a_argv == b_argv,
                    f"{name}: seed 1 twice gives byte-identical inputs "
                    f"({len(a_files)} files)")
            _expect(a_files != c_files, f"{name}: seed 2 gives different inputs")

            os.chdir(os.path.join(here, "a"))
            index, mutate = CORRUPTIONS[name]
            ctx = {}
            for op in deck.rounds[0].ops[:index]:
                _, _, out, code, tb = worker.run_op(cli.dispatch, op)
                _expect(worker.failure(workloads, op, code, out, tb, ctx) is None,
                        f"{name}: {op.key} passes its check")
            op = deck.rounds[0].ops[index]
            _, _, out, code, tb = worker.run_op(cli.dispatch, op)
            _expect(worker.failure(workloads, op, code, out, tb, dict(ctx)) is None,
                    f"{name}: {op.key} passes its check")
            rep = json.loads(out)
            mutate(rep)
            bad = json.dumps(rep)
            why = worker.failure(workloads, op, code, bad, None, dict(ctx))
            _expect(why is not None, f"{name}: corrupted report fails ({why})")
            why = worker.failure(workloads, op, code, out[: len(out) // 2], None, dict(ctx))
            _expect(why is not None, f"{name}: truncated report fails ({why})")
            why = worker.failure(workloads, op, 2, out, None, dict(ctx))
            _expect(why is not None, f"{name}: unexpected exit code fails ({why})")
            why = worker.failure(workloads, op, None, "", "Traceback\nValueError: x", ctx)
            _expect(why is not None, f"{name}: traceback fails ({why})")
            os.chdir(ROOT)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(base, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
