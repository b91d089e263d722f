"""Record the sha256 of every report in each workload's deck.

    python3 perfbench/record_digests.py

Writes perfbench/digests.json for the default seed (1), keyed by each op's
input id.  A traced run counts the ops whose report no longer matches as
cli.report_drift.  Re-record only when a report format change is intended.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import worker  # noqa: E402


def main():
    cli = worker._import_dimkit(ROOT)
    import workloads

    out = {}
    workdir = os.path.join(ROOT, ".bench_work", f"digests-{os.getpid()}")
    try:
        for name in workloads.WORKLOADS:
            deck, shared = workloads.build(name, 1)
            workloads.write_files(deck, shared, workdir)
            os.chdir(workdir)
            table = {}
            for r in deck.rounds:
                ctx = {}
                for op in r.ops:
                    _, _, report, code, tb = worker.run_op(cli.dispatch, op)
                    why = worker.failure(workloads, op, code, report, tb, ctx)
                    if why is not None:
                        raise SystemExit(f"{name} {op.key}: {why}")
                    table[op.input_id] = hashlib.sha256(report.encode()).hexdigest()
            out[name] = table
            os.chdir(ROOT)
            print(f"{name}: {len(table)} reports")
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(HERE, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
