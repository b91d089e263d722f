"""Repeat the benchmark over ten seeds and summarize it.

    python3 perfbench/baseline.py --out perfbench/baseline.json

For each workload, runs run.py once per seed (seeds 1..10, each for
BENCHMARK.json's `run_seconds`), then reports every end-to-end metric's
median, first and third quartile (`statistics.quantiles(values, n=4)`) and
spread = (q3 - q1) / median, and adds one traced run of seed 1 for the
per-layer table and the tracing overhead.  The machine record goes into the
same file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402

RUNS = 10


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def machine():
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "hardware_perf_counters": False,
        "cache_or_cpu_frequency_control": False,
        "shared_host": True,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the summary here as JSON")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    doc = {"machine": machine(), "runs": RUNS, "seconds": seconds, "workloads": {}}
    worst = 0.0
    for w in WORKLOADS:
        results = [run_once(w, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        entry = {"failed": sum(r["failed"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "end_to_end": {}}
        print(f"{w}: {entry['failed']} failed of {entry['attempted']} ops")
        for name in results[0]["metrics"]:
            s = summarize([r["metrics"][name]["value"] for r in results])
            s["unit"] = results[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = s
            share = s["spread"] / bounds[name]
            worst = max(worst, share)
            print(f"  {name:19s} median {s['median']:11.4f} {s['unit']:6s} "
                  f"q1 {s['q1']:11.4f} q3 {s['q3']:11.4f} spread {s['spread']:.4f} "
                  f"({share:.2f} of bound {bounds[name]})")
        traced = run_once(w, 1, seconds, 1)
        entry["traced_seed_1"] = traced["metrics"]
        print(f"  traced: overhead {traced['metrics']['trace.overhead_pct']['value']:.1f} %, "
              f"{traced['failed']} failed of {traced['attempted']}")
        doc["workloads"][w] = entry
    print(f"largest spread as a share of its bound: {worst:.2f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
