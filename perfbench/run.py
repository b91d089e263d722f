"""Seeded end-to-end benchmark for the dimkit CLI.

    python3 perfbench/run.py --workload dims --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ./src.  Each
workload runs in fresh interpreters: SETUPS processes set up, the middle one
then measures, and setup_s is the median of their set-up times.  The
measuring process runs the deck pass after pass; every op is counted once,
at the faster of its runs in two consecutive passes.  The last stdout line
is one JSON object with "correct", "attempted", "failed" and "metrics": the
end-to-end metrics with --trace 0, the per-layer metrics of the traced pass
with --trace 1.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Set-up processes per run.  Half set up before the measuring process and
# half after it, so the median spans the whole run: the host's speed moves
# within seconds, and set-up is timed in seconds, not reference units.
SETUPS = 9
WORKER_GRACE_S = 150


class WorkerError(RuntimeError):
    pass


def _worker(mode, args, workdir, timeout):
    """Start one worker interpreter; return (its JSON result, seconds from
    the spawn to the moment its first timed op could start)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--root", ROOT, "--workdir", workdir]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"{mode} worker exceeded {timeout:.0f} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited {proc.returncode}: {err.strip()[-2000:]}")
    result = json.loads(lines[-1])
    return result, result["ready"] - spawned


def _timing(lat, cpu):
    """(throughput, p50, p90, mean CPU) of per-op best times."""
    return (len(lat) / sum(lat), statistics.median(lat),
            statistics.quantiles(lat, n=10)[8], sum(cpu) / len(cpu))


def end_to_end(res, setups):
    """The metrics BENCHMARK.json gates: timings in reference units (see
    worker.measure), set-up in seconds, memory and report size."""
    thr, p50, p90, cpu = _timing(res["lat_ref"], res["cpu_ref"])
    return {
        "throughput_ops_kref": (1000 * thr, "1/kref"),
        "latency_p50_ref": (p50, "ref"),
        "latency_p90_ref": (p90, "ref"),
        "cpu_ref_per_op": (cpu, "ref"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "report_kb_per_op": (sum(res["bytes"]) / len(res["bytes"]) / 1024, "KB"),
    }


def wall_clock(res):
    """The same timings in wall-clock units, printed for reading only."""
    thr, p50, p90, cpu = _timing(res["lat_s"], res["cpu_s"])
    return {
        "throughput_ops_s": (thr, "1/s"),
        "latency_p50_ms": (1000 * p50, "ms"),
        "latency_p90_ms": (1000 * p90, "ms"),
        "cpu_ms_per_op": (1000 * cpu, "ms"),
        "reference_ms": (res["reference_ms"], "ms"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dimkit", "cli.py")):
        sys.stderr.write(f"error: no dimkit sources under {ROOT}/src; "
                         "run from the root of a dimkit checkout\n")
        return 2
    base = os.path.join(ROOT, ".bench_work")
    workdir = os.path.join(base, f"{args.workload}-{args.seed}-{os.getpid()}")
    timeout = args.seconds + WORKER_GRACE_S
    try:
        if args.trace:
            res, setup = _worker("trace", args, workdir, timeout)
            return report_trace(args, res, setup)
        setups = [_worker("setup", args, workdir, timeout)[1] for _ in range(SETUPS // 2)]
        res, setup = _worker("measure", args, workdir, timeout)
        setups.append(setup)
        setups += [_worker("setup", args, workdir, timeout)[1]
                   for _ in range(SETUPS - 1 - SETUPS // 2)]
        return report_run(args, res, setups)
    except WorkerError as err:
        sys.stderr.write(f"error: {err}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report_run(args, res, setups):
    metrics = end_to_end(res, setups)
    n, failed = len(res["lat_s"]), len(res["failures"])
    print(f"workload {args.workload}  seed {args.seed}  closed loop, 1 client: "
          f"{n} distinct ops, {res['executed']} executed in {res['elapsed_s']:.1f} s "
          f"({res['passes']:.2f} passes), each timed at the faster of two passes")
    for name, (value, unit) in list(metrics.items()) + list(wall_clock(res).items()):
        print(f"  {name:19s} {value:12.4f} {unit}")
    print(f"  {'error_rate':19s} {failed / res['executed']:12.4f} failed/attempted")
    for why in res["failures"][:10]:
        print(f"  FAILED {why}")
    print(json.dumps({
        "correct": failed == 0, "attempted": res["executed"], "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def report_trace(args, res, setup):
    n, failed = res["ops"], len(res["failures"])
    print(f"workload {args.workload}  seed {args.seed}  traced pass of {n} ops: "
          f"{res['plain_ref']:.1f} ref untraced, {res['traced_ref']:.1f} ref traced, "
          f"{res['spans']} spans, set-up {setup:.2f} s")
    for name, m in res["metrics"].items():
        value = m["value"]
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6f}"
        print(f"  {name:38s} {shown} {m['unit']}")
    for why in res["failures"][:10]:
        print(f"  FAILED {why}")
    print(json.dumps({"correct": failed == 0, "attempted": n, "failed": failed,
                      "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
