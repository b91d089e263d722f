"""Every report of the benchmark's decks stays byte-identical.

perfbench/digests.json holds the sha256 of each report of the seed-1 decks.
This test runs every op of each deck in process, as a traced benchmark run
does, with the deck's input files in a temporary directory, and compares
each report's digest with the recorded one.  It reads perfbench/ and
changes nothing there."""

import hashlib
import json
import os
import sys

import pytest

from dimkit import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(PERFBENCH, "digests.json"), encoding="utf-8") as fh:
    DIGESTS = json.load(fh)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_1_reports_match_the_recorded_digests(name, tmp_path, monkeypatch):
    deck, shared = workloads.build(name, 1)
    workloads.write_files(deck, shared, str(tmp_path))
    monkeypatch.chdir(tmp_path)
    recorded = DIGESTS[name]
    drift = []
    for _, op in deck.ops():
        _, _, report, code, tb = worker.run_op(cli.dispatch, op)
        assert tb is None, (op.key, tb)
        if hashlib.sha256(report.encode()).hexdigest() != recorded[op.input_id]:
            drift.append(op.key)
    assert len(recorded) == len({op.input_id for _, op in deck.ops()})
    assert drift == []


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_2_reports_pass_the_benchmark_checks(name, tmp_path, monkeypatch):
    """Every seed-2 deck: each op's exit code and report pass the
    benchmark's own check, with one check context per round, as a measured
    run keeps it."""
    deck, shared = workloads.build(name, 2)
    workloads.write_files(deck, shared, str(tmp_path))
    monkeypatch.chdir(tmp_path)
    failures = []
    for first, op in deck.ops():
        if first:
            ctx = {}
        _, _, report, code, tb = worker.run_op(cli.dispatch, op)
        why = worker.failure(workloads, op, code, report, tb, ctx)
        if why is not None:
            failures.append(f"{op.key}: {why}")
    assert failures == []
