"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/test_perfbench.py

* Two triages from the same pinned state (the surrogate fixture and a
  fresh private cache) give identical digests, equal to the recorded ones.
* Every count in the traced-run ledger repeats exactly across two traced
  runs.
* A run outside a checkout fails without printing a result.
"""

from __future__ import annotations

import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import ledger  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def workdir(tmp_path):
    yield tmp_path
    shutil.rmtree(tmp_path, ignore_errors=True)


def _triage_digests(seed: int, workdir: pathlib.Path):
    triage = workloads.Triage10k(seed, workdir, workloads.load_golden())
    triage.setup()
    failures = workloads.Failures()
    triage.fill(failures)
    result = triage.run_pass(workloads.CaseTimer())
    return triage.fill_digest, result.digests["pass"], failures.messages \
        + result.failures


def test_triage_repeats_from_pinned_state(workdir):
    first = _triage_digests(1, workdir / "a")
    second = _triage_digests(1, workdir / "b")
    assert first == second
    assert first[2] == [], first[2]


def _ledger_counts(workload) -> dict:
    """The counts of one traced run (an untraced pass, then a traced one)
    over the workload's first three cases."""
    workload.setup()
    workload.cases = workload.cases[:3]
    workload.run_pass(workloads.CaseTimer())
    with ledger.Ledger(workloads.clock) as traced:
        result = workload.run_pass(
            workloads.CaseTimer(profiler=traced.profiler), traced=True)
    assert result.failures == []
    metrics = {**traced.metrics(), **result.stats}
    return {name: value for name, value in metrics.items()
            if run.per_layer_unit(name) == "count"}


@pytest.mark.parametrize("name", ["paper-grid", "instrumented-faulty"])
def test_ledger_counts_repeat(name, workdir):
    def counts(tag):
        workload = workloads.WORKLOADS[name](2, workdir / tag,
                                             workloads.load_golden())
        return _ledger_counts(workload)

    first, second = counts("a"), counts("b")
    assert first["sim.events_fired"] > 0
    assert first == second


def test_run_needs_a_checkout(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
