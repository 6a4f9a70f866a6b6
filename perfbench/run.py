#!/usr/bin/env python3
"""The repository benchmark: three workloads, one command.

Run from the repository root::

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each was chosen):

* ``paper-grid`` — the 16-case Figs. 15/16/18 grid, cold sweep cache;
* ``instrumented-faulty`` — 8 OP/FC-2 cases with a seeded fault plan,
  invariant checks, resilience, the adaptive policy, telemetry and traces;
* ``triage-10k`` — surrogate triage of the seeded 10k-case synthetic grid.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer ledger.  Every run
checks the simulator's outputs against the digests recorded in
``golden.json``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The run reads and writes only inside the checkout: sweep caches live in a
private directory under ``.perfbench_work/`` that is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import shutil
import signal
import statistics
import sys
import time
from typing import Dict, List, Sequence, Tuple

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

WORKLOAD_NAMES = ("paper-grid", "instrumented-faulty", "triage-10k")

#: set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3

#: the tail is the highest percentile with at least this many samples
#: beyond it.
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "cases_per_s": "1/s",
    "case_s_p50": "s",
    "case_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: per-layer metrics a pass reports from its own outputs and registries
#: (every workload reports all of them; 0 where the workload does not
#: exercise the layer).
PASS_STAT_UNITS = {
    "experiments.cache_hits": "count",
    "experiments.cache_misses": "count",
    "experiments.cache_stores": "count",
    "surrogate.simulated_frac": "frac",
    "trace.spans": "count",
    "faults.injected": "count",
    "resilience.recoveries": "count",
    "resilience.detections": "count",
    "policy.retunes": "count",
    "memory.dram_bytes.Sequential": "bytes",
    "memory.dram_bytes.T3": "bytes",
    "memory.dram_bytes.T3-MCA": "bytes",
    "memory.arbiter.comm_grants": "count",
    "memory.arbiter.comm_deferrals": "count",
    "memory.dram.occupancy_mean": "requests",
    "memory.mc.drain_stall_ns": "ns",
    "t3.tracker.trigger_latency_ns_p50": "ns",
    "gpu.dma.triggers": "count",
    "fig16_t3_err": "frac",
    "fig16_t3mca_err": "frac",
    "triage_audit_err": "frac",
}


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True,
                        help="input seed: case order, fault plan, grid and "
                             "audit selection")
    parser.add_argument("--seconds", type=float, required=True,
                        help="run length on the reference host; sizes the "
                             "number of whole passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer ledger instead")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the highest percentile
    with at least ``TAIL_BEYOND`` samples beyond it.  With fewer than
    ``2 * TAIL_BEYOND`` samples that percentile would lie at or below the
    median, so the slowest sample is reported instead."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return (ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n,
            TAIL_BEYOND)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(results, setup_s: float) -> Tuple[Dict[str, float], str]:
    samples = [s for result in results for s in result.case_s]
    if not samples:
        raise RuntimeError("no case completed")
    value, percentile, beyond = tail(samples)
    metrics = {
        "cases_per_s": sum(r.completed for r in results)
        / sum(r.timed_s for r in results),
        "case_s_p50": statistics.median(samples),
        "case_s_tail": value,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    note = (f"case_s_tail is p{percentile:.2f} of {len(samples)} samples "
            f"({beyond} beyond it)")
    return metrics, note


def traced_metrics(workload, clock) -> Tuple[list, Dict[str, float]]:
    """One untraced pass, then the same pass under the ledger."""
    from ledger import Ledger
    from workloads import CaseTimer

    untraced = workload.run_pass(CaseTimer())
    with Ledger(clock) as ledger:
        traced = workload.run_pass(CaseTimer(profiler=ledger.profiler),
                                   traced=True)
    metrics = ledger.metrics()
    shares = ledger.layer_shares(metrics)
    for name in PASS_STAT_UNITS:
        metrics[name] = traced.stats.get(name, 0.0)
    events = metrics["sim.events_fired"]
    metrics["sim.host_ns_per_event"] = \
        untraced.timed_s * 1e9 / events if events else 0.0
    metrics["trace_overhead_frac"] = traced.timed_s / untraced.timed_s - 1.0
    if untraced.stats != traced.stats:
        traced.failures.append("traced pass: simulated statistics differ "
                               "from the untraced pass")
        traced.failed = traced.attempted
    print("layer shares of profiled self time: " + ", ".join(
        f"{layer} {share:.1%}" for layer, share in
        sorted(shares.items(), key=lambda kv: -kv[1]) if share >= 0.001))
    return [untraced, traced], metrics


def per_layer_unit(name: str) -> str:
    if name in PASS_STAT_UNITS:
        return PASS_STAT_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name == "sim.host_ns_per_event":
        return "ns"
    if name == "trace_overhead_frac":
        return "frac"
    return "count"


def run(args: argparse.Namespace, workdir: pathlib.Path) -> int:
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads
    clock = workloads.clock
    import_s = clock() - started

    workload = workloads.WORKLOADS[args.workload](
        args.seed, workdir, workloads.load_golden())
    setup_times: List[float] = []
    for _ in range(SETUP_REPEATS):
        begin = clock()
        workload.setup()
        setup_times.append(clock() - begin)
    fill_failures = workloads.Failures()
    begin = clock()
    workload.fill(fill_failures)
    setup_s = import_s + statistics.median(setup_times) + (clock() - begin)

    if args.trace:
        results, metrics = traced_metrics(workload, clock)
        units = {name: per_layer_unit(name) for name in metrics}
        note = ""
    else:
        results = [workload.run_pass(workloads.CaseTimer())
                   for _ in range(workload.passes_for(args.seconds))]
        metrics, note = end_to_end(results, setup_s)
        units = END_TO_END_UNITS

    attempted = sum(result.attempted for result in results)
    failed = sum(result.failed for result in results)
    messages = fill_failures.messages + [
        message for result in results for message in result.failures]
    if fill_failures.cases:
        failed = attempted
    for message in messages:
        print(f"FAILED {message}")
    print(f"{args.workload} seed={args.seed}: {len(results)} pass(es), "
          f"{attempted} cases attempted, {failed} failed "
          f"(failed_frac {failed / attempted:.4f}); setup {setup_s:.3f}s "
          f"(import {import_s:.3f}s)")
    if note:
        print(note)
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def main(argv: Sequence[str] = ()) -> int:
    args = parse_args(argv or sys.argv[1:])
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so the work area is removed and
    # the cache-fill child is waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # Nothing may fall back to the user's sweep cache.
    os.environ["REPRO_T3_CACHE_DIR"] = str(workdir / "default-cache")
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it


if __name__ == "__main__":
    sys.exit(main())
