#!/usr/bin/env python
"""Regenerate every table/figure in one process and save rendered outputs.

Sub-layer sweep cases are shared through the in-process memo *and* the
persistent on-disk cache, so Figures 15, 16, 18 and 19 reuse one sweep
and a re-run of this script re-simulates nothing unless the simulator
sources changed.  Cache misses fan out over ``--jobs`` workers.  Outputs
land in results/<name>.txt and a combined results/all_results.txt.

Usage: python scripts/capture_results.py [--full] [--jobs N]
                                         [--cache-dir DIR] [--no-cache]
"""

import argparse
import pathlib
import time

from repro.experiments import sublayer_sweep
from repro.experiments.runner import (
    EXPERIMENTS,
    add_sweep_arguments,
    configure_sweep,
)

ORDER = [
    "table1", "table2", "table3", "figure4", "figure6", "figure14",
    "figure15", "figure16", "figure16-large", "figure17", "figure18",
    "figure19", "figure20", "fault-sweep", "scaleout", "chaos",
    "adaptive", "generation", "precision", "following-ops",
    "consumer-fusion", "in-switch", "dp-overlap",
]


def main() -> None:
    parser = argparse.ArgumentParser(
        description="capture every table/figure into results[_full]/")
    parser.add_argument("--full", action="store_true",
                        help="paper-scale shapes (slower)")
    add_sweep_arguments(parser)
    args = parser.parse_args()
    configure_sweep(args)

    fast = not args.full
    outdir = pathlib.Path.cwd() / ("results" if fast else "results_full")
    outdir.mkdir(exist_ok=True)
    combined = []
    for name in ORDER:
        started = time.perf_counter()
        before = sublayer_sweep.cache_stats().snapshot()
        result = EXPERIMENTS[name](fast=fast)
        sweep = sublayer_sweep.cache_stats().delta(before)
        text = result.render()
        elapsed = time.perf_counter() - started
        stamped = f"{text}\n[{name}: {elapsed:.1f}s, fast={fast}]\n"
        (outdir / f"{name}.txt").write_text(stamped)
        combined.append(stamped)
        note = f" (sweep cache: {sweep.render()})" \
            if sweep.hits or sweep.misses else ""
        print(f"done {name} in {elapsed:.1f}s{note}", flush=True)
    (outdir / "all_results.txt").write_text("\n".join(combined))


if __name__ == "__main__":
    main()
