#!/usr/bin/env python3
"""Record the benchmark's reference data from the current simulator.

    python3 perfbench/record.py fixture   # fit surrogate_fixture.json
    python3 perfbench/record.py golden    # write golden.json

``fixture`` fits the pinned :class:`CalibratedSurrogate` the ``triage-10k``
workload scores with: the triage's own anchor simulations (smallest,
median and largest GEMM per (sub-layer, TP) bucket) over the seed-0
10k-case synthetic grid, in a fresh private cache.

``golden`` records the output digests every benchmark run checks against:
each paper-grid suite; each instrumented-faulty suite and its registry
snapshots, for every fault-plan variant; and each triage-10k variant's
triage digest (with the fixture above).  Re-record only for a deliberate
change of simulated results, and say so where the change is described.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import sys
import tempfile

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from repro.experiments import sublayer_sweep  # noqa: E402
from repro.surrogate.grid import synthetic_cases  # noqa: E402


def record_fixture(workdir: pathlib.Path) -> None:
    sublayer_sweep.configure(cache_dir=str(workdir / "fit-cache"), jobs=1)
    sublayer_sweep.clear_cache()
    result = sublayer_sweep.run_sweep(
        cases=synthetic_cases(n=workloads.TRIAGE_CASES, seed=0),
        triage="surrogate", jobs=1, progress=print,
        triage_options=dict(frontier=0, audit_fraction=0.0, min_audit=0,
                            seed=0))
    workloads.SURROGATE_FIXTURE.write_text(
        json.dumps(result.surrogate.to_dict(), indent=1, sort_keys=True)
        + "\n")
    print(f"wrote {workloads.SURROGATE_FIXTURE} "
          f"({result.surrogate.n_records} training records)")


def record_golden(workdir: pathlib.Path) -> None:
    empty = {"paper-grid": {}, "instrumented-faulty": {}, "triage-10k": {}}
    golden = {name: {} for name in empty}

    grid = workloads.PaperGrid(0, workdir, empty)
    grid.setup()
    golden["paper-grid"] = grid.run_pass(workloads.CaseTimer()).digests

    for variant in range(workloads.FAULT_VARIANTS):
        faulty = workloads.InstrumentedFaulty(variant, workdir, empty)
        faulty.setup()
        result = faulty.run_pass(workloads.CaseTimer(), traced=True)
        golden["instrumented-faulty"][str(variant)] = result.digests
        print(f"instrumented-faulty variant {variant}: "
              f"{result.stats['faults.injected']:.0f} faults injected")

    for variant in range(workloads.TRIAGE_VARIANTS):
        triage = workloads.Triage10k(variant, workdir, empty)
        triage.setup()
        triage.fill(workloads.Failures())
        result = triage.run_pass(workloads.CaseTimer())
        golden["triage-10k"][str(variant)] = {"fill": triage.fill_digest,
                                              **result.digests}
        print(f"triage-10k variant {variant}: audit geomean error "
              f"{result.stats['triage_audit_err']:.4f}")

    workloads.GOLDEN_PATH.write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.GOLDEN_PATH}")


def main(argv) -> int:
    actions = {"fixture": record_fixture, "golden": record_golden}
    if len(argv) != 1 or argv[0] not in actions:
        print(__doc__, file=sys.stderr)
        return 2
    workdir = pathlib.Path(tempfile.mkdtemp(prefix=".perfbench-record-",
                                            dir=ROOT))
    try:
        actions[argv[0]](workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
