#!/usr/bin/env python
"""Smoke test for the calibrated surrogate (the `make smoke-surrogate`
target).

Three checks on a small synthetic grid, all against an isolated cache
directory so the run is hermetic:

1. **Triage budget** — the triaged sweep scores every case but
   simulates only a bounded subset (anchors + frontier + audit).
2. **Frontier agreement** — full-simulating the *entire* grid (cheap at
   this size; the triage's own simulations are cache hits), the
   predicted frontier must contain a near-best design (simulated
   speedup within 5% of the true grid maximum — the regret bound that
   is the point of a triage) and every frontier pick must beat the
   grid's median simulated speedup.
3. **Audit accuracy** — the audit slice's relative error stays under
   the accuracy thresholds (geomean <= 5%, and no single audit case
   worse than 75%).

Exit status 0 on success, 1 with a diagnostic on any violation.
"""

import pathlib
import statistics
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments import sublayer_sweep                 # noqa: E402
from repro.surrogate.grid import synthetic_cases             # noqa: E402

CONFIGS = ["Sequential", "T3", "T3-MCA"]
#: the audit accuracy thresholds.
AUDIT_GEOMEAN_MAX = 0.05
AUDIT_WORST_MAX = 0.75


def fail(message: str) -> int:
    print(f"FAIL: {message}")
    return 1


def main() -> int:
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="smoke-surrogate-") as tmp:
        sublayer_sweep.configure(cache_dir=tmp, disk_cache=True)
        cases = synthetic_cases(n=120, seed=0,
                                hidden=(1024, 2048, 4096),
                                seq_len=(512, 1024),
                                batch=(1, 4, 16), tp=(2, 8))
        result = sublayer_sweep.run_sweep(
            cases=cases, configs=CONFIGS, triage="surrogate",
            triage_options=dict(frontier=6, min_audit=6,
                                audit_fraction=0.0, seed=0))
        print(result.render(top=6))

        # Ground truth: simulate everything (triage picks are cache hits).
        full = sublayer_sweep.run_sweep(cases=cases, configs=CONFIGS)
    true_speedup = [suite.times["Sequential"]
                    / suite.times[result.frontier_config]
                    for suite in full]

    # 1. budget: everything scored, only a bounded subset simulated.
    if result.n_scored != len(cases):
        return fail(f"scored {result.n_scored} of {len(cases)} cases")
    if result.n_simulated >= len(cases):
        return fail("triage simulated the whole grid — no shortcut taken")

    # 2. frontier agreement: the predicted top-K (train anchors included
    # — a predicted winner is a predicted winner however it got
    # simulated) must contain a near-best design and only above-median
    # ones.  Exact rank agreement is NOT required: a speedup is a ratio
    # of two predictions, so mid-pack cases separated by less than the
    # audit error can legitimately swap places; what the triage promises
    # is bounded regret, not a total order.
    k = 6
    ranked = sorted(result.scored, key=lambda c: -c.predicted_speedup)
    predicted_top = {c.index for c in ranked[:k]}
    best = max(true_speedup)
    frontier_best = max(true_speedup[i] for i in predicted_top)
    if frontier_best < 0.95 * best:
        return fail(
            f"the frontier's best simulated speedup {frontier_best:.3f}x "
            f"misses the grid's true best {best:.3f}x by more than 5% — "
            "the surrogate lost the winner")
    median_speedup = statistics.median(true_speedup)
    frontier_floor = min(true_speedup[i] for i in predicted_top)
    if frontier_floor <= median_speedup:
        return fail(
            f"a predicted frontier case simulates at {frontier_floor:.3f}x, "
            f"not above the grid median {median_speedup:.3f}x")

    # 3. audit accuracy.
    geomean = result.audit_stats["geomean_rel"]
    worst = result.audit_stats["max_rel"]
    if result.audit_stats["n"] < 1:
        return fail("audit produced no records")
    if geomean > AUDIT_GEOMEAN_MAX:
        return fail(f"audit geomean relative error {geomean:.2%} exceeds "
                    f"{AUDIT_GEOMEAN_MAX:.0%}")
    if worst > AUDIT_WORST_MAX:
        return fail(f"worst audit relative error {worst:.2%} exceeds "
                    f"{AUDIT_WORST_MAX:.0%}")

    print(f"OK: {result.n_scored} scored, {result.n_simulated} simulated "
          f"({result.simulated_fraction:.1%}), frontier best "
          f"{frontier_best:.3f}x vs true best {best:.3f}x (floor "
          f"{frontier_floor:.3f}x > median {median_speedup:.3f}x), "
          f"audit geomean {geomean:.2%} "
          f"({time.perf_counter() - started:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
