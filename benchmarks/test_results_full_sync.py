"""Full-scale sweep figures: ``results_full/`` is current, ideal bounds.

EXPERIMENTS.md quotes its full-scale headline numbers from
``results_full/``.  This re-renders figures 15, 16 and 18 at paper scale
(one 16-case sweep, simulated once and shared through the sweep cache)
and compares their bodies with the checked-in files, then checks the
ideal bound on every full-scale row.  Regenerate with
``python scripts/capture_results.py --full`` only for a deliberate model
change.
"""

import pathlib

import pytest

from repro.experiments import sublayer_sweep
from repro.experiments.runner import EXPERIMENTS

RESULTS_FULL = pathlib.Path(__file__).resolve().parent.parent / "results_full"


def body(text: str) -> str:
    """Rendered output minus the ``[...]`` timing-stamp lines."""
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith("[")).strip()


@pytest.mark.parametrize("name", ["figure15", "figure16", "figure18"])
def test_results_full_match_live_render(name):
    live = EXPERIMENTS[name](fast=False).render()
    assert body((RESULTS_FULL / f"{name}.txt").read_text()) == body(live), (
        f"results_full/{name}.txt differs from a live full-scale render")


def test_ideal_rs_nmc_bounds_t3_at_full_scale():
    """T3 beats Sequential and stays within Ideal-RS+NMC (as does T3-MCA)
    on every full-scale row.  Ideal-GEMM-RS-Overlap is no bound: with the
    non-NMC reduce-scatter it trails T3 on several OP/IP rows."""
    for suite in sublayer_sweep.run_sweep(fast=False):
        times = suite.times
        assert times["T3"] < times["Sequential"], suite.label
        for name in ("T3", "T3-MCA"):
            assert times[name] >= times["Ideal-RS+NMC"], (suite.label, name)
