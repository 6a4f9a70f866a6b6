"""The chaos campaign: ``results/chaos.txt`` is current.

Re-renders the fast campaign (240 scenarios, about 5 s) and compares its
body with the checked-in file, the same way
``test_results_full_sync.py`` compares its figures.  The campaign's
rung line (``survival rungs: run=240``), survival rates, MTTR and
retained speedups all live in that body, so any change to fault
injection, in-run recovery or the RUN -> FALLBACK -> DEAD outcome
shows up here.  Regenerate with ``python scripts/capture_results.py``
only for a deliberate behaviour change.
"""

import pathlib

from repro.experiments.runner import EXPERIMENTS

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"


def body(text: str) -> str:
    """Rendered output minus the ``[...]`` timing-stamp lines."""
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith("[")).strip()


def test_results_chaos_matches_live_render():
    live = EXPERIMENTS["chaos"](fast=True).render()
    assert body((RESULTS / "chaos.txt").read_text()) == body(live), (
        "results/chaos.txt differs from a live fast render")
