"""Trace intelligence: query and analyze saved simulation runs.

The package turns any saved Chrome/Perfetto trace (or a live
``TraceRecorder`` + ``MetricsRegistry`` pair) into an explorable
artifact:

* :class:`TraceQuery` — indexed, interval-algebra-backed span store
  (filters, joins, per-track summaries, critical-path extraction),
* :mod:`repro.trace.decomposition` — the live overlap profiler's
  compute/hidden/exposed math, post-hoc and bit-identical,
* :mod:`repro.trace.passes` — built-in analysis passes
  (``runner trace --list-passes``),
* :mod:`repro.trace.cli` — the ``runner trace`` subcommand.

See ``docs/tracing.md`` for the format contract and a tour; the saved
trace opens in the Perfetto UI, which is its timeline viewer.
"""

from repro.trace.decomposition import (attribute_plan_stages_query,
                                       attribute_stages_query,
                                       comm_intervals, compute_intervals,
                                       decompose_query, has_dram_spans)
from repro.trace.passes import PASSES, PassResult, run_passes
from repro.trace.query import (ChunkFlow, CriticalStep, TraceQuery,
                               TrackSummary, counter_view)

__all__ = [
    "TraceQuery", "TrackSummary", "ChunkFlow", "CriticalStep",
    "counter_view",
    "compute_intervals", "comm_intervals", "decompose_query",
    "has_dram_spans", "attribute_stages_query",
    "attribute_plan_stages_query",
    "PASSES", "PassResult", "run_passes",
]
