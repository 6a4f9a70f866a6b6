"""Post-hoc overlap decomposition: the live profiler's math on a trace.

:mod:`repro.obs.profiler` owns the compute / hidden / exposed, per-GEMM-
stage and per-plan-phase algorithms, over plain interval inputs.  This
module is only the adapter that pulls those inputs out of a
:class:`~repro.trace.query.TraceQuery`, so any saved Chrome JSON —
including one reloaded months after the run — yields the live numbers.

The equivalence is exact, not approximate: the simulator records every
relevant interval into both sinks at the same code site with the same
floats (kernel spans in ``gpu.py``, link serialization in
``primitives.py``, comm-stream DRAM service in ``dram.py``), the
exporter round-trips exact nanosecond endpoints through ``args``, and
both sides run the same algorithm.  ``tests/test_trace_query.py``
checks bit-for-bit equality between :func:`repro.obs.profiler.decompose`
on the live registry and :func:`decompose_query` on the saved file.

Category mapping (trace span -> profiler scope):

========  ==========================  =================================
quantity  registry source             trace source
========  ==========================  =================================
compute   ``compute`` scope "kernel"  category ``"kernel"``
comm      ``link`` scope spans        category ``"link"``
comm      ``dram`` "comm_service"     category ``"dram"``,
                                      ``args.stream == "comm"``
========  ==========================  =================================

Decomposition-grade traces therefore need
``TraceRecorder(record_dram=True)`` — without DRAM spans the comm set is
missing its memory-service leg and the numbers diverge from the live
profiler (``has_dram_spans`` lets callers detect this).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs import intervals as iv
from repro.obs.profiler import (OverlapBreakdown, PlanStageSpan,
                                StageAttribution, breakdown, plan_phases,
                                stage_windows)
from repro.trace.query import TraceQuery


def compute_intervals(query: TraceQuery) -> List[iv.Interval]:
    """Machine-level kernel-execution intervals (merged)."""
    return query.intervals(category="kernel")


def comm_intervals(query: TraceQuery) -> List[iv.Interval]:
    """Machine-level communication intervals: link serialization plus
    comm-stream DRAM service, mirroring ``obs.profiler.comm_spans``."""
    spans = [(s.start_ns, s.end_ns) for s in query.select(category="link")]
    spans.extend(
        (s.start_ns, s.end_ns)
        for s in query.select(
            category="dram",
            where=lambda s: (s.args or {}).get("stream") == "comm"))
    return iv.merge(spans)


def has_dram_spans(query: TraceQuery) -> bool:
    """True when the trace carries comm-stream DRAM service spans (was
    recorded with ``record_dram=True``) — required for decompositions
    that match the live profiler."""
    return any((s.args or {}).get("stream") == "comm"
               for s in query.select(category="dram"))


def decompose_query(query: TraceQuery,
                    total_ns: Optional[float] = None) -> OverlapBreakdown:
    """The live profiler's :func:`~repro.obs.profiler.decompose`, post-hoc.

    ``total_ns`` defaults to the trace horizon (last event end), which
    can differ from the live ``registry.end_time()`` when counter tracks
    extend past the last span; the four span-derived quantities are
    always identical to the live run's.
    """
    return breakdown(compute_intervals(query), comm_intervals(query),
                     query.horizon_ns if total_ns is None else total_ns)


def _stage_end_samples(query: TraceQuery) -> Iterator[Tuple[float, float]]:
    """``(time, stage)`` samples of every ``gpu<N>.gemm.stage_end``
    counter track."""
    for track, samples in query.counters.items():
        if track.endswith(".gemm.stage_end"):
            yield from samples


def attribute_stages_query(query: TraceQuery) -> List[StageAttribution]:
    """Split each GEMM-stage window into compute / hidden / exposed,
    post-hoc (``obs.profiler.attribute_stages`` on a trace)."""
    return stage_windows(compute_intervals(query), comm_intervals(query),
                         _stage_end_samples(query))


def attribute_plan_stages_query(query: TraceQuery,
                                stage_order: Optional[List[str]] = None,
                                ) -> List[PlanStageSpan]:
    """Per-collective-plan-phase overlap attribution, post-hoc.

    DMA spans carry the plan phase their route belongs to in
    ``args.stage`` (mirroring the ``stage.<name>`` obs spans the live
    ``attribute_plan_stages`` reads).
    """
    per_stage: Dict[str, List[iv.Interval]] = {}
    for span in query.select(category="dma"):
        stage = (span.args or {}).get("stage")
        if stage is not None:
            per_stage.setdefault(str(stage), []).append(
                (span.start_ns, span.end_ns))
    return plan_phases(per_stage, compute_intervals(query), stage_order)
