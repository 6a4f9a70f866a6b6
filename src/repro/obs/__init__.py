"""Unified telemetry layer: metrics registry, overlap profiler, exports.

Attach a :class:`MetricsRegistry` to an environment (``env.obs``) and the
simulator's components — GEMM, Tracker, trigger controller, DMA engines,
links, HBM channels, memory controllers, fault injector — publish
counters, gauges and spans into per-``(gpu, component)`` scopes.  The
registry is strictly passive: recording never schedules events, so
simulation results are bit-identical with it attached or absent.

On top of the raw metrics, :mod:`repro.obs.profiler` computes the paper's
overlap decomposition (compute / hidden-communication /
exposed-communication time and per-ring-stage critical-path attribution)
and :mod:`repro.obs.perfetto` exports counter tracks alongside the event
trace.
"""

from repro.obs.registry import (
    Gauge,
    MetricsRegistry,
    Scope,
    ScopeKey,
    SpanList,
    TimeWeightedHistogram,
    ValueStats,
)

__all__ = [
    "Gauge",
    "MetricsRegistry",
    "Scope",
    "ScopeKey",
    "SpanList",
    "TimeWeightedHistogram",
    "ValueStats",
]
