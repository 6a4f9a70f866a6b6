"""Measurement helpers: time series, counters, interval stats, geomean.

Every figure in the paper's evaluation is ultimately a reduction over the
quantities recorded here (DRAM reads/writes over time for Fig. 17, access
breakdowns for Fig. 18, kernel intervals for Figs. 15/16...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


class TimeSeries:
    """Append-only ``(time, value)`` samples with binned aggregation."""

    def __init__(self, name: str = ""):
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def record(self, time: float, value: float) -> None:
        if self.times and time < self.times[-1]:
            raise ValueError(
                f"time series {self.name!r} must be recorded in time order "
                f"({time} < {self.times[-1]})"
            )
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def total(self) -> float:
        return sum(self.values)

    def binned(self, bin_ns: float, start: Optional[float] = None,
               end: Optional[float] = None) -> Tuple[List[float], List[float]]:
        """Sum values into fixed-width time bins.

        Returns ``(bin_start_times, bin_sums)``.  Used to build the
        traffic-vs-time curves of Figure 17.
        """
        if bin_ns <= 0:
            raise ValueError("bin width must be positive")
        if not self.times:
            return [], []
        lo = self.times[0] if start is None else start
        hi = self.times[-1] if end is None else end
        if hi < lo:
            raise ValueError("end of binning window precedes its start")
        nbins = max(1, int(math.ceil((hi - lo) / bin_ns)) or 1)
        sums = [0.0] * nbins
        for t, v in zip(self.times, self.values):
            if t < lo or t > hi:
                continue
            idx = min(nbins - 1, int((t - lo) / bin_ns))
            sums[idx] += v
        starts = [lo + i * bin_ns for i in range(nbins)]
        return starts, sums


class Counter:
    """A named bag of monotonically-increasing counters."""

    def __init__(self):
        self._counts: Dict[str, float] = {}

    def add(self, key: str, amount: float = 1.0) -> None:
        self._counts[key] = self._counts.get(key, 0.0) + amount

    def get(self, key: str) -> float:
        return self._counts.get(key, 0.0)

    def as_dict(self) -> Dict[str, float]:
        return dict(self._counts)

    def total(self, prefix: str = "") -> float:
        return sum(v for k, v in self._counts.items() if k.startswith(prefix))


@dataclass
class IntervalStats:
    """Start/end bookkeeping for named phases (kernels, collective steps)."""

    intervals: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    _open: Dict[str, float] = field(default_factory=dict)

    def begin(self, name: str, time: float) -> None:
        if name in self._open:
            raise ValueError(f"interval {name!r} is already open")
        self._open[name] = time

    def end(self, name: str, time: float) -> None:
        if name not in self._open:
            raise ValueError(f"interval {name!r} was never opened")
        start = self._open.pop(name)
        if time < start:
            raise ValueError(f"interval {name!r} ends before it starts")
        self.intervals.setdefault(name, []).append((start, time))

    def duration(self, name: str) -> float:
        return sum(end - start for start, end in self.intervals.get(name, []))

    def span(self, name: str) -> Tuple[float, float]:
        """(first start, last end) across all occurrences of ``name``."""
        spans = self.intervals.get(name)
        if not spans:
            raise KeyError(name)
        return spans[0][0], spans[-1][1]


def geomean(values: Sequence[float]) -> float:
    """Geometric mean; the paper reports all aggregate speedups this way."""
    vals = list(values)
    if not vals:
        raise ValueError("geomean of empty sequence")
    if any(v <= 0 for v in vals):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))

