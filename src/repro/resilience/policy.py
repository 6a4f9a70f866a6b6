"""Resilience policy knobs, the in-run state machine and chaos rungs.

* :class:`RunState` — the *in-run* view of one fused collective: healthy
  until the first fault manifests, then degraded/recovering, ending
  recovered (every lost notification re-issued, every evicted region
  restored) or failed (budgets exhausted — the run must be abandoned).
  Every transition is counted in the ``obs`` ``resilience`` scope.
* :class:`LadderRung` — how a chaos scenario ended: ``RUN`` (the
  resilient fused run survived), ``FALLBACK`` (plan-driven Sequential on
  the same faulty machine) or ``DEAD`` (that failed too).

:class:`ResiliencePolicy` bundles every in-run tunable: deadline slack,
retry budgets and exponential backoff.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class RunState(enum.Enum):
    """In-run health of one fused collective."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"       # a fault manifested; recovery in progress
    RECOVERED = "recovered"     # every recovery action succeeded
    FAILED = "failed"           # budgets exhausted; abandon the run


class LadderRung(enum.Enum):
    """How a chaos scenario ended, in escalation order."""

    RUN = "run"                 # the resilient fused run survived
    FALLBACK = "fallback"       # plan-driven Sequential baseline
    DEAD = "dead"               # nothing left to try


#: legal state-machine transitions (anything else is a programming error).
_RUN_TRANSITIONS = {
    RunState.HEALTHY: {RunState.DEGRADED},
    RunState.DEGRADED: {RunState.RECOVERED, RunState.FAILED},
    RunState.RECOVERED: {RunState.DEGRADED},  # a later fault re-degrades
    RunState.FAILED: set(),
}


@dataclass(frozen=True)
class ResiliencePolicy:
    """Every resilience tunable, in one frozen bundle.

    Deadlines: a DMA completion is expected within ``deadline_slack`` x
    the link-model service estimate (with an absolute floor) of its
    trigger; an un-triggered completion past its deadline whose transfer
    *has* finished is a lost notification and is re-issued after
    ``reissue_latency_ns`` (the modelled ack round-trip).  A transfer
    still in flight gets its deadline extended by ``backoff`` per check,
    ``max_deadline_extensions`` times, before the watch gives up.
    """

    #: multiplier on the expected DMA service time before a deadline check.
    deadline_slack: float = 8.0
    #: absolute deadline floor (ns) — tiny transfers get sane deadlines.
    deadline_floor_ns: float = 2_000.0
    #: exponential deadline-extension factor per re-check.
    backoff: float = 2.0
    #: in-flight deadline extensions before a watch gives up.
    max_deadline_extensions: int = 4
    #: modelled ack round-trip for a re-issued completion notification.
    reissue_latency_ns: float = 500.0
    #: re-issue budget per DMA command (drop recovery).
    max_reissues_per_command: int = 2
    #: restore budget per Tracker region (eviction recovery).  Pressure
    #: faults deterministically re-evict the oldest region, which is the
    #: one just restored — so a region legitimately needs on the order of
    #: ``regions_programmed / evict_every`` restores.  The budget exists
    #: to bound livelock, not to cap honest recovery.
    max_restores_per_region: int = 64

    def __post_init__(self) -> None:
        if self.deadline_slack < 1.0:
            raise ValueError("deadline_slack must be >= 1.0")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1.0")
        if self.max_deadline_extensions < 0 or \
                self.max_reissues_per_command < 0 or \
                self.max_restores_per_region < 0:
            raise ValueError("budgets cannot be negative")


class CollectiveStateMachine:
    """In-run health state for one fused collective.

    Transitions are validated against ``_RUN_TRANSITIONS`` and mirrored
    into the ``obs`` ``resilience`` scope when a registry is bound.
    """

    def __init__(self, obs=None, now=lambda: 0.0):
        self.state = RunState.HEALTHY
        self.transitions: list = []
        self._obs = obs
        self._now = now

    def to(self, state: RunState) -> None:
        if state is self.state:
            return
        if state not in _RUN_TRANSITIONS[self.state]:
            raise ValueError(
                f"illegal resilience transition {self.state.value} -> "
                f"{state.value}")
        self.transitions.append((self._now(), self.state, state))
        self.state = state
        if self._obs is not None:
            self._obs.scope(-1, "resilience").count(
                f"state_{state.value}")

    @property
    def ever_degraded(self) -> bool:
        return bool(self.transitions)
