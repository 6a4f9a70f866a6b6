"""Runtime resilience: in-run fault recovery and graceful degradation.

T3's tracking/triggering hardware already *observes* every update, so
the same seams that prove overlap can drive recovery:

* :mod:`repro.resilience.runtime` — the in-run loop: DMA completion
  deadlines with bounded backoff re-issue, Tracker eviction restore,
  and a drain backstop; dormant until the first fault manifests so
  fault-free runs stay byte-identical.
* :mod:`repro.resilience.policy` — every tunable, the in-run state
  machine and the rungs a chaos scenario can end on (run -> fallback).
"""

from repro.resilience.policy import (
    CollectiveStateMachine,
    LadderRung,
    ResiliencePolicy,
    RunState,
)
from repro.resilience.runtime import (
    RESILIENCE_SCOPE,
    RecoveryRecord,
    ResilienceRuntime,
)

__all__ = [
    "CollectiveStateMachine",
    "LadderRung",
    "RecoveryRecord",
    "ResiliencePolicy",
    "ResilienceRuntime",
    "RESILIENCE_SCOPE",
    "RunState",
]
