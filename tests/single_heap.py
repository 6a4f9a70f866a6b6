"""The single-heap reference event loop: the ordering oracle.

:class:`repro.sim.engine.Environment` splits its schedule into two
lanes — a ``(time, seq, event)`` heap for future events and a FIFO
now-queue for events landing at the current timestamp — and claims the
split fires events in exactly the order one heap keyed on
``(time, seq)`` would.  :class:`SingleHeapEnvironment` *is* that one
heap: every scheduled event, including the zero-delay appends that
``BaseEvent.succeed``, ``CallbackMachine._arm`` and
``ReusableTimer.arm`` inline against ``env._now_q``, is pushed with a
fresh sequence number and popped strictly in ``(time, seq)`` order.

Tests substitute it for the real core (directly, or by monkeypatching
the ``Environment`` name a module constructs) and require identical end
times, event counts and results.
"""

from heapq import heappop, heappush

from repro.sim.engine import Environment, SimulationError


class _HeapLane:
    """Stands in for the now-queue: appending pushes onto the single heap
    at the current time.  It never holds an event itself, so every reader
    of the now-queue sees it empty."""

    __slots__ = ("_env",)

    def __init__(self, env: "SingleHeapEnvironment"):
        self._env = env

    def append(self, event) -> None:
        self._env._push(self._env._now, event)

    def __bool__(self) -> bool:
        return False

    def __len__(self) -> int:
        return 0

    def __iter__(self):
        return iter(())


class SingleHeapEnvironment(Environment):
    """One ``(time, seq, event)`` heap; one event popped per step."""

    def __init__(self, initial_time: float = 0.0):
        super().__init__(initial_time)
        self._now_q = _HeapLane(self)

    def _push(self, when: float, event) -> None:
        self._seq += 1
        heappush(self._heap, (when, self._seq, event))

    def schedule(self, event, delay: float = 0.0) -> None:
        if delay < 0:
            raise SimulationError(
                f"cannot schedule an event {delay} ns in the past")
        self._push(self._now + delay, event)

    def peek(self) -> float:
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        if not self._heap:
            raise SimulationError("step() on an empty schedule")
        self._now, _seq, event = heappop(self._heap)
        self.events_fired += 1
        if self.max_events is not None and self.events_fired > self.max_events:
            raise SimulationError(
                f"watchdog: {self.events_fired} events fired (limit "
                f"{self.max_events})\n" + self.diagnostic_dump())
        if self.max_sim_ns is not None and self._now > self.max_sim_ns:
            raise SimulationError(
                f"watchdog: simulated time reached {self._now:.1f} ns\n"
                + self.diagnostic_dump())
        event._fire()

    def run(self, until=None) -> float:
        if until is not None and until < self._now:
            raise SimulationError("run(until=...) target is in the past")
        while self._heap:
            if until is not None and self._heap[0][0] > until:
                break
            self.step()
        if until is not None:
            self._now = until
        return self._now
