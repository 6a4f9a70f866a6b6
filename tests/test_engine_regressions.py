"""Regression tests for the event-loop bugs fixed in the hot-path
overhaul, plus property-based equivalence of the dual-lane event core
and the single-heap reference loop (``tests/single_heap.py``).

Each regression test failed against the pre-overhaul engine:

* ``interrupt()`` on a never-resumed process double-stepped it — the
  boot event resumed the generator normally *and* the interrupt threw
  into it;
* a waiter interrupted during ``Resource.acquire()`` leaked its unit
  (queued grants stayed in the wait queue; granted-but-uncollected
  grants swallowed the unit), permanently shrinking the resource;
* ``AnyOf`` losers and ``AllOf`` pending children kept the composite's
  dead callbacks subscribed after the composite triggered.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import (
    Environment,
    Event,
    Interrupt,
    Resource,
    Store,
)
from tests.single_heap import SingleHeapEnvironment


# ------------------------------------------------------- Process.interrupt

def test_interrupt_never_resumed_process_single_step():
    """Interrupting a process before its boot event fires must not run
    its body: the interrupt replaces the first resume, not joins it."""
    env = Environment()
    log = []

    def victim():
        log.append("ran")
        yield env.timeout(10)
        log.append("done")

    def driver():
        process = env.process(victim())
        process.interrupt("early")
        try:
            yield process
        except Interrupt as exc:
            log.append(("interrupted", exc.cause))

    env.process(driver())
    env.run()
    assert log == [("interrupted", "early")]


def test_interrupt_after_resume_still_works():
    env = Environment()
    log = []

    def victim():
        log.append("ran")
        try:
            yield env.timeout(100)
        except Interrupt as exc:
            log.append(("interrupted", exc.cause, env.now))

    def killer(process):
        yield env.timeout(5)
        process.interrupt("late")

    process = env.process(victim())
    env.process(killer(process))
    env.run()
    assert log == ["ran", ("interrupted", "late", 5)]


# ------------------------------------------------------- Resource.acquire

def test_interrupted_queued_acquire_does_not_leak_unit():
    """A waiter interrupted while queued must cancel its request: the
    unit freed later goes back to the pool, not to the dead waiter."""
    env = Environment()
    resource = Resource(env, capacity=1)
    log = []

    def holder():
        yield from resource.acquire(10)
        log.append(("holder released", env.now))

    def waiter():
        try:
            yield from resource.acquire(5)
        except Interrupt:
            log.append(("waiter interrupted", env.now))

    def killer(process):
        yield env.timeout(3)
        process.interrupt()

    env.process(holder())
    env.process(killer(env.process(waiter())))
    env.run()
    assert log == [("waiter interrupted", 3), ("holder released", 10)]
    assert resource.in_use == 0
    assert resource.available == 1
    assert resource.queue_length == 0


def test_straggler_plus_interrupt_does_not_leak_unit():
    """Fault-injection variant: the holder is a straggler (its hold is
    stretched by the injected compute factor, as the GEMM seam does) and
    the waiter times out and interrupts itself out of the queue.  The
    resource must come back whole once the straggler finishes."""
    from repro.faults import FaultInjector, FaultPlan

    env = Environment()
    env.faults = FaultInjector(
        FaultPlan.straggler(gpu_id=0, factor=4.0, seed=3))
    resource = Resource(env, capacity=1)
    log = []

    def straggler_holder():
        hold = 5 * env.faults.compute_factor(0, env.now)
        yield from resource.acquire(hold)
        log.append(("holder released", env.now))

    def impatient_waiter():
        try:
            yield from resource.acquire(1)
            log.append(("waiter held", env.now))
        except Interrupt:
            log.append(("waiter gave up", env.now))

    def watchdog(process):
        # Fires before the slowed holder releases (t=20), after the
        # un-faulted release time (t=5) — only the straggler makes the
        # waiter give up.
        yield env.timeout(10)
        if process.is_alive:
            process.interrupt("too slow")

    env.process(straggler_holder())
    waiter = env.process(impatient_waiter())
    env.process(watchdog(waiter))
    env.run()
    assert log == [("waiter gave up", 10), ("holder released", 20)]
    assert resource.available == 1
    assert resource.queue_length == 0


def test_abandoned_granted_request_returns_unit():
    env = Environment()
    resource = Resource(env, capacity=1)
    grant = resource.request()  # granted immediately
    assert resource.in_use == 1
    grant._abandon()  # waiter died before collecting the unit
    assert resource.in_use == 0


def test_unit_reaches_next_waiter_after_interrupt():
    """With two queued waiters, interrupting the first must route the
    freed unit to the second (not lose it behind the dead grant)."""
    env = Environment()
    resource = Resource(env, capacity=1)
    log = []

    def holder():
        yield from resource.acquire(10)

    def waiter(name):
        try:
            yield from resource.acquire(1)
            log.append((name, "held", env.now))
        except Interrupt:
            log.append((name, "interrupted", env.now))

    def killer(process):
        yield env.timeout(2)
        process.interrupt()

    env.process(holder())
    env.process(killer(env.process(waiter("first"))))
    env.process(waiter("second"))
    env.run()
    assert log == [("first", "interrupted", 2), ("second", "held", 11)]
    assert resource.available == 1


# ------------------------------------------------------- composite detach

def test_any_of_detaches_loser_callbacks():
    env = Environment()
    slow = env.timeout(100)
    fast = env.timeout(1)

    def proc():
        yield env.any_of([slow, fast])

    env.process(proc())
    env.run(until=10)
    # The loser has not fired; the composite's callback must be gone.
    assert slow._callbacks == []


def test_all_of_failure_detaches_pending_children():
    env = Environment()
    pending = env.timeout(100)
    failing = Event(env)
    log = []

    def proc():
        try:
            yield env.all_of([pending, failing])
        except RuntimeError:
            log.append(env.now)

    def failer():
        yield env.timeout(1)
        failing.fail(RuntimeError("child failed"))

    env.process(proc())
    env.process(failer())
    env.run(until=10)
    assert log == [1]
    assert pending._callbacks == []


# ------------------------------------ dual-lane core vs single heap (PBT)

_STEP = st.one_of(
    st.tuples(st.just("timeout"), st.integers(0, 7)),
    st.tuples(st.just("acquire"), st.integers(1, 5)),
    st.tuples(st.just("put"), st.integers(0, 9)),
    st.tuples(st.just("get"), st.just(0)),
)

_PROGRAM = st.lists(st.lists(_STEP, max_size=5), min_size=1, max_size=4)


def _execute(env_cls, program):
    env = env_cls()
    resource = Resource(env, capacity=2)
    store = Store(env)
    log = []

    def runner(pid, steps):
        for index, step in enumerate(steps):
            op, arg = step
            if op == "timeout":
                yield env.timeout(arg)
            elif op == "acquire":
                yield from resource.acquire(arg)
            elif op == "put":
                store.put(arg)
            else:  # "get" — may block forever; the run just ends then
                item = yield store.get()
                log.append((pid, index, "got", item, env.now))
            log.append((pid, index, env.now))

    for pid, steps in enumerate(program):
        env.process(runner(pid, steps))
    env.run()
    return env.now, env.events_fired, log


@settings(deadline=None, max_examples=40)
@given(program=_PROGRAM)
def test_dual_lane_core_matches_single_heap_oracle(program):
    """The dual-lane core runs any program to the same end time, event
    count and execution trace as one ``(time, seq)`` heap — the
    ordering contract of the engine's module docstring."""
    assert _execute(Environment, program) == \
        _execute(SingleHeapEnvironment, program)


# --------------------------------- schedule() ordering edge cases


def test_schedule_same_time_events_fire_fifo():
    """Events landing on the *current* timestamp (zero delay, or a delay
    small enough that ``now + delay == now`` in float) must fire in
    scheduling order.  This is the tuple-ordering edge case the old
    duplicated ``heappush`` sites each handled with their own seq
    counter; ``Environment.schedule`` is now the single seam."""
    for env_cls in (Environment, SingleHeapEnvironment):
        env = env_cls()
        log = []
        events = [Event(env) for _ in range(8)]
        for index, event in enumerate(events):
            event.add_callback(
                lambda ev, index=index: log.append((index, env.now)))

        def proc():
            yield env.timeout(5)
            for index, event in enumerate(events):
                # Alternate exact-zero and denormal-small delays: both
                # round to the current timestamp and must stay FIFO.
                env.schedule(event, 0.0 if index % 2 == 0 else 1e-300)

        env.process(proc())
        env.run()
        assert log == [(i, 5) for i in range(8)], env_cls.__name__


def test_schedule_rejects_negative_delay():
    from repro.sim.engine import SimulationError

    env = Environment()
    try:
        env.schedule(Event(env), -1.0)
    except SimulationError:
        pass
    else:  # pragma: no cover - failure path
        raise AssertionError("negative delay must raise")


def test_schedule_interleaves_future_and_now_events():
    """A future event scheduled *before* same-time events must still
    fire after them once the clock reaches its timestamp, and same-time
    events enqueued by a firing event run before the clock advances."""
    env = Environment()
    log = []

    def proc():
        yield env.timeout(3)
        log.append(("first", env.now))
        follow = Event(env)
        follow.add_callback(lambda ev: log.append(("follow", env.now)))
        env.schedule(follow)  # same timestamp: runs before t=7 below
        yield env.timeout(4)
        log.append(("second", env.now))

    env.process(proc())
    env.run()
    assert log == [("first", 3), ("follow", 3), ("second", 7)]


# ----------------------- converted state machines (model-layer PBT)


_TINY_HIDDEN = st.sampled_from([512, 1024])
_TINY_SEQ = st.sampled_from([256, 512])
_TINY_TP = st.sampled_from([2, 4])
_TINY_SUBLAYER = st.sampled_from(["OP", "FC-2", "IP"])


@settings(deadline=None, max_examples=6)
@given(hidden=_TINY_HIDDEN, seq_len=_TINY_SEQ, tp=_TINY_TP,
       sublayer=_TINY_SUBLAYER)
def test_converted_machines_match_single_heap_oracle_on_sublayer_cases(
        hidden, seq_len, tp, sublayer):
    """End-to-end ordering over the converted GEMM/DMA/link state
    machines: a random sub-layer case simulated on the dual-lane core
    and on the single-heap oracle must produce an identical suite
    payload (all config times, traffic) and identical telemetry
    snapshots (which embed event ordering via time-stamped series and
    end_time)."""
    from repro.config import table1_system
    from repro.experiments import common
    from repro.models.transformer import TransformerConfig

    model = TransformerConfig(name="pbt", hidden=hidden, n_layers=1,
                              seq_len=seq_len, batch=1)
    sub = model.sublayer(sublayer, tp)
    system = table1_system(n_gpus=tp)

    def run_once(env_cls):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(common, "Environment", env_cls)
            registries = {}
            suite = common.run_sublayer_suite(
                system, sub.gemm, label=sub.label,
                configs=["Sequential", "T3", "T3-MCA"],
                obs_sink=registries)
            snapshots = {name: registry.snapshot()
                         for name, registry in registries.items()}
            return suite.to_dict(), snapshots

    assert run_once(Environment) == run_once(SingleHeapEnvironment)
