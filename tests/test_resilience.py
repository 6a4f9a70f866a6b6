"""Unit tests for the resilience layer: policy knobs, the in-run state
machine, the runtime's recovery bookkeeping, and the chaos campaign's
registration, determinism and RUN -> FALLBACK -> DEAD outcomes."""

import pytest

from repro.config import set_default_overlap_policy, table1_system
from repro.experiments import chaos
from repro.faults import FaultPlan
from repro.resilience import (
    LadderRung,
    ResiliencePolicy,
    ResilienceRuntime,
    RunState,
)
from repro.resilience.policy import CollectiveStateMachine
from repro.sim.engine import SimulationError

# ------------------------------------------------------------------ policy


def test_policy_rejects_bad_knobs():
    with pytest.raises(ValueError, match="deadline_slack"):
        ResiliencePolicy(deadline_slack=0.5)
    with pytest.raises(ValueError, match="backoff"):
        ResiliencePolicy(backoff=0.9)
    with pytest.raises(ValueError, match="budgets"):
        ResiliencePolicy(max_reissues_per_command=-1)


def test_state_machine_validates_transitions():
    machine = CollectiveStateMachine()
    assert machine.state is RunState.HEALTHY
    assert not machine.ever_degraded
    machine.to(RunState.DEGRADED)
    machine.to(RunState.RECOVERED)
    machine.to(RunState.DEGRADED)      # a later fault re-degrades
    machine.to(RunState.FAILED)
    assert machine.ever_degraded
    assert len(machine.transitions) == 4
    with pytest.raises(ValueError, match="illegal"):
        machine.to(RunState.HEALTHY)   # FAILED is terminal


def test_state_machine_same_state_is_a_noop():
    machine = CollectiveStateMachine()
    machine.to(RunState.HEALTHY)
    assert machine.transitions == []
    with pytest.raises(ValueError, match="illegal"):
        machine.to(RunState.RECOVERED)  # healthy cannot skip degraded


# ----------------------------------------------------------------- runtime


def test_runtime_starts_dormant_and_arms_on_fault():
    runtime = ResilienceRuntime()
    assert not runtime.armed
    assert runtime.machine.state is RunState.HEALTHY
    runtime.on_fault_observed("dropped-dma", gpu_id=1)
    assert runtime.armed
    assert runtime.detections == 1
    assert runtime.machine.state is RunState.DEGRADED
    runtime.on_fault_observed("dropped-dma", gpu_id=1)
    assert runtime.detections == 2       # arming is idempotent


def test_runtime_reporting_defaults():
    runtime = ResilienceRuntime()
    assert runtime.dma_reissues == 0
    assert runtime.tracker_restores == 0
    assert runtime.mean_time_to_recover_ns() is None
    assert "state=healthy" in runtime.summary()


def test_runtime_recovers_dropped_completion_end_to_end():
    """A dropped DMA completion kills the bare fused run but the
    resilient one re-issues the notification and finishes."""
    scenario = chaos.ChaosScenario(
        index=0, kind="dropped-dma", severity="mild",
        topology=chaos.TOPOLOGIES[0], scheduler="T3-MCA", seed=0,
        plan=FaultPlan.dropped_dma(gpu_id=1, max_events=1, seed=7),
        detail="unit drop recovery")
    system = table1_system(n_gpus=scenario.topology.n_gpus)
    bare = chaos._attempt_fused(scenario, system, resilience=None)
    assert not bare.ok
    resilient = chaos._attempt_fused(scenario, system,
                                     resilience=ResiliencePolicy())
    assert resilient.survived
    assert resilient.runtime.dma_reissues >= 1
    assert resilient.runtime.mean_time_to_recover_ns() > 0
    assert resilient.runtime.machine.state is RunState.RECOVERED


# ------------------------------------------------------------------- chaos


def test_chaos_registered_in_runner():
    from repro.experiments.runner import EXPERIMENTS
    assert "chaos" in EXPERIMENTS


def test_chaos_campaign_grid_is_deterministic():
    first = chaos.campaign_scenarios(seeds=1)
    second = chaos.campaign_scenarios(seeds=1)
    assert len(first) == (len(chaos.FAULT_KINDS) * len(chaos.SEVERITIES)
                          * len(chaos.TOPOLOGIES) * len(chaos.FUSED_CONFIGS))
    assert [s.index for s in first] == list(range(len(first)))
    assert [(s.kind, s.severity, s.detail) for s in first] == \
        [(s.kind, s.severity, s.detail) for s in second]


def test_chaos_link_faults_target_used_edges():
    for spec in chaos.TOPOLOGIES:
        edges = set(chaos._ring_edges(spec))
        for seed in range(3):
            plan, detail = chaos._fault_for("degraded-link", "severe",
                                            spec, seed)
            entry = plan.links[0]
            assert (entry.src, entry.dst) in edges, detail


def _crippled_scenario(monkeypatch):
    """A dropped-completion scenario whose resilient run cannot recover:
    zeroed in-run budgets mean no lost notification is ever re-issued."""
    crippled = ResiliencePolicy(max_reissues_per_command=0,
                                max_restores_per_region=0,
                                max_deadline_extensions=0)
    monkeypatch.setattr(chaos, "ResiliencePolicy", lambda: crippled)
    scenario = chaos.ChaosScenario(
        index=0, kind="dropped-dma", severity="severe",
        topology=chaos.TOPOLOGIES[0], scheduler="T3-MCA", seed=0,
        plan=FaultPlan.dropped_dma(gpu_id=1, max_events=2, seed=11),
        detail="crippled in-run recovery")
    return scenario, table1_system(n_gpus=scenario.topology.n_gpus)


def test_ladder_falls_back_when_in_run_recovery_is_crippled(monkeypatch):
    """With in-run recovery crippled the resilient fused run fails, and
    the scenario survives on the plan-driven Sequential fallback: RUN ->
    FALLBACK, with the fallback time equal to the Sequential reference."""
    scenario, system = _crippled_scenario(monkeypatch)
    outcome = chaos.run_scenario(scenario, system)
    assert outcome.rung is LadderRung.FALLBACK
    assert outcome.resilient_survived
    assert outcome.sequential_time is not None
    assert outcome.resilient_time == outcome.sequential_time
    assert outcome.retained_speedup == 1.0
    assert outcome.recoveries == 0
    assert outcome.detections >= 1


def test_ladder_is_dead_when_the_fallback_fails_too(monkeypatch):
    """If the plan-driven Sequential fallback also fails, the scenario
    ends DEAD: not survived, no resilient time, counted as dead."""
    scenario, system = _crippled_scenario(monkeypatch)

    def failing_fallback(scenario, system):
        raise SimulationError("fallback Sequential failed too")

    monkeypatch.setattr(chaos, "_plan_driven_time", failing_fallback)
    outcome = chaos.run_scenario(scenario, system)
    assert outcome.rung is LadderRung.DEAD
    assert not outcome.resilient_survived
    assert outcome.resilient_time is None
    assert outcome.sequential_time is None
    assert outcome.retained_speedup is None
    result = chaos.ChaosResult(outcomes=[outcome])
    assert result.rung_distribution() == {"dead": 1}
    assert "survival rungs: dead=1" in result.render()


def _assert_campaign_survives(result):
    assert result.survival_rate == 1.0
    assert result.baseline_survival_rate < 1.0, (
        "no fault killed the no-response baseline; the campaign is not "
        "stressing anything")
    assert result.invariant_violations == 0
    assert result.watchdog_hangs == 0


def test_chaos_mini_campaign_survives_fully():
    _assert_campaign_survives(chaos.run(seeds=1))


def test_chaos_mini_campaign_survives_under_adaptive_policy():
    previous = set_default_overlap_policy("adaptive")
    try:
        result = chaos.run(seeds=1)
    finally:
        set_default_overlap_policy(previous)
    _assert_campaign_survives(result)
