"""Golden-digest gate: every attachment variant reproduces one recorded run.

The simulator's instrumentation claims transparency: attaching a
metrics registry, a trace recorder, an empty fault plan with the
invariant checker, or a dormant resilience runtime changes nothing it
computes.  The event core and the static overlap policy claim the same
against their reference oracles — the single-heap event loop in
:mod:`tests.single_heap` and the inline pre-policy-layer MCA arbiter in
:mod:`tests.test_policy`.  Every such claim is checked here against
one table, ``golden_digests.json``, holding per case:

* ``suite`` — sha256 of the canonical ``SublayerSuite.to_dict()`` JSON
  (what the sweep cache stores and ``results/`` renders from);
* ``events_fired`` / ``now`` / ``duration`` — the engine event count,
  final clock and duration of one fused GEMM-RS run;
* ``snapshot`` — sha256 of that fused run's registry snapshot
  (time-stamped series, so it pins event ordering too).

Variants that attach no registry are checked on the first four fields.

The table is re-recorded only for a deliberate behaviour change::

    PYTHONPATH=src python -m tests.test_golden > tests/golden_digests.json
"""

import hashlib
import json
import pathlib

import pytest

from repro.analysis.trace import TraceRecorder
from repro.config import table1_system
from repro.experiments import common, sublayer_sweep
from repro.experiments.common import _fresh_topology
from repro.faults import FaultPlan
from repro.memory import arbiter
from repro.models import zoo
from repro.obs import MetricsRegistry
from repro.t3.fusion import FusedGEMMRS

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_digests.json")

SUB = zoo.t_nlg().sublayer("OP", 4)
SYSTEM = table1_system(n_gpus=SUB.tp)
CONFIGS = ["Sequential", "T3", "T3-MCA"]

#: case name -> the fault plan it runs under.
CASES = {
    "tnlg-op-tp4": None,
    "tnlg-op-tp4-straggler": FaultPlan.straggler(gpu_id=0, factor=1.5,
                                                 seed=7),
}


def _sha256(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def measure(faults=None, obs=False, trace=False, invariants=False,
            resilience=False):
    """Simulate the case once as a sweep suite and once as a fused run
    with the given attachments; return the golden fields it reproduces
    plus the fused run's environment."""
    suite = sublayer_sweep.simulate_case(
        SUB, sublayer_sweep.FAST_SCALE, SYSTEM, CONFIGS, faults=faults,
        check_invariants=invariants, obs_sink={} if obs else None,
        resilience=resilience, trace_sink={} if trace else None)
    registry = MetricsRegistry() if obs else None
    env, topo = _fresh_topology(
        SYSTEM, "mca", faults=faults, check_invariants=invariants,
        obs=registry, resilience=resilience,
        trace=TraceRecorder(record_dram=True) if trace else None)
    shape = sublayer_sweep.case_shape(SUB, sublayer_sweep.FAST_SCALE,
                                      SYSTEM)
    result = FusedGEMMRS(topo, shape, calibrate_mca=True).run()
    facts = {
        "suite": _sha256(suite.to_dict()),
        "events_fired": env.events_fired,
        "now": env.now,
        "duration": result.duration,
    }
    if registry is not None:
        facts["snapshot"] = _sha256(registry.snapshot())
    return facts, env


def record():
    """The golden table: plain-run fields plus the registry snapshot."""
    table = {}
    for name, faults in CASES.items():
        facts = measure(faults)[0]
        facts["snapshot"] = measure(faults, obs=True)[0]["snapshot"]
        table[name] = facts
    return table


def _plain(faults, monkeypatch):
    return measure(faults)[0]


def _obs(faults, monkeypatch):
    return measure(faults, obs=True)[0]


def _trace(faults, monkeypatch):
    return measure(faults, obs=True, trace=True)[0]


def _invariants(faults, monkeypatch):
    return measure(faults if faults is not None else FaultPlan(),
                   invariants=True)[0]


def _resilience(faults, monkeypatch):
    facts, env = measure(faults, resilience=True)
    assert env.resilience.armed is False
    assert not env.resilience.recoveries
    return facts


def _reference_arbiter(faults, monkeypatch):
    from tests.test_policy import InlineReferenceArbiter
    monkeypatch.setattr(arbiter, "MCAPolicy", InlineReferenceArbiter)
    return measure(faults, obs=True)[0]


def _single_heap_oracle(faults, monkeypatch):
    from tests.single_heap import SingleHeapEnvironment
    monkeypatch.setattr(common, "Environment", SingleHeapEnvironment)
    facts, env = measure(faults, obs=True)
    assert type(env) is SingleHeapEnvironment
    return facts


VARIANTS = {
    "plain": _plain,
    "obs": _obs,
    "trace": _trace,
    "invariants": _invariants,
    "resilience": _resilience,
    "reference-arbiter": _reference_arbiter,
    "single-heap-oracle": _single_heap_oracle,
}

#: resilience is dormant only until a fault manifests, and the straggler
#: is one (it arms the runtime), so that variant runs the healthy case.
PAIRS = [(variant, case) for variant in VARIANTS for case in sorted(CASES)
         if variant != "resilience" or CASES[case] is None]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("variant,case", PAIRS)
def test_variant_reproduces_golden_digests(variant, case, golden,
                                           monkeypatch):
    facts = VARIANTS[variant](CASES[case], monkeypatch)
    expected = {key: golden[case][key] for key in facts}
    assert facts == expected


def test_golden_table_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)
    for facts in golden.values():
        assert set(facts) == {"suite", "events_fired", "now", "duration",
                              "snapshot"}


if __name__ == "__main__":
    print(json.dumps(record(), indent=2, sort_keys=True))
