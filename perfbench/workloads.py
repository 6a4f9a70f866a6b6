"""The benchmark's workloads: seeded inputs, timed passes, output checks.

Every workload is a closed loop with a single client: one process, ``jobs=1``,
and the next case starts only after the previous one has returned.  A *pass*
runs every case of the workload once; a run measures whole passes so that
every run of a workload times exactly the same work.

Outputs are checked against digests recorded at the baseline commit
(``golden.json``, written by ``record.py``).  A case that raises or whose
digest differs counts as failed and is named in the report.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import pathlib
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Dict, List, Optional

from repro.config import table1_system
from repro.experiments import sublayer_sweep
from repro.experiments.executor import code_fingerprint
from repro.faults.plan import ComputeSlowdown, FaultPlan, LinkDegradation
from repro.models import zoo
from repro.sim.stats import geomean
from repro.surrogate.grid import synthetic_cases
from repro.surrogate.model import CalibratedSurrogate

BENCH_DIR = pathlib.Path(__file__).resolve().parent
#: the ``src`` directory the simulator was imported from.
REPRO_SRC = pathlib.Path(sublayer_sweep.__file__).resolve().parents[2]
GOLDEN_PATH = BENCH_DIR / "golden.json"
SURROGATE_FIXTURE = BENCH_DIR / "surrogate_fixture.json"

#: the paper's reported Fig. 16 geomean sub-layer speedups.  The model has
#: no hardware reference; its accuracy is stated against these numbers.
PAPER_FIG16 = {"T3": 1.20, "T3-MCA": 1.30}

#: the three simulated configurations of a suite (the other two are
#: closed-form and carry Sequential's traffic).
SIMULATED_CONFIGS = ("Sequential", "T3", "T3-MCA")

#: host clock for every timed region.
clock = time.perf_counter


def digest(payload) -> str:
    """sha256 of the canonical JSON form of ``payload``."""
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(body).hexdigest()


def load_golden() -> Dict[str, object]:
    return json.loads(GOLDEN_PATH.read_text())


class CaseTimer:
    """Times each case of a pass; optionally profiles exactly those spans.

    A sample is kept only for a case that returned: a case that raised is
    a failure, not a timing.
    """

    def __init__(self, profiler=None):
        self.profiler = profiler
        self.samples: List[float] = []

    @contextlib.contextmanager
    def case(self):
        profiler = self.profiler
        if profiler is not None:
            profiler.enable()
        start = clock()
        try:
            yield
        finally:
            elapsed = clock() - start
            if profiler is not None:
                profiler.disable()
        self.samples.append(elapsed)


@dataclasses.dataclass
class PassResult:
    """What one pass measured and observed."""

    #: host seconds per completed case (a scored case for triage-10k).
    case_s: List[float]
    #: cases completed, and the timed host seconds they took.
    completed: int
    timed_s: float
    attempted: int
    #: cases that raised or diverged from the recorded digests.
    failed: int
    #: "<case>: <why>" for every failure.
    failures: List[str]
    #: exact simulated / work statistics of the pass, by metric name.
    stats: Dict[str, float]
    #: output digests by case, as ``golden.json`` records them.
    digests: Dict[str, object] = dataclasses.field(default_factory=dict)


class Workload:
    """One benchmark workload; subclasses fill in the pass."""

    name = ""
    #: one pass's host seconds on the reference host (a 2-vCPU x86-64 VM,
    #: CPython 3.11); ``passes_for`` sizes a run from it, so every run of a
    #: given length times the same amount of work on any host.
    nominal_pass_s = 1.0

    def __init__(self, seed: int, workdir: pathlib.Path,
                 golden: Dict[str, object]):
        self.seed = seed
        self.workdir = workdir
        self.golden = golden

    def passes_for(self, seconds: float) -> int:
        return max(1, round(seconds / self.nominal_pass_s))

    def fresh_dir(self, tag: str) -> pathlib.Path:
        """A new empty directory inside the run's private work area."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        return pathlib.Path(tempfile.mkdtemp(prefix=f"{tag}-",
                                             dir=self.workdir))

    def use_private_cache(self, tag: str) -> pathlib.Path:
        """Point the sweep layer at a new empty cache; forget the memo."""
        cache_dir = self.fresh_dir(tag)
        sublayer_sweep.configure(cache_dir=str(cache_dir), jobs=1,
                                 disk_cache=True)
        sublayer_sweep.clear_cache()
        return cache_dir

    def setup(self) -> None:
        """Build inputs and warm up; repeatable (timed several times)."""
        raise NotImplementedError

    def fill(self, failures: "Failures") -> None:
        """One-off set-up after ``setup`` (the triage cache fill)."""

    def run_pass(self, timer: CaseTimer, traced: bool = False) -> PassResult:
        raise NotImplementedError


class Failures:
    """Cases of a pass that raised or diverged, with the reason for each."""

    def __init__(self):
        self.messages: List[str] = []
        self.cases: set = set()

    def add(self, case: str, why: str) -> None:
        self.cases.add(case)
        self.messages.append(f"{case}: {why}")

    def raised(self, case: str, exc: BaseException) -> None:
        traceback.print_exception(type(exc), exc, exc.__traceback__,
                                  file=sys.stderr)
        self.add(case, f"raised {type(exc).__name__}: {exc}")

    def check(self, case: str, what: str, got: str,
              want: Optional[str]) -> None:
        if want is None:
            self.add(case, f"no recorded {what} digest")
        elif got != want:
            self.add(case, f"{what} digest {got[:12]} != recorded "
                           f"{want[:12]}")


def _per_case_result(timer: CaseTimer, attempted: int, failures: Failures,
                     stats: Dict[str, float],
                     digests: Dict[str, object]) -> PassResult:
    samples = timer.samples
    return PassResult(case_s=samples, completed=len(samples),
                      timed_s=sum(samples),
                      attempted=attempted, failed=len(failures.cases),
                      failures=failures.messages, stats=stats,
                      digests=digests)


def _cheapest(cases):
    """The warm-up case: lowest TP, then smallest GEMM."""
    return min(cases, key=lambda sub: (sub.tp, sub.gemm.m * sub.gemm.n
                                       * sub.gemm.k))


def _dram_bytes(stats: Dict[str, float], suite) -> None:
    for config in SIMULATED_CONFIGS:
        key = f"memory.dram_bytes.{config}"
        stats[key] = stats.get(key, 0.0) + suite.traffic[config].total


# -- paper-grid ------------------------------------------------------------------


class PaperGrid(Workload):
    """The 16-case fast grid of Figs. 15/16/18 on the cold sweep path."""

    name = "paper-grid"
    nominal_pass_s = 15.0

    def setup(self) -> None:
        self.cases = sublayer_sweep.default_cases()
        random.Random(self.seed).shuffle(self.cases)
        # Warm-up off the timed path: lazy imports, the code fingerprint
        # every cache key hashes, and one cheap suite.
        warm = _cheapest(self.cases)
        sublayer_sweep.simulate_case(
            warm, sublayer_sweep.FAST_SCALE, table1_system(n_gpus=warm.tp))
        code_fingerprint()

    def run_pass(self, timer: CaseTimer, traced: bool = False) -> PassResult:
        golden = self.golden["paper-grid"]
        cache_dir = self.use_private_cache("paper-grid-cache")
        failures = Failures()
        stats: Dict[str, float] = {}
        digests: Dict[str, object] = {}
        speedups: Dict[str, List[float]] = {name: [] for name in PAPER_FIG16}
        for sub in self.cases:
            try:
                with timer.case():
                    suite = sublayer_sweep.run_sweep(cases=[sub], jobs=1)[0]
            except Exception as exc:
                failures.raised(sub.label, exc)
                continue
            digests[sub.label] = digest(suite.to_dict())
            failures.check(sub.label, "suite", digests[sub.label],
                           golden.get(sub.label))
            _dram_bytes(stats, suite)
            for name in PAPER_FIG16:
                speedups[name].append(suite.speedup(name))
        cache = sublayer_sweep.cache_stats()
        stats.update({"experiments.cache_hits": cache.hits,
                      "experiments.cache_misses": cache.misses,
                      "experiments.cache_stores": cache.stores})
        if not failures.cases:
            for name, key in (("T3", "fig16_t3_err"),
                              ("T3-MCA", "fig16_t3mca_err")):
                paper = PAPER_FIG16[name]
                stats[key] = abs(geomean(speedups[name]) - paper) / paper
        shutil.rmtree(cache_dir)
        return _per_case_result(timer, len(self.cases), failures, stats,
                                digests)


# -- instrumented-faulty ----------------------------------------------------------

#: a seed selects one of this many recorded fault plans (every plan's
#: outputs have recorded digests).
FAULT_VARIANTS = 8


def fault_plan(variant: int) -> FaultPlan:
    """A straggler GPU plus a degraded ring link with transient stalls.

    GPU ids stay below 8 so every plan fits both TP 8 and TP 16; the link
    is a forward ring edge (``src -> src - 1``) so it always carries
    traffic.
    """
    straggler = variant % 8
    src = (3 * variant + 1) % 8
    return FaultPlan(
        seed=variant,
        compute=(ComputeSlowdown(gpu_id=straggler, factor=1.5),),
        links=(LinkDegradation(src=src, dst=(src - 1) % 8,
                               bandwidth_factor=0.5, stall_ns=4_000.0,
                               stall_probability=0.3),))


def registry_digests(registries: Dict[str, object]) -> Dict[str, str]:
    return {config: digest(registry.snapshot())
            for config, registry in sorted(registries.items())}


def _sum_counters(registry, component: str, prefix: str) -> float:
    return sum(value for scope in registry.scopes(component)
               for name, value in scope.counters.items()
               if name.startswith(prefix))


def _mca_stats(registry) -> Dict[str, float]:
    """Passive T3-MCA telemetry of one run (registry reads only)."""
    horizon = registry.end_time()
    occupancy = [gauge.time_weighted_mean(horizon)
                 for scope in registry.scopes("dram")
                 for name, gauge in sorted(scope.gauges.items())
                 if name.endswith(".occupancy")]
    latencies: List[float] = []
    for scope in registry.scopes("tracker"):
        series = scope.get_series("trigger_latency_ns")
        if series is not None:
            latencies.extend(series.values)
    drain = sum(stats.total for scope in registry.scopes("mc")
                for name, stats in scope.observations.items()
                if name.startswith("drain_stall_ns"))
    return {
        "memory.arbiter.comm_grants":
            _sum_counters(registry, "arbiter", "comm_grants"),
        "memory.arbiter.comm_deferrals":
            _sum_counters(registry, "arbiter", "comm_deferrals"),
        "memory.dram.occupancy_mean":
            statistics.fmean(occupancy) if occupancy else 0.0,
        "memory.mc.drain_stall_ns": drain,
        "t3.tracker.trigger_latency_ns_p50":
            statistics.median(latencies) if latencies else 0.0,
        "gpu.dma.triggers": _sum_counters(registry, "dma", "triggers"),
    }


class InstrumentedFaulty(Workload):
    """OP and FC-2 of both models at TP 8/16 with every instrument on."""

    name = "instrumented-faulty"
    nominal_pass_s = 15.0

    def setup(self) -> None:
        self.variant = self.seed % FAULT_VARIANTS
        self.plan = fault_plan(self.variant)
        self.cases = [sub for model in zoo.small_models()
                      for tp in (8, 16) for sub in model.ar_sublayers(tp)
                      if sub.name in ("OP", "FC-2")]
        random.Random(self.seed).shuffle(self.cases)
        self.systems = {tp: table1_system(n_gpus=tp).with_policy("adaptive")
                        for tp in (8, 16)}
        self._simulate(_cheapest(self.cases), {}, {})

    def _simulate(self, sub, obs_sink, trace_sink):
        return sublayer_sweep.simulate_case(
            sub, sublayer_sweep.FAST_SCALE, self.systems[sub.tp],
            faults=self.plan, check_invariants=True, obs_sink=obs_sink,
            resilience=True, trace_sink=trace_sink)

    def run_pass(self, timer: CaseTimer, traced: bool = False) -> PassResult:
        golden = self.golden["instrumented-faulty"].get(str(self.variant),
                                                        {})
        failures = Failures()
        stats: Dict[str, float] = {}
        digests: Dict[str, object] = {}
        for sub in self.cases:
            obs_sink: Dict[str, object] = {}
            trace_sink: Dict[str, object] = {}
            try:
                with timer.case():
                    suite = self._simulate(sub, obs_sink, trace_sink)
            except Exception as exc:
                failures.raised(sub.label, exc)
                continue
            want = golden.get(sub.label, {})
            got = digests[sub.label] = {"suite": digest(suite.to_dict())}
            failures.check(sub.label, "suite", got["suite"],
                           want.get("suite"))
            if traced:
                got["registries"] = registry_digests(obs_sink)
                recorded = want.get("registries", {})
                for config, value in got["registries"].items():
                    failures.check(sub.label, f"{config} registry", value,
                                   recorded.get(config))
            self._collect(stats, sub.label, suite, obs_sink, trace_sink,
                          failures)
        return _per_case_result(timer, len(self.cases), failures, stats,
                                digests)

    @staticmethod
    def _collect(stats, label, suite, obs_sink, trace_sink, failures):
        def add(key, value):
            stats[key] = stats.get(key, 0.0) + value

        _dram_bytes(stats, suite)
        for config, registry in obs_sink.items():
            # Event counters only: ``link_stall_ns`` sums stall time.
            injected = sum(value for scope in registry.scopes("faults")
                           for name, value in scope.counters.items()
                           if not name.endswith("_ns"))
            if injected == 0:
                failures.add(label, f"{config}: the fault plan realized "
                                    "no fault")
            add("faults.injected", injected)
            add("policy.retunes",
                _sum_counters(registry, "policy", "retunes."))
            add("resilience.recoveries",
                _sum_counters(registry, "resilience", "repairs")
                + _sum_counters(registry, "resilience", "drain_recoveries"))
            add("resilience.detections",
                _sum_counters(registry, "resilience", "detections"))
        for key, value in _mca_stats(obs_sink["T3-MCA"]).items():
            add(key, value)
        add("trace.spans", sum(len(recorder)
                               for recorder in trace_sink.values()))


# -- triage-10k -------------------------------------------------------------------

#: a seed selects one of this many recorded (grid, audit) seeds.
TRIAGE_VARIANTS = 4
TRIAGE_CASES = 10_000
#: frontier / audit sizes: small enough that the set-up cache fill takes
#: about ten seconds, so every run can afford a fresh private cache.
TRIAGE_OPTIONS = dict(frontier=4, audit_fraction=0.0, min_audit=4)


def triage_digest(result) -> str:
    """Frontier labels, every predicted speedup, and the audit statistics."""
    return digest({
        "frontier": [case.label for case in result.frontier()],
        "simulated_as": [case.simulated_as for case in result.scored],
        "predicted_speedup": [case.predicted_speedup
                              for case in result.scored],
        "audit": result.audit_stats,
    })


def load_surrogate() -> CalibratedSurrogate:
    return CalibratedSurrogate.from_dict(
        json.loads(SURROGATE_FIXTURE.read_text()))


def triage(cases, surrogate: CalibratedSurrogate, variant: int):
    return sublayer_sweep.run_sweep(
        cases=cases, triage="surrogate", jobs=1,
        triage_options=dict(TRIAGE_OPTIONS, surrogate=surrogate,
                            seed=variant))


def fill_triage_cache(variant: int, cache_dir: str) -> str:
    """Simulate a variant's frontier + audit cases into ``cache_dir``;
    returns the triage digest.  Runs in a child process (see
    :meth:`Triage10k.fill`)."""
    sublayer_sweep.configure(cache_dir=cache_dir, jobs=1, disk_cache=True)
    cases = synthetic_cases(n=TRIAGE_CASES, seed=variant)
    return triage_digest(triage(cases, load_surrogate(), variant))


class Triage10k(Workload):
    """Surrogate triage of the seeded 10k-case synthetic grid."""

    name = "triage-10k"
    nominal_pass_s = 5.5

    def setup(self) -> None:
        self.variant = self.seed % TRIAGE_VARIANTS
        self.surrogate = load_surrogate()
        self.cases = synthetic_cases(n=TRIAGE_CASES, seed=self.variant)

    def fill(self, failures: Failures) -> None:
        """Simulate the frontier + audit cases into a fresh private cache.

        The surrogate is the pinned fixture, so what the cache held before
        cannot change which cases are selected; the cache only decides
        whether they are simulated (here) or read (in the timed passes).
        The fill runs in a child process so that the memory of those
        simulations does not count toward the workload's peak RSS.

        The fill's digest is recorded apart from the passes': the audit
        geomean sums the same errors in another order when the suites
        come from the cache, which can move its last bit.
        """
        cache_dir = self.use_private_cache("triage-cache")
        child = ("import sys, workloads; print(workloads.fill_triage_cache("
                 "int(sys.argv[1]), sys.argv[2]))")
        path = os.pathsep.join((str(REPRO_SRC), str(BENCH_DIR)))
        try:
            done = subprocess.run(
                [sys.executable, "-c", child, str(self.variant),
                 str(cache_dir)], env={**os.environ, "PYTHONPATH": path},
                capture_output=True, text=True, check=True)
        except subprocess.CalledProcessError as exc:
            sys.stderr.write(exc.stderr)
            failures.raised(f"{self.name} fill", exc)
            return
        self.fill_digest = done.stdout.split()[-1]
        self._check(failures, "fill", self.fill_digest)

    def _check(self, failures: Failures, stage: str, got: str) -> None:
        recorded = self.golden["triage-10k"].get(str(self.variant), {})
        failures.check(f"triage of grid variant {self.variant} ({stage})",
                       "triage", got, recorded.get(stage))

    def run_pass(self, timer: CaseTimer, traced: bool = False) -> PassResult:
        failures = Failures()
        before = sublayer_sweep.cache_stats().snapshot()
        try:
            with timer.case():
                result = triage(self.cases, self.surrogate, self.variant)
        except Exception as exc:
            failures.raised(self.name, exc)
            return PassResult(case_s=[], completed=0, timed_s=0.0,
                              attempted=len(self.cases),
                              failed=len(self.cases),
                              failures=failures.messages, stats={})
        elapsed = timer.samples[-1]
        # One sample per scored case would all be equal; report the call's
        # host seconds per scored case instead.
        timer.samples[-1] = elapsed / result.n_scored
        pass_digest = triage_digest(result)
        self._check(failures, "pass", pass_digest)
        cache = sublayer_sweep.cache_stats().delta(before)
        stats = {
            "experiments.cache_hits": cache.hits,
            "experiments.cache_misses": cache.misses,
            "experiments.cache_stores": cache.stores,
            "surrogate.simulated_frac": result.simulated_fraction,
            "triage_audit_err": result.audit_stats["geomean_rel"],
        }
        # The digest covers the whole triage, so a mismatch fails every
        # scored case.
        return PassResult(case_s=timer.samples, completed=result.n_scored,
                          timed_s=elapsed, attempted=result.n_scored,
                          failed=result.n_scored if failures.cases else 0,
                          failures=failures.messages, stats=stats,
                          digests={"pass": pass_digest})


WORKLOADS = {cls.name: cls for cls in (PaperGrid, InstrumentedFaulty,
                                       Triage10k)}
