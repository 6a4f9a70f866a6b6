"""The sub-layer experiment driver shared by Figures 15-18.

For one sliced sub-layer (a GEMM + its all-reduce), run every Section 5.3
configuration and collect times + DRAM traffic:

* **Sequential** — co-simulate the GEMM on all GPUs, then ring-RS, then
  ring-AG (each kernel serialized, as on today's GPUs);
* **T3** — fused GEMM-RS (compute-priority arbitration) + sequential AG;
* **T3-MCA** — fused GEMM-RS with the MCA policy + sequential AG;
* **Ideal-GEMM-RS-Overlap** — ``max(GEMM, RS)`` of the *isolated*
  simulated times + AG (no contention, Section 5.3);
* **Ideal-RS+NMC** — ``max(GEMM, RS_NMC)`` + AG, where RS_NMC is the
  closed-form near-memory-compute RS.

The suite is the unit every sub-layer figure reduces over.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.traffic import DramBreakdown, collect_breakdown
from repro.collectives.baseline import RingAllGather, RingReduceScatter
from repro.collectives.api import rs_with_nmc_time
from repro.collectives.plan import (
    OrbitRelabel,
    orbit_period,
    ring_reduce_scatter_plan,
)
from repro.collectives.schedule import chunk_sizes
from repro.config import SystemConfig
from repro.faults import FaultInjector, FaultPlan, InvariantChecker
from repro.gpu.gemm import GEMMKernel
from repro.gpu.wavefront import GEMMShape, TileGrid
from repro.interconnect.topology import (
    OrbitRingTopology,
    RingTopology,
    Topology,
)
from repro.memory.cache import GEMMTraffic, estimate_gemm_traffic
from repro.models.transformer import SubLayer
from repro.models import zoo
from repro.sim import Environment
from repro.t3.configs import CONFIGS, RunConfig, config_by_name
from repro.t3.fusion import FusedGEMMRS, output_tiles, rank_geometry

#: every configuration name ``run_sublayer_suite`` understands, in the
#: Section 5.3 order.  Requests are validated against this set so a typo
#: (e.g. ``"T3-mca"``) fails immediately instead of surfacing later as a
#: ``KeyError`` in ``SublayerSuite.speedup``.
KNOWN_CONFIG_NAMES: Tuple[str, ...] = tuple(c.name for c in CONFIGS)


@dataclass
class SublayerSuite:
    """All configuration results for one sub-layer."""

    label: str
    shape: GEMMShape
    system: SystemConfig
    #: isolated kernel times (the Figure 15 distribution).
    gemm_time: float = 0.0
    rs_time: float = 0.0
    ag_time: float = 0.0
    #: config name -> total GEMM+RS+AG time.
    times: Dict[str, float] = field(default_factory=dict)
    #: config name -> per-GPU DRAM breakdown.
    traffic: Dict[str, DramBreakdown] = field(default_factory=dict)

    def speedup(self, config: str) -> float:
        return self.times["Sequential"] / self.times[config]

    def data_movement_reduction(self, config: str = "T3-MCA") -> float:
        """Fractional DRAM traffic saved vs Sequential (Figure 18)."""
        base = self.traffic["Sequential"].total
        new = self.traffic[config].total
        return 1.0 - new / base

    # -- serialization (the on-disk sweep cache payload) --------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "shape": self.shape.to_dict(),
            "system": self.system.to_dict(),
            "gemm_time": self.gemm_time,
            "rs_time": self.rs_time,
            "ag_time": self.ag_time,
            "times": dict(self.times),
            "traffic": {name: bd.as_dict()
                        for name, bd in self.traffic.items()},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SublayerSuite":
        return cls(
            label=data["label"],
            shape=GEMMShape.from_dict(data["shape"]),
            system=SystemConfig.from_dict(data["system"]),
            gemm_time=data["gemm_time"],
            rs_time=data["rs_time"],
            ag_time=data["ag_time"],
            times=dict(data["times"]),
            traffic={name: DramBreakdown.from_dict(bd)
                     for name, bd in data["traffic"].items()},
        )


def scaled_shape(shape: GEMMShape, scale: int, min_m: int = 256) -> GEMMShape:
    """Shrink the token (M) dimension for fast runs; K/N untouched so the
    compute-vs-communication balance is preserved.  ``min_m`` keeps the
    output chunkable (ring fusion needs >= one tile row per device).

    The unscaled ``shape`` must itself satisfy ``min_m`` — a shape whose M
    is already below the floor cannot be chunked into enough tile rows no
    matter the scale, and silently clamping (the old behavior) let ring
    fusion fail much later with an opaque error.
    """
    if shape.m < min_m:
        raise ValueError(
            f"GEMM shape {shape.name or shape} has m={shape.m} < min_m="
            f"{min_m}: the output cannot be chunked into enough macro-tile "
            f"rows for ring fusion; reduce tp, enlarge the batch/sequence, "
            f"or shrink the kernel's macro_tile_m")
    if scale <= 1:
        return shape
    new_m = max(shape.m // scale, min_m, 256)
    return dataclasses.replace(shape, m=min(new_m, shape.m))


def _attach_resilience(env: Environment, resilience) -> None:
    """Attach a :class:`~repro.resilience.ResilienceRuntime` when asked.

    ``resilience`` is falsy (off), ``True`` (default policy) or a
    :class:`~repro.resilience.ResiliencePolicy`.  Attaching before the
    topology wires matters: static link degradation is recorded at wiring
    time and must reach the runtime's fault-observed feed.
    """
    if not resilience:
        return
    from repro.resilience import ResiliencePolicy, ResilienceRuntime
    policy = resilience if isinstance(resilience, ResiliencePolicy) else None
    ResilienceRuntime(policy).attach(env)


def _fresh_topology(system: SystemConfig, policy: str,
                    record_traffic: bool = False,
                    faults: Optional[FaultPlan] = None,
                    check_invariants: bool = False,
                    obs=None,
                    resilience=None,
                    trace=None,
                    ) -> Tuple[Environment, RingTopology]:
    env = Environment()
    if obs is not None:
        env.obs = obs
    if trace is not None:
        env.trace = trace
    if faults is not None:
        env.faults = FaultInjector(faults)
        env.faults.bind_env(env)
        if obs is not None:
            env.faults.bind_obs(obs)
    if check_invariants:
        env.invariants = InvariantChecker(env)
    _attach_resilience(env, resilience)
    if record_traffic:
        system = system.with_fidelity(record_traffic=True)
    return env, RingTopology(env, system, policy_name=policy)


# -- rotation orbits --------------------------------------------------------
#
# On a fault-free, uninstrumented, statically-arbitrated flat ring every
# rank runs the same staggered program, rotated by one chunk per rank.
# When rank r + p's inputs equal rank r's shifted by p chunks, the p
# representatives of an OrbitRingTopology reproduce every rank of the
# ring exactly, and per-rank results are read back as rank r ->
# representative r mod p.  Attached instruments (faults, invariants,
# registries, traces, resilience) record per-GPU state the orbit does not
# replicate, so instrumented runs keep the full ring.


def _orbit_eligible(system: SystemConfig, faults, check_invariants: bool,
                    obs, resilience, trace) -> bool:
    """The one orbit predicate, minus the plan shape that
    :func:`_fused_orbit` checks: nothing attached, static overlap
    policy."""
    return (faults is None and not check_invariants and obs is None
            and trace is None and not resilience
            and system.policy.kind == "static")


def _ring_frame(sizes: List[int], rank: int) -> Tuple[int, ...]:
    """Per-chunk sizes in ``rank``'s frame (chunk ``rank + j`` first)."""
    n = len(sizes)
    return tuple(sizes[(rank + j) % n] for j in range(n))


def _fused_frame(grid: TileGrid, traffic: GEMMTraffic,
                 ring_chunks: List[int], rank: int) -> tuple:
    """Everything a fused rank simulates, in its own frame: the chunk WG
    counts and the all-gather's chunk sizes; per stage its WGs, in order,
    and its per-chunk output bytes; and the stage read/write bytes.

    A WG is written as its distance from the start of the rank's own
    chunk (mod the WG count).  That names its (chunk, position in chunk)
    exactly when every chunk holds the same number of WGs; with unequal
    chunks the counts already differ between any two ranks' frames."""
    n = grid.n_chunks
    n_wgs = grid.n_wgs
    first = grid.chunk_ranges[rank][0]
    # position[wg] == (wg - first) % n_wgs, built without a Python loop.
    position = list(range(n_wgs - first, n_wgs)) + list(range(n_wgs - first))
    stages = tuple(
        (tuple(map(position.__getitem__, stage.wg_ids)),
         tuple(((chunk - rank) % n, nbytes)
               for chunk, nbytes in stage.chunk_bytes.items()))
        for stage in grid.stages)
    wg_counts = [count for _start, count in grid.chunk_ranges]
    return (_ring_frame(wg_counts, rank), _ring_frame(ring_chunks, rank),
            stages, traffic.stage_read_bytes, traffic.stage_write_bytes)


def _ring(system: SystemConfig, policy: str,
          orbit: Callable[[], Optional[OrbitRelabel]],
          record_traffic: bool, faults: Optional[FaultPlan],
          check_invariants: bool, obs, resilience, trace
          ) -> Tuple[Environment, RingTopology]:
    """The run's ring: an orbit ring when nothing is attached and
    ``orbit()`` finds a period below the ring size, else the full ring
    of :func:`_fresh_topology`."""
    if _orbit_eligible(system, faults, check_invariants, obs, resilience,
                       trace):
        relabel = orbit()
        if relabel is not None:
            env = Environment()
            if record_traffic:
                system = system.with_fidelity(record_traffic=True)
            return env, OrbitRingTopology(env, system, relabel,
                                          policy_name=policy)
    return _fresh_topology(system, policy, record_traffic, faults,
                           check_invariants, obs, resilience, trace)


def _rank_breakdown(topo: Topology) -> DramBreakdown:
    """``collect_breakdown`` over every rank of the ring, each read from
    the GPU that simulated it (summed in rank order, so an orbit's
    breakdown is bit-identical to the full ring's)."""
    return collect_breakdown(topo.gpus[topo.representative(rank)]
                             for rank in range(topo.n_gpus))


def _sequential_orbit(system: SystemConfig,
                      shape: GEMMShape) -> Optional[OrbitRelabel]:
    """The Sequential run's orbit relabel, or None for the full ring.
    Every rank's GEMM is the same unchunked grid, so only the ring's
    chunk sizes can tell ranks apart; its arrival tags count chunks."""
    n = system.n_gpus
    ring_chunks = chunk_sizes(shape.output_bytes, n)
    period = orbit_period(n, lambda rank: _ring_frame(ring_chunks, rank))
    if period == n:
        return None
    return OrbitRelabel(n_chunks=n, period=period, n_wgs=n)


def _run_sequential(system: SystemConfig, shape: GEMMShape,
                    record_traffic: bool = False,
                    faults: Optional[FaultPlan] = None,
                    check_invariants: bool = False,
                    obs=None, resilience=None, trace=None):
    """GEMM on all GPUs, then ring-RS, then ring-AG; returns parts."""
    env, topo = _ring(system, "compute-priority",
                      lambda: _sequential_orbit(system, shape),
                      record_traffic, faults, check_invariants, obs,
                      resilience, trace)
    kernels = []
    for gpu in topo.gpus:
        grid = TileGrid(shape, system.gemm, n_cus=system.compute.n_cus)
        traffic = estimate_gemm_traffic(grid, system.memory,
                                        bypass_writes=False)
        kernels.append(GEMMKernel(grid, traffic))
    procs = [gpu.launch(k) for gpu, k in zip(topo.gpus, kernels)]
    env.run()
    if any(not p.fired for p in procs):
        raise RuntimeError("sequential GEMM never finished\n"
                           + env.diagnostic_dump())
    gemm_time = max(k.result.duration for k in kernels)

    rs = RingReduceScatter(topo, nbytes_total=shape.output_bytes)
    rs_time = rs.run().duration
    ag = RingAllGather(topo, nbytes_total=shape.output_bytes)
    ag_time = ag.run().duration
    if env.invariants is not None:
        env.invariants.check_all()
    return topo, gemm_time, rs_time, ag_time


def _fused_orbit(system: SystemConfig,
                 shape: GEMMShape) -> Optional[OrbitRelabel]:
    """The fused run's orbit relabel, or None for the full ring: when
    ``FusedGEMMRS``'s plan is not a flat ring of one chunk per rank, or
    no period below the ring size holds."""
    n = system.n_gpus
    tiles = output_tiles(shape, system)
    plan = ring_reduce_scatter_plan(n, max_chunks=tiles)
    if plan.n_chunks != n:
        return None
    ring_chunks = chunk_sizes(shape.output_bytes, n)

    def frame(rank: int) -> tuple:
        grid, traffic = rank_geometry(system, shape, plan, rank,
                                      system.compute.n_cus)
        return _fused_frame(grid, traffic, ring_chunks, rank)

    period = orbit_period(n, frame)
    if period == n:
        return None
    return OrbitRelabel(n_chunks=n, period=period, n_wgs=tiles)


def _run_fused(system: SystemConfig, shape: GEMMShape, config: RunConfig,
               record_traffic: bool = False,
               faults: Optional[FaultPlan] = None,
               check_invariants: bool = False,
               obs=None, resilience=None, trace=None):
    env, topo = _ring(system, config.mc_policy,
                      lambda: _fused_orbit(system, shape), record_traffic,
                      faults, check_invariants, obs, resilience, trace)
    fused = FusedGEMMRS(topo, shape,
                        calibrate_mca=(config.mc_policy == "mca"))
    fused_result = fused.run()
    ag = RingAllGather(topo, nbytes_total=shape.output_bytes)
    ag_time = ag.run().duration
    if env.invariants is not None:
        env.invariants.check_all()
    total = fused_result.duration + ag_time
    return topo, fused, total


def run_sublayer_suite(system: SystemConfig, shape: GEMMShape,
                       label: str = "",
                       configs: Optional[List[str]] = None,
                       record_traffic: bool = False,
                       faults: Optional[FaultPlan] = None,
                       check_invariants: bool = False,
                       obs_sink: Optional[Dict[str, object]] = None,
                       resilience=None,
                       trace_sink: Optional[Dict[str, object]] = None,
                       ) -> SublayerSuite:
    """Run every requested configuration on one sub-layer GEMM shape.

    ``faults`` injects a :class:`~repro.faults.FaultPlan` into every
    simulated configuration (each gets a fresh, identically-seeded
    injector); ``check_invariants`` attaches an
    :class:`~repro.faults.InvariantChecker` to every run.  Both are
    observationally transparent when the plan is empty / checks pass.

    ``obs_sink`` (a mutable mapping) opts into telemetry: each simulated
    configuration runs with a fresh
    :class:`~repro.obs.MetricsRegistry` attached, stored into the sink
    under the configuration name.  Registries are recorded per-run and
    are not cacheable, so profiled suites must bypass the sweep cache
    (see ``repro.experiments.profile``).  Recording is passive: the
    returned suite is identical with or without a sink.

    ``resilience`` (falsy, ``True``, or a
    :class:`~repro.resilience.ResiliencePolicy`) attaches a
    :class:`~repro.resilience.ResilienceRuntime` to every run.  The
    runtime stays dormant — and the suite byte-identical — until a fault
    actually manifests, at which point it recovers lost DMA completions
    and evicted Tracker regions in-run.

    ``trace_sink`` mirrors ``obs_sink`` for execution traces: each
    simulated configuration runs with a fresh decomposition-grade
    :class:`~repro.analysis.trace.TraceRecorder` (``record_dram=True``)
    attached, stored under the configuration name.  Like registries,
    recorders are per-run state — traced suites must bypass the sweep
    cache.
    """
    wanted = configs or list(KNOWN_CONFIG_NAMES)
    unknown = [name for name in wanted if name not in KNOWN_CONFIG_NAMES]
    if unknown:
        raise ValueError(
            f"unknown configuration name(s) {unknown!r}; choose from "
            f"{list(KNOWN_CONFIG_NAMES)}")

    def _registry(name: str):
        if obs_sink is None:
            return None
        from repro.obs import MetricsRegistry
        obs_sink[name] = MetricsRegistry()
        return obs_sink[name]

    def _trace(name: str):
        if trace_sink is None:
            return None
        from repro.analysis.trace import TraceRecorder
        trace_sink[name] = TraceRecorder(record_dram=True)
        return trace_sink[name]

    suite = SublayerSuite(label=label or shape.name, shape=shape,
                          system=system)

    topo, gemm_t, rs_t, ag_t = _run_sequential(system, shape, record_traffic,
                                               faults, check_invariants,
                                               obs=_registry("Sequential"),
                                               resilience=resilience,
                                               trace=_trace("Sequential"))
    suite.gemm_time, suite.rs_time, suite.ag_time = gemm_t, rs_t, ag_t
    suite.times["Sequential"] = gemm_t + rs_t + ag_t
    suite.traffic["Sequential"] = _rank_breakdown(topo)

    for name in ("T3", "T3-MCA"):
        if name not in wanted:
            continue
        topo_f, _fused, total = _run_fused(
            system, shape, config_by_name(name), record_traffic,
            faults, check_invariants, obs=_registry(name),
            resilience=resilience, trace=_trace(name))
        suite.times[name] = total
        suite.traffic[name] = _rank_breakdown(topo_f)

    if "Ideal-GEMM-RS-Overlap" in wanted:
        suite.times["Ideal-GEMM-RS-Overlap"] = max(gemm_t, rs_t) + ag_t
        suite.traffic["Ideal-GEMM-RS-Overlap"] = suite.traffic["Sequential"]
    if "Ideal-RS+NMC" in wanted:
        nmc_rs = rs_with_nmc_time(shape.output_bytes, system)
        suite.times["Ideal-RS+NMC"] = max(gemm_t, nmc_rs) + ag_t
        suite.traffic["Ideal-RS+NMC"] = suite.traffic["Sequential"]
    return suite


def run_sublayer(system: SystemConfig, sublayer: SubLayer,
                 config: str = "T3-MCA", scale: int = 1) -> SublayerSuite:
    """Public API entry: run one model sub-layer under one configuration
    (plus Sequential, which every speedup is measured against)."""
    shape = scaled_shape(sublayer.gemm, scale)
    configs = ["Sequential"] if config == "Sequential" else ["Sequential",
                                                             config]
    return run_sublayer_suite(system, shape, label=sublayer.label,
                              configs=configs)


def sublayer_cases(tp_degrees: Tuple[int, ...] = (8, 16),
                   models=None) -> List[SubLayer]:
    """The Figures 15/16/18 case list: OP/FC-2 (fwd) and FC-1/IP (bwd) of
    Mega-GPT-2 and T-NLG at TP = 8 and 16."""
    selected = models if models is not None else zoo.small_models()
    cases: List[SubLayer] = []
    for model in selected:
        for tp in tp_degrees:
            cases.extend(model.ar_sublayers(tp))
    return cases
