"""Rotation orbits: one representative rank per orbit reproduces the ring.

A fault-free, uninstrumented sub-layer suite simulates its ring on the
``p`` representatives of an :class:`OrbitRingTopology` when rank ``r + p``
runs rank ``r``'s program shifted by ``p`` chunks.  Two claims are
checked here:

* the computed period is right: rank ``r + p``'s tile grid, stage
  traffic, chunk WG counts and ring chunk sizes equal rank ``r``'s
  shifted by ``p`` chunks (re-derived from the geometry objects, not from
  the frames the production code compares), and no smaller divisor of
  the ring size has that property;
* the orbit reproduces the full ring *rank by rank*: per-GPU DRAM
  counters, per-rank GEMM durations, fused terminal times and baseline
  collective end times.  A suite digest alone cannot catch a wrong
  period — the suite keeps only maxima and averages — so forcing
  ``p = 1`` on a ``p = 2`` case must fail this comparison.

The reference is the full ring built by ``_fresh_topology``; both sides
run the same driver code below.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives.baseline import RingAllGather, RingReduceScatter
from repro.collectives.plan import OrbitRelabel, ring_reduce_scatter_plan
from repro.collectives.schedule import chunk_sizes
from repro.config import table1_system
from repro.experiments import common, sublayer_sweep
from repro.gpu.gemm import GEMMKernel
from repro.gpu.wavefront import GEMMShape, TileGrid
from repro.interconnect.topology import OrbitRingTopology
from repro.memory.cache import estimate_gemm_traffic
from repro.models import zoo
from repro.models.transformer import TransformerConfig
from repro.sim import Environment
from repro.t3.configs import config_by_name
from repro.t3.fusion import FusedGEMMRS, output_tiles, rank_geometry

# -- the period ------------------------------------------------------------------


def _shift_wg(grid: TileGrid, wg_id: int, shift: int) -> int:
    """WG ``wg_id`` moved ``shift`` chunks on, at the same position."""
    chunk = grid.chunk_of_wg(wg_id)
    start = grid.chunk_ranges[chunk][0]
    return grid.chunk_ranges[(chunk + shift) % grid.n_chunks][0] \
        + wg_id - start


def _repeats(geometry, ring_chunks, shift: int) -> bool:
    """True when every rank ``r + shift`` equals rank ``r`` shifted by
    ``shift`` chunks, field by field."""
    n = len(geometry)
    for rank, (grid, traffic) in enumerate(geometry):
        other, other_traffic = geometry[(rank + shift) % n]

        def moved(chunk: int) -> int:
            return (chunk + shift) % n

        counts = [count for _start, count in grid.chunk_ranges]
        other_counts = [count for _start, count in other.chunk_ranges]
        if any(other_counts[moved(c)] != counts[c] for c in range(n)):
            return False
        if any(ring_chunks[moved(c)] != ring_chunks[c] for c in range(n)):
            return False
        if len(other.stages) != len(grid.stages):
            return False
        for stage, other_stage in zip(grid.stages, other.stages):
            if other_stage.n_wgs != stage.n_wgs:
                return False
            if other_stage.wg_ids != tuple(
                    _shift_wg(grid, wg, shift) for wg in stage.wg_ids):
                return False
            if list(other_stage.chunk_bytes.items()) != [
                    (moved(c), nbytes)
                    for c, nbytes in stage.chunk_bytes.items()]:
                return False
        if (other_traffic.stage_read_bytes, other_traffic.stage_write_bytes) \
                != (traffic.stage_read_bytes, traffic.stage_write_bytes):
            return False
    return True


def _fused_period(system, shape) -> int:
    relabel = common._fused_orbit(system, shape)
    return system.n_gpus if relabel is None else relabel.period


def _check_period(system, shape) -> int:
    n = system.n_gpus
    plan = ring_reduce_scatter_plan(n, max_chunks=output_tiles(shape, system))
    assert plan.n_chunks == n
    geometry = [rank_geometry(system, shape, plan, rank,
                              system.compute.n_cus) for rank in range(n)]
    ring_chunks = chunk_sizes(shape.output_bytes, n)
    period = _fused_period(system, shape)
    assert _repeats(geometry, ring_chunks, period)
    for smaller in range(1, period):
        if n % smaller == 0:
            assert not _repeats(geometry, ring_chunks, smaller), smaller
    if period < n:
        relabel = OrbitRelabel(n_chunks=n, period=period,
                               n_wgs=geometry[0][0].n_wgs)
        grid = geometry[0][0]
        assert [relabel.wg(wg) for wg in range(grid.n_wgs)] == [
            _shift_wg(grid, wg, period) for wg in range(grid.n_wgs)]
        assert [relabel.chunk(c) for c in range(n)] == [
            (c + period) % n for c in range(n)]
    return period


@st.composite
def rings(draw):
    n = draw(st.sampled_from([2, 3, 4, 6, 8, 16]))
    system = table1_system(n_gpus=n)
    system = system.replace(compute=dataclasses.replace(
        system.compute, n_cus=draw(st.integers(4, 120))))
    gemm = system.gemm
    if draw(st.booleans()):
        # Equal chunks of which ``share`` tile a group of rows: chunk
        # starts cycle through ``share`` column offsets, where orbits of
        # more than one rank live.
        share = draw(st.sampled_from(
            [d for d in range(1, n + 1) if n % d == 0]))
        tiles_n = share * draw(st.integers(1, 12))
        tiles_m = n // share * draw(st.integers(1, 4))
    else:
        tiles_n = draw(st.integers(1, 48))
        tiles_m = draw(st.integers(-(-n // tiles_n), 24))
    shape = GEMMShape(
        m=tiles_m * gemm.macro_tile_m - draw(st.integers(0, 64)),
        n=tiles_n * gemm.macro_tile_n - draw(st.integers(0, 64)),
        k=draw(st.integers(64, 8192)))
    return system, shape


@settings(max_examples=60, deadline=None)
@given(ring=rings())
def test_period_is_the_smallest_divisor_that_repeats(ring):
    system, shape = ring
    _check_period(system, shape)


@pytest.mark.parametrize("sub", sublayer_sweep.default_cases(),
                         ids=lambda sub: sub.label)
def test_paper_grid_periods(sub):
    """Mega-GPT-2 runs one representative; T-NLG at TP16 cuts 17-WG
    chunks out of 34-tile rows, so chunks alternate half-rows and two
    representatives are needed."""
    system = table1_system(n_gpus=sub.tp)
    shape = sublayer_sweep.case_shape(sub, sublayer_sweep.FAST_SCALE, system)
    expected = 2 if sub.model.name == "T-NLG" and sub.tp == 16 else 1
    assert _check_period(system, shape) == expected
    assert common._sequential_orbit(system, shape).period == 1


# -- rank-by-rank equality with the full ring --------------------------------------


def _per_rank(topo, values):
    return [values[topo.representative(rank)]
            for rank in range(topo.n_gpus)]


def _counters(topo):
    return _per_rank(topo, [gpu.mc.counters.as_dict() for gpu in topo.gpus])


def _sequential_ranks(env, topo, system, shape):
    kernels = []
    for gpu in topo.gpus:
        grid = TileGrid(shape, system.gemm, n_cus=system.compute.n_cus)
        kernels.append(GEMMKernel(grid, estimate_gemm_traffic(
            grid, system.memory, bypass_writes=False)))
        gpu.launch(kernels[-1])
    env.run()
    rs = RingReduceScatter(topo, shape.output_bytes).run()
    ag = RingAllGather(topo, shape.output_bytes).run()
    return {
        "gemm": _per_rank(topo, [(k.result.start, k.result.end,
                                  k.result.stage_ends) for k in kernels]),
        "rs_end": dict(sorted(rs.per_rank_end.items())),
        "ag_end": dict(sorted(ag.per_rank_end.items())),
        "counters": _counters(topo),
        "now": env.now,
    }


def _orbit_ring(system, policy, relabel):
    env = Environment()
    return env, OrbitRingTopology(env, system, relabel, policy_name=policy)


def _fused_ranks(env, topo, shape, config):
    fused = FusedGEMMRS(topo, shape, calibrate_mca=config.mc_policy == "mca")
    result = fused.run()
    ag = RingAllGather(topo, shape.output_bytes).run()
    return {
        "gemm": [(r.start, r.end, r.stage_ends, r.read_bytes, r.write_bytes)
                 for r in result.gemm_results],
        "terminal": dict(sorted(result.per_rank_terminal.items())),
        "rs_done": result.rs_done,
        "ag_end": dict(sorted(ag.per_rank_end.items())),
        "counters": _counters(topo),
        "now": env.now,
    }


def _synthetic_tp4():
    model = TransformerConfig(name="Syn-H6144-S1024-B6", hidden=6144,
                              n_layers=1, seq_len=1024, batch=6)
    return model.sublayer("IP", 4)


#: case -> (sub-layer, expected fused period).
CASES = {
    "mega-op-tp8": (zoo.megatron_gpt2().sublayer("OP", 8), 1),
    "tnlg-ip-tp16": (zoo.t_nlg().sublayer("IP", 16), 2),
    "syn-ip-tp4": (_synthetic_tp4(), 2),
}


def _case(name):
    sub, period = CASES[name]
    system = table1_system(n_gpus=sub.tp)
    shape = sublayer_sweep.case_shape(sub, sublayer_sweep.FAST_SCALE, system)
    return system, shape, period


@pytest.mark.parametrize("name", sorted(CASES))
def test_sequential_orbit_matches_full_ring_per_rank(name):
    system, shape, _period = _case(name)
    relabel = common._sequential_orbit(system, shape)
    env, topo = _orbit_ring(system, "compute-priority", relabel)
    assert len(topo.gpus) == relabel.period < system.n_gpus
    orbit = _sequential_ranks(env, topo, system, shape)
    env_ref, topo_ref = common._fresh_topology(system, "compute-priority")
    assert orbit == _sequential_ranks(env_ref, topo_ref, system, shape)


@pytest.mark.parametrize("config", ["T3", "T3-MCA"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_fused_orbit_matches_full_ring_per_rank(name, config):
    system, shape, period = _case(name)
    run_config = config_by_name(config)
    relabel = common._fused_orbit(system, shape)
    assert relabel.period == period
    env, topo = _orbit_ring(system, run_config.mc_policy, relabel)
    assert len(topo.gpus) == period
    orbit = _fused_ranks(env, topo, shape, run_config)
    env_ref, topo_ref = common._fresh_topology(system, run_config.mc_policy)
    assert orbit == _fused_ranks(env_ref, topo_ref, shape, run_config)


def test_a_period_too_small_is_caught_per_rank():
    """Forcing one representative on T-NLG/IP/TP16 (true period 2)
    replicates rank 0's terminal times onto the odd ranks, which finish
    at other times on the full ring."""
    system, shape, _period = _case("tnlg-ip-tp16")
    forced = dataclasses.replace(common._fused_orbit(system, shape),
                                 period=1)
    run_config = config_by_name("T3")
    env, topo = _orbit_ring(system, "compute-priority", forced)
    orbit = _fused_ranks(env, topo, shape, run_config)
    env_ref, topo_ref = common._fresh_topology(system, "compute-priority")
    full = _fused_ranks(env_ref, topo_ref, shape, run_config)
    assert orbit["terminal"] != full["terminal"]
    assert len(set(full["terminal"].values())) == 2


def test_only_plain_static_runs_take_the_orbit():
    system, shape, _period = _case("mega-op-tp8")
    assert common._orbit_eligible(system, None, False, None, None, None)
    topo, *_parts = common._run_sequential(system, shape)
    assert isinstance(topo, OrbitRingTopology) and len(topo.gpus) == 1
    topo, _fused, _total = common._run_fused(system, shape,
                                             config_by_name("T3-MCA"))
    assert isinstance(topo, OrbitRingTopology) and len(topo.gpus) == 1
    for attached in ({"faults": common.FaultPlan()},
                     {"check_invariants": True}, {"obs": object()},
                     {"trace": object()}, {"resilience": True}):
        kwargs = {"faults": None, "check_invariants": False, "obs": None,
                  "trace": None, "resilience": None, **attached}
        assert not common._orbit_eligible(system, **kwargs)
    adaptive = system.with_policy("adaptive")
    assert not common._orbit_eligible(adaptive, None, False, None, None,
                                      None)
    topo, _fused, _total = common._run_fused(
        system, shape, config_by_name("T3"), check_invariants=True)
    assert type(topo) is not OrbitRingTopology
    assert len(topo.gpus) == system.n_gpus
