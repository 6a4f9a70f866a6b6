"""Closed-form per-config time estimates (the surrogate's feature basis).

Every estimate here reuses the exact machinery the simulator itself is
built from — :func:`repro.experiments.sublayer_sweep.case_shape` for the
simulated geometry, :class:`~repro.gpu.wavefront.TileGrid` +
:func:`~repro.memory.cache.estimate_gemm_traffic` for the GEMM roofline,
and the ring closed forms in :mod:`repro.collectives.api` — so the
analytic score and the event simulation can only disagree about
*dynamics* (contention, overlap slack), never about geometry or traffic
volume.  Those dynamic gaps are what the per-bucket correction factors
in :mod:`repro.surrogate.model` absorb.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.collectives.api import (
    DEFAULT_LAUNCH_OVERHEAD_NS,
    ring_ag_time,
    ring_rs_time,
    rs_with_nmc_time,
)
from repro.config import SystemConfig, table1_system
from repro.experiments.common import KNOWN_CONFIG_NAMES
from repro.gpu.wavefront import GEMMShape, TileGrid
from repro.memory.cache import estimate_gemm_traffic
from repro.models.transformer import SubLayer

#: configs whose GEMM bypasses output writes to DRAM (T3 fusion paths).
_BYPASS_WRITE_CONFIGS = frozenset({"T3", "T3-MCA"})


def gemm_analytic_time(shape: GEMMShape, system: SystemConfig,
                       bypass_writes: bool = False,
                       launch_overhead_ns: float = DEFAULT_LAUNCH_OVERHEAD_NS,
                       grid: Optional[TileGrid] = None,
                       ) -> float:
    """Roofline GEMM estimate: launch + max(compute, DRAM traffic).

    Compute time uses the tile-rounded FLOP count (edge tiles compute
    full macro-tiles, exactly as :class:`~repro.gpu.gemm.GEMMKernel`
    charges them); traffic uses the same LLC reuse model the simulator's
    request generator consumes.  ``grid`` is the unfused tiling of
    ``shape`` on ``system`` when the caller has already built it.
    """
    if grid is None:
        grid = TileGrid(shape, system.gemm, n_cus=system.compute.n_cus)
    traffic = estimate_gemm_traffic(grid, system.memory, bypass_writes)
    kernel = system.gemm
    flops = 2.0 * shape.k * kernel.macro_tile_m * kernel.macro_tile_n \
        * grid.n_wgs
    compute_t = flops / system.compute.sustained_gemm_flops_per_ns
    mem_t = (traffic.total_read_bytes + traffic.total_write_bytes) \
        / system.memory.effective_bandwidth
    return launch_overhead_ns + max(compute_t, mem_t)


def analytic_times(shape: GEMMShape, system: SystemConfig,
                   configs: Optional[Sequence[str]] = None,
                   ) -> Dict[str, float]:
    """Per-config closed-form estimates for one (shape, system) case.

    Mirrors the composition rules of
    :func:`repro.experiments.common.run_sublayer_suite`:

    * ``Sequential``              = gemm + RS + AG
    * overlapped configs          = max(gemm, RS) + AG
    * ``Ideal-RS+NMC``            = max(gemm, RS-with-NMC) + AG
    """
    selected = list(configs) if configs else list(KNOWN_CONFIG_NAMES)
    payload = shape.output_bytes
    rs_a = ring_rs_time(payload, system)
    ag_a = ring_ag_time(payload, system)
    grid = TileGrid(shape, system.gemm, n_cus=system.compute.n_cus)
    gemm_cached = gemm_analytic_time(shape, system, bypass_writes=False,
                                     grid=grid)
    gemm_bypass: Optional[float] = None

    times: Dict[str, float] = {}
    for name in selected:
        if name == "Sequential":
            times[name] = gemm_cached + rs_a + ag_a
            continue
        if name in _BYPASS_WRITE_CONFIGS:
            if gemm_bypass is None:
                gemm_bypass = gemm_analytic_time(
                    shape, system, bypass_writes=True, grid=grid)
            gemm_a = gemm_bypass
        else:
            gemm_a = gemm_cached
        if name == "Ideal-RS+NMC":
            times[name] = max(gemm_a, rs_with_nmc_time(payload, system)) + ag_a
        else:
            # T3, T3-MCA, Ideal-GEMM-RS-Overlap: RS hidden under the GEMM.
            times[name] = max(gemm_a, rs_a) + ag_a
    return times


def case_analytic_times(sub: SubLayer, scale: int,
                        system: Optional[SystemConfig] = None,
                        configs: Optional[Sequence[str]] = None,
                        ) -> Dict[str, float]:
    """Analytic estimates for a sweep case (TP-default system, simulated
    geometry) — the exact shape :func:`simulate_case` would run."""
    from repro.experiments.sublayer_sweep import case_shape

    resolved = system or table1_system(n_gpus=sub.tp)
    shape = case_shape(sub, scale, resolved)
    return analytic_times(shape, resolved, configs)
