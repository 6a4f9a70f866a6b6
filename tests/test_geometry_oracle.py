"""Piecewise stage geometry and list-based traffic equal the per-WG oracles.

``TileGrid`` builds its stages from contiguous chunk pieces and
``estimate_gemm_traffic`` counts column visits in a list; the per-WG,
dict-based models in :mod:`tests.reference_geometry` are the reference.
Everything is compared exactly: stage fields, ``wg_ids`` tuples,
``chunk_bytes`` items in insertion order, and the traffic floats with
``==``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import GEMMKernelConfig, MemoryConfig
from repro.gpu.wavefront import GEMMShape, TileGrid
from repro.memory.cache import estimate_gemm_traffic
from tests.reference_geometry import (
    reference_chunk_of_wg,
    reference_gemm_traffic,
    reference_stages,
)


@st.composite
def grids(draw):
    kernel = GEMMKernelConfig(
        macro_tile_m=draw(st.sampled_from([16, 32, 64, 128])),
        macro_tile_n=draw(st.sampled_from([16, 32, 64, 128])),
        wgs_per_cu=draw(st.integers(1, 3)))
    shape = GEMMShape(m=draw(st.integers(1, 2048)),
                      n=draw(st.integers(1, 2048)),
                      k=draw(st.integers(1, 4096)),
                      element_bytes=draw(st.sampled_from([1, 2, 4])))
    tiles = (-(-shape.m // kernel.macro_tile_m)
             * -(-shape.n // kernel.macro_tile_n))
    n_chunks = draw(st.integers(1, min(tiles, 40)))
    production_order = draw(st.one_of(
        st.none(), st.permutations(range(n_chunks))))
    return TileGrid(shape, kernel, n_cus=draw(st.integers(1, 130)),
                    n_chunks=n_chunks,
                    chunk_offset=draw(st.integers(0, n_chunks - 1)),
                    stagger=draw(st.booleans()),
                    production_order=production_order)


def _fields(stages):
    return [(stage.index, stage.wg_ids, list(stage.chunk_bytes.items()),
             stage.new_tile_rows, stage.touched_cols) for stage in stages]


@settings(max_examples=300, deadline=None)
@given(grid=grids())
def test_stages_match_per_wg_oracle(grid):
    assert _fields(grid.stages) == _fields(reference_stages(grid))
    assert len(grid.stages) == grid.n_stages


@settings(max_examples=200, deadline=None)
@given(grid=grids(),
       window=st.integers(0, 12),
       exponent=st.sampled_from([0.5, 0.75, 1.0, 1.5, 2.0]),
       llc_mib=st.sampled_from([1, 4, 16, 64]),
       bypass_writes=st.booleans())
def test_traffic_matches_dict_oracle(grid, window, exponent, llc_mib,
                                     bypass_writes):
    memory = MemoryConfig(llc_bytes=llc_mib * 1024 * 1024,
                          llc_hit_exponent=exponent,
                          llc_reuse_window_stages=window)
    got = estimate_gemm_traffic(grid, memory, bypass_writes)
    want = reference_gemm_traffic(grid, memory, bypass_writes)
    assert got.stage_read_bytes == want.stage_read_bytes
    assert got.stage_write_bytes == want.stage_write_bytes
    assert got.input_budget_bytes == want.input_budget_bytes
    assert got.hit_probability == want.hit_probability


@settings(max_examples=100, deadline=None)
@given(grid=grids())
def test_chunk_of_wg_matches_linear_scan(grid):
    for wg_id in range(grid.n_wgs):
        assert grid.chunk_of_wg(wg_id) == reference_chunk_of_wg(grid, wg_id)
    for wg_id in (-1, grid.n_wgs, grid.n_wgs + 7):
        with pytest.raises(ValueError):
            grid.chunk_of_wg(wg_id)
