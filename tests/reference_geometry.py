"""Per-workgroup reference models: the oracles for GEMM stage geometry.

:meth:`repro.gpu.wavefront.TileGrid._build_stages` walks each chunk's
contiguous id range as a few pieces per stage, and
:func:`repro.memory.cache.estimate_gemm_traffic` keeps per-column visit
counts in a list.  Both claim to equal the straightforward models kept
here, which enumerate one workgroup (and one column) at a time:

* :func:`reference_stages` batches ``grid.wg_sequence()`` into stages of
  ``grid.wgs_per_stage`` WGs and accumulates every field WG by WG;
* :func:`reference_gemm_traffic` replays the LLC reuse model with a
  dict of column visits and the re-read product formed per column;
* :func:`reference_chunk_of_wg` scans the chunk ranges linearly.

Tests compare the production results with these field by field and the
traffic floats with ``==``.
"""

from typing import Dict, List, Tuple

from repro.config import MemoryConfig
from repro.gpu.wavefront import StageInfo, TileGrid
from repro.memory.cache import GEMMTraffic, input_budget


def reference_stages(grid: TileGrid) -> List[StageInfo]:
    stages: List[StageInfo] = []
    seen_rows: set = set()
    batch: List[Tuple[int, int, int, int]] = []

    def flush(index: int) -> None:
        chunk_bytes: Dict[int, int] = {}
        new_rows = 0
        cols = set()
        wg_ids = []
        for wg_id, tile_row, tile_col, chunk_id in batch:
            wg_ids.append(wg_id)
            chunk_bytes[chunk_id] = (
                chunk_bytes.get(chunk_id, 0) + grid.wg_tile_bytes
            )
            cols.add(tile_col)
            if tile_row not in seen_rows:
                seen_rows.add(tile_row)
                new_rows += 1
        stages.append(StageInfo(
            index=index,
            wg_ids=tuple(wg_ids),
            chunk_bytes=chunk_bytes,
            new_tile_rows=new_rows,
            touched_cols=len(cols),
        ))

    index = 0
    for item in grid.wg_sequence():
        batch.append(item)
        if len(batch) == grid.wgs_per_stage:
            flush(index)
            batch = []
            index += 1
    if batch:
        flush(index)
    return stages


def reference_gemm_traffic(grid: TileGrid, memory: MemoryConfig,
                           bypass_writes: bool) -> GEMMTraffic:
    shape = grid.shape
    kernel = grid.kernel
    a_row_bytes = kernel.macro_tile_m * shape.k * shape.element_bytes
    b_col_bytes = kernel.macro_tile_n * shape.k * shape.element_bytes
    a_total = shape.a_bytes
    b_total = shape.b_bytes

    budget = input_budget(memory, bypass_writes)
    a_stage_typical = (grid.stages[0].new_tile_rows * a_row_bytes
                       if grid.stages else 0)
    working_set = b_total + a_stage_typical
    hit = (min(1.0, (budget / working_set)) ** memory.llc_hit_exponent
           if working_set else 1.0)
    miss = 1.0 - hit
    window = memory.llc_reuse_window_stages

    col_visits: Dict[int, int] = {}
    a_bytes_emitted = 0.0
    b_first_emitted = 0.0
    reads: List[float] = []
    writes: List[float] = []

    for stage in grid.stages:
        a_read = stage.new_tile_rows * a_row_bytes
        a_read = min(a_read, max(0.0, a_total - a_bytes_emitted))
        a_bytes_emitted += a_read

        b_read = 0.0
        for col_index in range(stage.touched_cols):
            col = col_index if stage.touched_cols == grid.tiles_n else (
                (stage.index * stage.touched_cols + col_index) % grid.tiles_n
            )
            visits = col_visits.get(col, 0)
            if visits == 0:
                chunk = min(b_col_bytes, max(0.0, b_total - b_first_emitted))
                b_read += chunk
                b_first_emitted += chunk
            elif visits <= window:
                b_read += b_col_bytes * miss
            col_visits[col] = visits + 1

        reads.append(a_read + b_read)
        writes.append(float(stage.output_bytes))

    return GEMMTraffic(
        stage_read_bytes=tuple(reads),
        stage_write_bytes=tuple(writes),
        input_budget_bytes=budget,
        hit_probability=hit,
    )


def reference_chunk_of_wg(grid: TileGrid, wg_id: int) -> int:
    for chunk_id, (start, count) in enumerate(grid.chunk_ranges):
        if start <= wg_id < start + count:
            return chunk_id
    raise ValueError(f"wg id {wg_id} out of range")
