"""Analytic LLC (L2) residency model for GEMM input traffic.

The simulator does not replay per-cacheline accesses; instead this model
computes, per GEMM stage, how many bytes must come from DRAM:

* **A (activations)** is streamed: each tile row is read from DRAM once,
  when first touched.
* **B (weights)** is revisited by every stage that covers its columns.
  Revisits hit in the LLC with probability
  ``min(1, budget / working_set) ** llc_hit_exponent``, and only the first
  ``llc_reuse_window_stages`` revisits of a column can generate DRAM
  re-reads (beyond that, kernel-level blocking/prefetch is assumed to
  capture the reuse).
* The **budget** is the LLC share available to inputs.  In the baseline
  the GEMM's output writes are cached and evict inputs
  (``llc_input_fraction_cached_writes`` of the LLC remains); with T3 the
  output is uncached/bypassed for NMC, freeing the whole LLC
  (``llc_input_fraction_bypassed_writes``).  This is the mechanism behind
  the paper's 1.56x geomean GEMM-read reduction (Section 6.2).

Everything is deterministic and cheap, so experiments can sweep shapes
without running the event simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List

from repro.config import MemoryConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gpu.wavefront import TileGrid


@dataclass(frozen=True)
class GEMMTraffic:
    """Per-stage DRAM traffic for one GEMM execution."""

    stage_read_bytes: tuple
    stage_write_bytes: tuple
    input_budget_bytes: float
    hit_probability: float

    @property
    def total_read_bytes(self) -> float:
        return sum(self.stage_read_bytes)

    @property
    def total_write_bytes(self) -> float:
        return sum(self.stage_write_bytes)

    @property
    def n_stages(self) -> int:
        return len(self.stage_read_bytes)


def input_budget(memory: MemoryConfig, bypass_writes: bool) -> float:
    """LLC bytes available to GEMM inputs under the write policy."""
    fraction = (
        memory.llc_input_fraction_bypassed_writes
        if bypass_writes
        else memory.llc_input_fraction_cached_writes
    )
    return memory.llc_bytes * fraction


def estimate_gemm_traffic(grid: "TileGrid", memory: MemoryConfig,
                          bypass_writes: bool) -> GEMMTraffic:
    """DRAM read/write bytes per stage for ``grid``'s GEMM.

    ``bypass_writes`` selects the T3 behaviour (uncached output for NMC).
    """
    shape = grid.shape
    kernel = grid.kernel
    a_row_bytes = kernel.macro_tile_m * shape.k * shape.element_bytes
    b_col_bytes = kernel.macro_tile_n * shape.k * shape.element_bytes
    # Cap at the true matrix sizes (edge tiles are smaller).
    a_total = shape.a_bytes
    b_total = shape.b_bytes

    budget = input_budget(memory, bypass_writes)
    # Working set a stage competes for: the whole B panel plus one stage's
    # strip of A.
    a_stage_typical = grid.stages[0].new_tile_rows * a_row_bytes if grid.stages else 0
    working_set = b_total + a_stage_typical
    hit = min(1.0, (budget / working_set)) ** memory.llc_hit_exponent if working_set else 1.0
    miss = 1.0 - hit
    window = memory.llc_reuse_window_stages

    tiles_n = grid.tiles_n
    col_visits = [0] * tiles_n
    reread = b_col_bytes * miss
    a_bytes_emitted = 0.0
    b_first_emitted = 0.0
    reads: List[float] = []
    writes: List[float] = []

    for stage in grid.stages:
        # --- A: compulsory, streamed once.
        a_read = stage.new_tile_rows * a_row_bytes
        a_read = min(a_read, max(0.0, a_total - a_bytes_emitted))
        a_bytes_emitted += a_read

        # --- B: compulsory on first touch, probabilistic re-read after.
        # Stage coverage is contiguous in columns for row-major order; we
        # only need visit counts, not identities, when every stage covers
        # all columns.  When coverage is partial we treat the touched
        # columns as rotating, which is what row-major enumeration
        # produces.  Bytes are summed column by column, in column order.
        touched = stage.touched_cols
        if touched == tiles_n:
            cols = range(tiles_n)
        else:
            first = stage.index * touched
            cols = [(first + offset) % tiles_n for offset in range(touched)]
        b_read = 0.0
        for col in cols:
            visits = col_visits[col]
            if visits == 0:
                chunk = min(b_col_bytes, max(0.0, b_total - b_first_emitted))
                b_read += chunk
                b_first_emitted += chunk
            elif visits <= window:
                b_read += reread
            col_visits[col] = visits + 1

        reads.append(a_read + b_read)
        writes.append(float(stage.output_bytes))

    return GEMMTraffic(
        stage_read_bytes=tuple(reads),
        stage_write_bytes=tuple(writes),
        input_budget_bytes=budget,
        hit_probability=hit,
    )
