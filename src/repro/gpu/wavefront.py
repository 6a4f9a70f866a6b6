"""GEMM geometry: shapes, output tiling, workgroup stages, WF tiles.

This module is pure bookkeeping (no simulation).  It renders the paper's
execution abstraction:

* A GEMM ``C[M,N] = A[M,K] @ B[K,N]`` is tiled into ``macro_tile_m x
  macro_tile_n`` output tiles, one per workgroup (WG); each WG's
  wavefronts (WFs) produce disjoint, complete *wf tiles* (Section 4.2.1).
* WGs execute in *stages*: the set of WGs the CUs can hold concurrently
  (Section 2.5).  Tensor-parallel slicing divides K only, so the grid,
  stage count and output size are TP-invariant (Figure 5).
* For fusion with a ring collective the output is chunked into ``n_chunks``
  contiguous row blocks and each device enumerates WGs chunk-by-chunk in
  its ring production order (staggered scheduling, Section 4.4).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro import units
from repro.config import GEMMKernelConfig


@dataclass(frozen=True)
class GEMMShape:
    """Logical GEMM problem ``C[m,n] = A[m,k] @ B[k,n]``."""

    m: int
    n: int
    k: int
    element_bytes: int = units.FP16_BYTES
    name: str = ""

    def __post_init__(self) -> None:
        if min(self.m, self.n, self.k) < 1:
            raise ValueError(f"GEMM dims must be positive: {self}")
        if self.element_bytes < 1:
            raise ValueError("element_bytes must be positive")

    @property
    def flops(self) -> float:
        """Multiply–accumulate counted as 2 FLOPs."""
        return 2.0 * self.m * self.n * self.k

    @property
    def a_bytes(self) -> int:
        return self.m * self.k * self.element_bytes

    @property
    def b_bytes(self) -> int:
        return self.k * self.n * self.element_bytes

    @property
    def output_bytes(self) -> int:
        return self.m * self.n * self.element_bytes

    def to_dict(self) -> Dict[str, object]:
        return {"m": self.m, "n": self.n, "k": self.k,
                "element_bytes": self.element_bytes, "name": self.name}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "GEMMShape":
        return cls(**data)

    def tp_sliced(self, tp: int) -> "GEMMShape":
        """Slice the dot-product (K) dimension ``tp`` ways (Figure 5).

        Output size is unchanged; only per-WG compute shrinks.
        """
        if tp < 1:
            raise ValueError("tp degree must be >= 1")
        if tp > self.k:
            raise ValueError(f"cannot slice K={self.k} {tp} ways")
        new_k = max(1, self.k // tp)
        suffix = f"{self.name}/tp{tp}" if self.name else f"tp{tp}"
        return GEMMShape(self.m, self.n, new_k, self.element_bytes, suffix)


@dataclass(frozen=True)
class WavefrontTile:
    """One wavefront's contiguous slice of a WG's output tile."""

    wg_id: int
    wf_id: int
    nbytes: int
    chunk_id: int

    def tracker_index(self, n_entries: int) -> int:
        """Tracker set index: the WG id's LSBs (Section 4.2.1)."""
        return self.wg_id % n_entries

    def tracker_tag(self, n_entries: int) -> Tuple[int, int]:
        """Tracker tag: (wg_msb, wf_id)."""
        return (self.wg_id // n_entries, self.wf_id)


@dataclass(frozen=True)
class StageInfo:
    """One execution stage: the WGs co-resident on the CUs."""

    index: int
    wg_ids: Tuple[int, ...]
    #: output bytes this stage produces, split per ring chunk.
    chunk_bytes: Dict[int, int] = field(hash=False)
    #: tile rows first touched in this stage (drives A-read traffic).
    new_tile_rows: int = 0
    #: distinct output-tile columns covered (drives B-read traffic).
    touched_cols: int = 0

    @property
    def n_wgs(self) -> int:
        return len(self.wg_ids)

    @property
    def output_bytes(self) -> int:
        return sum(self.chunk_bytes.values())


def _residue_spans(start: int, end: int,
                   modulus: int) -> List[Tuple[int, int]]:
    """Half-open spans of ``{i % modulus for i in range(start, end)}``."""
    if end - start >= modulus:
        return [(0, modulus)]
    lo, hi = start % modulus, (end - 1) % modulus + 1
    if lo < hi:
        return [(lo, hi)]
    return [(lo, modulus), (0, hi)]


def _union_length(spans: List[Tuple[int, int]]) -> int:
    """Total length covered by half-open ``spans``."""
    covered = 0
    reach = 0
    for lo, hi in sorted(spans):
        if hi > reach:
            covered += hi - max(lo, reach)
            reach = hi
    return covered


def split_evenly(total: int, parts: int) -> List[int]:
    """Split ``total`` into ``parts`` contiguous near-equal counts."""
    if parts < 1:
        raise ValueError("parts must be >= 1")
    if total < parts:
        raise ValueError(f"cannot split {total} items into {parts} non-empty parts")
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


class TileGrid:
    """Output tiling + staged, chunk-ordered WG enumeration for one device.

    Parameters
    ----------
    shape:
        the (possibly TP-sliced) GEMM problem.
    kernel:
        macro-tile / WF geometry of the BLAS kernel.
    n_cus:
        compute units available; a stage holds ``kernel.wgs_per_cu * n_cus``
        workgroups.
    n_chunks:
        ring chunking of the output (1 = no fusion).
    chunk_offset:
        this device's rank in the ring; WGs are enumerated chunk-by-chunk
        starting at chunk ``(rank+1) mod n_chunks`` and ending with the
        device's own chunk — the paper's staggered schedule.
    stagger:
        set False to disable staggering (ablation): every device then
        produces chunk 0 first.
    production_order:
        explicit chunk production order (a permutation of
        ``range(n_chunks)``), normally taken from a
        :class:`~repro.collectives.plan.CollectivePlan`; when omitted the
        grid derives the flat-ring staggered order from ``chunk_offset``.
    """

    def __init__(self, shape: GEMMShape, kernel: GEMMKernelConfig,
                 n_cus: int, n_chunks: int = 1, chunk_offset: int = 0,
                 stagger: bool = True,
                 production_order: Optional[List[int]] = None):
        if n_cus < 1:
            raise ValueError("need at least one CU")
        if n_chunks < 1:
            raise ValueError("n_chunks must be >= 1")
        self.shape = shape
        self.kernel = kernel
        self.n_cus = n_cus
        self.n_chunks = n_chunks
        self.chunk_offset = chunk_offset if stagger else 0
        self.stagger = stagger
        if production_order is not None:
            order = list(production_order)
            if sorted(order) != list(range(n_chunks)):
                raise ValueError(
                    f"production_order {order} is not a permutation of "
                    f"range({n_chunks})")
            self._production_order: Optional[List[int]] = order
        else:
            self._production_order = None

        self.tiles_m = math.ceil(shape.m / kernel.macro_tile_m)
        self.tiles_n = math.ceil(shape.n / kernel.macro_tile_n)
        self.n_wgs = self.tiles_m * self.tiles_n
        if self.n_wgs < n_chunks:
            raise ValueError(
                f"output has {self.n_wgs} workgroup tiles; cannot chunk "
                f"{n_chunks} ways — shrink the chunk count or the tile"
            )
        self.wgs_per_stage = kernel.wgs_per_stage(n_cus)
        self.n_stages = math.ceil(self.n_wgs / self.wgs_per_stage)
        self.wg_tile_bytes = (
            kernel.macro_tile_m * kernel.macro_tile_n * shape.element_bytes
        )
        self.wf_tile_bytes = self.wg_tile_bytes // kernel.wfs_per_wg

        #: chunk -> (first canonical wg id, wg count); contiguous in the
        #: row-major WG order, so chunks are contiguous address ranges.
        counts = split_evenly(self.n_wgs, n_chunks)
        self.chunk_ranges: List[Tuple[int, int]] = []
        start = 0
        for count in counts:
            self.chunk_ranges.append((start, count))
            start += count
        self._chunk_starts = [start for start, _count in self.chunk_ranges]

        self._stages: List[StageInfo] = self._build_stages()

    # -- chunk helpers ---------------------------------------------------

    def chunk_of_wg(self, wg_id: int) -> int:
        if not 0 <= wg_id < self.n_wgs:
            raise ValueError(f"wg id {wg_id} out of range")
        return bisect_right(self._chunk_starts, wg_id) - 1

    def chunk_wgs(self, chunk_id: int) -> List[int]:
        start, count = self.chunk_ranges[chunk_id]
        return list(range(start, start + count))

    def chunk_bytes_total(self, chunk_id: int) -> int:
        _start, count = self.chunk_ranges[chunk_id]
        return count * self.wg_tile_bytes

    def chunk_order(self) -> List[int]:
        """Chunks in this device's production order (Section 4.4)."""
        if self._production_order is not None:
            return list(self._production_order)
        if not self.stagger or self.n_chunks == 1:
            return list(range(self.n_chunks))
        # Import at call time: the plan module imports ``split_evenly``
        # from here at module scope.
        from repro.collectives.plan import ring_production_order
        return ring_production_order(self.n_chunks, self.chunk_offset)

    # -- WG enumeration ----------------------------------------------------

    def wg_sequence(self) -> Iterator[Tuple[int, int, int, int]]:
        """Yield ``(wg_id, tile_row, tile_col, chunk_id)`` in device order.

        ``wg_id`` is the canonical row-major id (shared across devices so
        Tracker tags agree); the *order* of enumeration is chunk-staggered.
        """
        for chunk_id in self.chunk_order():
            start, count = self.chunk_ranges[chunk_id]
            for wg_id in range(start, start + count):
                tile_row, tile_col = divmod(wg_id, self.tiles_n)
                yield wg_id, tile_row, tile_col, chunk_id

    def wf_tiles(self, wg_id: int, chunk_id: int) -> List[WavefrontTile]:
        return [
            WavefrontTile(wg_id, wf_id, self.wf_tile_bytes, chunk_id)
            for wf_id in range(self.kernel.wfs_per_wg)
        ]

    # -- stages ------------------------------------------------------------

    def _build_stages(self) -> List[StageInfo]:
        """Cut the production-ordered WG sequence into stages.

        Each chunk is a contiguous id range, so a stage is a handful of
        contiguous *pieces* (a stage boundary or a chunk change ends a
        piece) and every field is computed per piece: ids, bytes, the
        piece's column residues and its row span.
        """
        tiles_n = self.tiles_n
        per_stage = self.wgs_per_stage
        stages: List[StageInfo] = []
        seen_rows: set[int] = set()
        wg_ids: List[int] = []
        chunk_bytes: Dict[int, int] = {}
        col_spans: List[Tuple[int, int]] = []
        new_rows = 0

        for chunk_id in self.chunk_order():
            start, count = self.chunk_ranges[chunk_id]
            stop = start + count
            while start < stop:
                take = min(stop - start, per_stage - len(wg_ids))
                end = start + take
                wg_ids.extend(range(start, end))
                chunk_bytes[chunk_id] = (
                    chunk_bytes.get(chunk_id, 0) + take * self.wg_tile_bytes
                )
                col_spans.extend(_residue_spans(start, end, tiles_n))
                known = len(seen_rows)
                seen_rows.update(range(start // tiles_n,
                                       (end - 1) // tiles_n + 1))
                new_rows += len(seen_rows) - known
                start = end
                if len(wg_ids) == per_stage:
                    stages.append(StageInfo(
                        index=len(stages), wg_ids=tuple(wg_ids),
                        chunk_bytes=chunk_bytes, new_tile_rows=new_rows,
                        touched_cols=_union_length(col_spans)))
                    wg_ids, chunk_bytes, col_spans, new_rows = [], {}, [], 0
        if wg_ids:
            stages.append(StageInfo(
                index=len(stages), wg_ids=tuple(wg_ids),
                chunk_bytes=chunk_bytes, new_tile_rows=new_rows,
                touched_cols=_union_length(col_spans)))
        return stages

    @property
    def stages(self) -> List[StageInfo]:
        return self._stages

    def stage_for_chunk_completion(self, chunk_id: int) -> int:
        """Index of the stage whose end completes ``chunk_id``."""
        last = -1
        for stage in self._stages:
            if chunk_id in stage.chunk_bytes:
                last = stage.index
        if last < 0:
            raise ValueError(f"chunk {chunk_id} never produced")
        return last

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TileGrid {self.shape.m}x{self.shape.n} tiles="
            f"{self.tiles_m}x{self.tiles_n} stages={self.n_stages} "
            f"chunks={self.n_chunks}>"
        )
