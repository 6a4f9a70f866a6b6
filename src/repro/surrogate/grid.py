"""Synthetic case grids for surrogate-scale sweeps.

The paper's own sweep is eight models x four sub-layers; a design-space
exploration ("which (H, SL, B, TP) deployments benefit most from T3?")
wants orders of magnitude more.  This module enumerates a hyperparameter
product grid as :class:`SubLayer` cases compatible with the normal sweep
machinery, filtered to geometries the simulator accepts (token count
above the ring-chunking floor, K divisible by TP).
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.config import table1_system
from repro.experiments.sublayer_sweep import chunkable_min_m
from repro.models.transformer import AR_SUBLAYERS, SubLayer, TransformerConfig

#: hyperparameter axes of the default grid (16 x 4 x 10 x 5 x 4 = 12800
#: raw combinations before validity filtering; every hidden size is a
#: multiple of 32 so all four sub-layers' K dimensions split at TP=32).
DEFAULT_HIDDEN = (1024, 1280, 1536, 1792, 2048, 2304, 2560, 3072, 3584,
                  4096, 4608, 5120, 5632, 6144, 7168, 8192)
DEFAULT_SEQ_LEN = (256, 512, 1024, 2048)
DEFAULT_BATCH = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32)
DEFAULT_TP = (2, 4, 8, 16, 32)


def synthetic_cases(n: Optional[int] = 10_000, seed: int = 0,
                    hidden: Sequence[int] = DEFAULT_HIDDEN,
                    seq_len: Sequence[int] = DEFAULT_SEQ_LEN,
                    batch: Sequence[int] = DEFAULT_BATCH,
                    tp: Sequence[int] = DEFAULT_TP,
                    sublayers: Optional[Sequence[str]] = None,
                    ) -> List[SubLayer]:
    """Up to ``n`` valid synthetic cases, seeded-shuffled for diversity.

    The shuffle matters: a truncated *ordered* enumeration would only
    ever see the first few hidden sizes, while a seeded shuffle spreads
    any prefix across the whole grid.  ``n=None`` returns every valid
    combination.
    """
    names = list(sublayers) if sublayers else list(AR_SUBLAYERS)
    kernel = table1_system(n_gpus=max(2, min(tp))).gemm
    cases: List[SubLayer] = []
    for h in hidden:
        for sl in seq_len:
            for b in batch:
                model = TransformerConfig(
                    name=f"Syn-H{h}-S{sl}-B{b}",
                    hidden=h, n_layers=1, seq_len=sl, batch=b)
                for degree in tp:
                    for name in names:
                        k_full = AR_SUBLAYERS[name][1] * h
                        if k_full % degree:
                            continue
                        sub = model.sublayer(name, degree)
                        if sub.gemm.m >= chunkable_min_m(sub, kernel):
                            cases.append(sub)
    random.Random(seed).shuffle(cases)
    if n is not None:
        cases = cases[:n]
    return cases
