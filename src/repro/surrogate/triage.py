"""Surrogate-triaged sweeps: score everything, simulate the frontier.

The flow (``run_sweep(triage="surrogate")`` / ``runner surrogate``):

1. **Train**: simulate anchor cases (smallest / median / largest GEMM
   per (sub-layer, TP) bucket, bounded by ``max_train``) through the
   normal cached executor, then harvest the persistent sweep cache for
   additional records that agree with the anchor fit (cached payloads
   cannot prove they ran fault-free, so disagreeing ones are dropped).
2. **Fit** a :class:`CalibratedSurrogate` on anchors + kept harvest.
3. **Score** every case with corrected analytic estimates.  The analytic
   estimate is computed once per distinct (shape, system) in the call,
   so scoring costs what the distinct geometry costs, not the case
   count: about 80 µs per case on the 10k-case synthetic grid (2-vCPU
   x86-64 host), against seconds per simulated case.
4. **Select** the predicted speedup frontier (top ``frontier`` cases by
   predicted T3-MCA gain) plus a seeded random **audit** slice of the
   rest, and full-simulate only those.
5. **Report** predicted-vs-simulated error on the audit slice, so every
   triaged sweep carries its own accuracy measurement.

The triage never hides its shortcut: :class:`TriageResult` records which
cases were simulated and why, the simulated fraction, and the audit
error statistics that ``make smoke-surrogate`` (run in CI) asserts
against.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Optional, Sequence

from repro.experiments.common import SublayerSuite
from repro.models.transformer import SubLayer
from repro.surrogate.features import analytic_times
from repro.surrogate.harvest import records_from_suites
from repro.surrogate.model import CalibratedSurrogate, TrainingRecord

#: config whose predicted speedup over Sequential ranks the frontier.
DEFAULT_FRONTIER_CONFIG = "T3-MCA"


@dataclasses.dataclass
class ScoredCase:
    """One case's surrogate verdict."""

    index: int
    label: str
    sublayer: str
    tp: int
    analytic: Dict[str, float]
    predicted: Dict[str, float]
    predicted_speedup: float
    #: "" (surrogate only) | "train" | "frontier" | "audit"
    simulated_as: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index, "label": self.label,
            "sublayer": self.sublayer, "tp": self.tp,
            "predicted": dict(self.predicted),
            "predicted_speedup": self.predicted_speedup,
            "simulated_as": self.simulated_as,
        }


@dataclasses.dataclass
class TriageResult:
    """Everything a triaged sweep produced (and what it cost)."""

    scored: List[ScoredCase]
    suites: Dict[int, SublayerSuite]        # case index -> simulated suite
    surrogate: CalibratedSurrogate
    audit_stats: Dict[str, float]           # evaluate() over the audit slice
    train_stats: Dict[str, float]           # evaluate() over training records
    frontier_config: str = DEFAULT_FRONTIER_CONFIG

    @property
    def n_scored(self) -> int:
        return len(self.scored)

    @property
    def n_simulated(self) -> int:
        return len(self.suites)

    @property
    def simulated_fraction(self) -> float:
        return self.n_simulated / self.n_scored if self.scored else 0.0

    def frontier(self) -> List[ScoredCase]:
        return [c for c in self.scored if c.simulated_as == "frontier"]

    def to_dict(self) -> Dict[str, object]:
        return {
            "n_scored": self.n_scored,
            "n_simulated": self.n_simulated,
            "simulated_fraction": self.simulated_fraction,
            "frontier_config": self.frontier_config,
            "audit": dict(self.audit_stats),
            "train": dict(self.train_stats),
            "surrogate": self.surrogate.to_dict(),
            "frontier": [c.to_dict() for c in self.frontier()],
        }

    def render(self, top: int = 10) -> str:
        """Terminal report for ``runner surrogate``."""
        lines = [
            f"surrogate triage: {self.n_scored} cases scored, "
            f"{self.n_simulated} simulated "
            f"({100.0 * self.simulated_fraction:.2f}%)",
            f"  model: {self.surrogate.n_buckets} fine buckets from "
            f"{self.surrogate.n_records} training records",
            f"  train fit : mae={self.train_stats['mae_rel']:.4f} "
            f"geomean={self.train_stats['geomean_rel']:.4f} "
            f"(n={self.train_stats['n']})",
            f"  audit err : mae={self.audit_stats['mae_rel']:.4f} "
            f"geomean={self.audit_stats['geomean_rel']:.4f} "
            f"max={self.audit_stats['max_rel']:.4f} "
            f"(n={self.audit_stats['n']})",
            f"  predicted {self.frontier_config} speedup frontier:",
        ]
        ranked = sorted(self.scored, key=lambda c: -c.predicted_speedup)
        for case in ranked[:top]:
            mark = f" [{case.simulated_as}]" if case.simulated_as else ""
            line = (f"    {case.label:<28} predicted "
                    f"{case.predicted_speedup:.3f}x{mark}")
            suite = self.suites.get(case.index)
            if suite is not None:
                seq = suite.times.get("Sequential")
                cfg = suite.times.get(self.frontier_config)
                if seq and cfg:
                    line += f" simulated {seq / cfg:.3f}x"
            lines.append(line)
        return "\n".join(lines)


def _sublayer_of(sub: SubLayer) -> str:
    return sub.name


def _audit_size(n_remaining: int, audit_fraction: float,
                min_audit: int) -> int:
    if n_remaining <= 0:
        return 0
    return min(n_remaining, max(min_audit, round(audit_fraction
                                                 * n_remaining)))


def triaged_sweep(cases: Sequence[SubLayer],
                  fast: bool = True,
                  configs: Optional[Sequence[str]] = None,
                  system_for_tp=None,
                  surrogate: Optional[CalibratedSurrogate] = None,
                  frontier: int = 32,
                  audit_fraction: float = 0.005,
                  min_audit: int = 8,
                  max_train: int = 64,
                  harvest_tolerance: float = 0.25,
                  seed: int = 0,
                  jobs: Optional[int] = None,
                  progress=None,
                  frontier_config: str = DEFAULT_FRONTIER_CONFIG,
                  ) -> TriageResult:
    """Score ``cases`` analytically; simulate frontier + audit only.

    ``surrogate`` may be a pre-fitted model (then no training cases are
    simulated); otherwise one is fitted on up to ``max_train`` anchor
    simulations (three sizes per (sub-layer, TP) bucket of ``cases``)
    plus any persistent-cache harvest records that agree with the
    anchor fit within ``harvest_tolerance`` relative error.  All
    simulations go through the normal cached executor, so repeated
    triages of the same grid only pay for newly selected cases.
    """
    # Imported late: sublayer_sweep lazily imports this module from
    # run_sweep, and a top-level import back would be cyclic.
    from repro.experiments.executor import CaseSpec, run_cases
    from repro.experiments.sublayer_sweep import (
        _resolve_spec,
        case_shape,
        disk_cache,
    )
    from repro.surrogate.harvest import harvest_cache

    if not cases:
        raise ValueError("triaged_sweep needs a non-empty case list")
    rng = random.Random(seed)

    # One resolved spec per TP: every case of that TP shares its system,
    # and only the cases that get simulated are given a spec of their own.
    by_tp: Dict[int, CaseSpec] = {}
    for sub in cases:
        if sub.tp not in by_tp:
            system = system_for_tp(sub.tp) if system_for_tp else None
            by_tp[sub.tp] = _resolve_spec(sub, fast, system, configs)

    def specs(indices: Sequence[int]) -> List[CaseSpec]:
        return [dataclasses.replace(by_tp[cases[i].tp], sub=cases[i])
                for i in indices]

    # -- 1. training set --------------------------------------------------------
    train_indices: List[int] = []
    train_suites: List[SublayerSuite] = []
    records: List[TrainingRecord] = []
    if surrogate is None:
        # Anchor simulations first: the affine fit needs size *spread*
        # inside each (sub-layer, TP) bucket of the grid at hand, so take
        # the smallest, largest and median GEMM per bucket (largest
        # buckets first if ``max_train`` binds).  Anchors are always
        # freshly simulated (through the cache), never trusted from the
        # harvest — cached payloads do not record whether they ran under
        # fault injection, so the harvest alone could poison the fit.
        by_bucket: Dict[tuple, List[int]] = {}
        for index, sub in enumerate(cases):
            by_bucket.setdefault((_sublayer_of(sub), sub.tp),
                                 []).append(index)
        for bucket, members in sorted(
                by_bucket.items(), key=lambda kv: -len(kv[1])):
            members.sort(key=lambda i: cases[i].gemm.m * cases[i].gemm.n)
            picks = {members[0], members[-1], members[len(members) // 2]}
            for index in sorted(picks):
                if len(train_indices) >= max_train:
                    break
                train_indices.append(index)
        train_suites = run_cases(specs(train_indices),
                                 jobs=jobs or 1, cache=disk_cache(),
                                 progress=progress)
        records = records_from_suites(train_suites)
        # The persistent-cache harvest densifies the fit — but only
        # records consistent with the anchor-only model are admitted.
        # The cache may hold faulted (fault-sweep) or foreign-system
        # suites that the payload cannot distinguish; healthy runs land
        # within the tolerance band, a straggler/stall run does not.
        anchor_model = CalibratedSurrogate.fit(records)
        for rec in harvest_cache(disk_cache()):
            predicted = anchor_model.predict(rec.config, rec.sublayer,
                                             rec.tp, rec.analytic_ns)
            if abs(predicted - rec.simulated_ns) <= \
                    harvest_tolerance * rec.simulated_ns:
                records.append(rec)
        surrogate = CalibratedSurrogate.fit(records)
    train_stats = surrogate.evaluate(records)

    # -- 2. score every case ----------------------------------------------------
    # Many cases share a geometry; score each distinct one once per call.
    # The TP names the case's system (one per TP above), so the key never
    # hashes a SystemConfig.
    distinct: Dict[tuple, Dict[str, float]] = {}
    scored: List[ScoredCase] = []
    for index, sub in enumerate(cases):
        spec = by_tp[sub.tp]
        shape = case_shape(sub, spec.scale, spec.system)
        key = (sub.tp, shape.m, shape.n, shape.k, shape.element_bytes)
        analytic = distinct.get(key)
        if analytic is None:
            analytic = distinct[key] = analytic_times(shape, spec.system,
                                                      configs)
        name = _sublayer_of(sub)
        predicted = {
            config: surrogate.predict(config, name, sub.tp, estimate)
            for config, estimate in analytic.items()
        }
        seq = predicted.get("Sequential")
        fast_cfg = predicted.get(frontier_config)
        speedup = (seq / fast_cfg) if seq and fast_cfg else 0.0
        scored.append(ScoredCase(
            index=index, label=sub.label, sublayer=name, tp=sub.tp,
            analytic=dict(analytic), predicted=predicted,
            predicted_speedup=speedup))

    # -- 3. frontier + audit selection ------------------------------------------
    train_set = set(train_indices)
    ranked = sorted(scored, key=lambda c: -c.predicted_speedup)
    frontier_set = {c.index for c in ranked[:max(0, frontier)]}
    audit_pool = [c.index for c in scored
                  if c.index not in frontier_set and c.index not in train_set]
    audit_set = set(rng.sample(
        audit_pool, _audit_size(len(audit_pool), audit_fraction, min_audit)))

    for case in scored:
        if case.index in train_set:
            case.simulated_as = "train"
        elif case.index in frontier_set:
            case.simulated_as = "frontier"
        elif case.index in audit_set:
            case.simulated_as = "audit"

    # -- 4. simulate the selection ----------------------------------------------
    to_run = sorted((frontier_set | audit_set) - train_set)
    run_suites = run_cases(specs(to_run), jobs=jobs or 1,
                           cache=disk_cache(), progress=progress) \
        if to_run else []

    suites: Dict[int, SublayerSuite] = {}
    for index, suite in zip(train_indices, train_suites):
        suites[index] = suite
    for index, suite in zip(to_run, run_suites):
        suites[index] = suite

    # -- 5. audit error ---------------------------------------------------------
    audit_records = records_from_suites(
        [suites[i] for i in sorted(audit_set)])
    audit_stats = surrogate.evaluate(audit_records)

    return TriageResult(scored=scored, suites=suites, surrogate=surrogate,
                        audit_stats=audit_stats, train_stats=train_stats,
                        frontier_config=frontier_config)
