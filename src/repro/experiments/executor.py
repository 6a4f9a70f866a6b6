"""Sweep execution layer: parallel case running + a persistent cache.

Every figure of the reproduction funnels through the sub-layer sweep, and
every sweep case — one ``(sub-layer, system, scale, configs)`` tuple — is
an independent, deterministic simulation.  This module exploits both
properties:

* :func:`run_cases` fans a case list out over a
  ``concurrent.futures.ProcessPoolExecutor`` (``jobs`` workers), so a
  sweep is bounded by its slowest case rather than the sum of all cases;
* :class:`SweepCache` is a content-addressed on-disk store (JSON files
  under ``~/.cache/repro-t3`` by default, overridable via ``--cache-dir``
  or ``$REPRO_T3_CACHE_DIR``) keyed by a stable hash of the case, the
  full :class:`~repro.config.SystemConfig`, the token scale, and a
  fingerprint of the ``repro`` sources — so results survive the process
  and stale entries self-invalidate when the simulator changes.

Workers only simulate; the parent process performs all cache reads and
writes, which keeps the hit/miss/store counters exact and avoids
concurrent-writer races.  Writes are atomic (temp file + ``os.replace``)
so an interrupted sweep never leaves a truncated entry behind.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, TimeoutError as \
    FutureTimeoutError
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import SystemConfig
from repro.experiments.common import SublayerSuite
from repro.faults import FaultPlan
from repro.models.transformer import SubLayer


class SweepExecutionWarning(UserWarning):
    """A sweep worker failed; execution fell back to in-process serial."""

#: environment override for the default cache location.
CACHE_DIR_ENV = "REPRO_T3_CACHE_DIR"

_CODE_FINGERPRINT: Optional[str] = None


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_T3_CACHE_DIR`` if set, else ``~/.cache/repro-t3``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return pathlib.Path(env).expanduser()
    return pathlib.Path.home() / ".cache" / "repro-t3"


def code_fingerprint() -> str:
    """Hex digest over the contents of every ``repro`` source file.

    Any edit to the simulator changes the fingerprint and therefore every
    cache key, so stale on-disk entries can never be returned after a
    source change.  Computed once per process.
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        package_root = pathlib.Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(path.read_bytes())
        _CODE_FINGERPRINT = digest.hexdigest()
    return _CODE_FINGERPRINT


@dataclasses.dataclass(frozen=True)
class CaseSpec:
    """One fully-resolved sweep case (the unit of caching and dispatch).

    ``system`` is the final simulated system — any TP-default resolution
    or full-mode fidelity coarsening has already been applied by the
    caller — so a spec is self-contained: equal specs simulate equal
    worlds and may share one cache entry.
    """

    sub: SubLayer
    scale: int
    system: SystemConfig
    configs: Tuple[str, ...] = ()
    #: optional fault plan injected into every simulated configuration;
    #: part of the cache key (a faulted run must never alias a clean one).
    faults: Optional[FaultPlan] = None
    #: attach an InvariantChecker to every run (observationally
    #: transparent, but keyed separately so violations re-check).
    check_invariants: bool = False

    def __post_init__(self) -> None:
        # The cache key hashes the system's *content*; that is only sound
        # while SystemConfig stays a frozen (hence hashable, by-value)
        # dataclass.  Guard against a future un-freezing regression.
        params = getattr(type(self.system), "__dataclass_params__", None)
        if params is None or not params.frozen:
            raise TypeError(
                "CaseSpec requires a frozen SystemConfig; a mutable system "
                "could change between keying and simulation")
        hash(self.system)  # raises if any field became unhashable

    def to_payload(self) -> Dict[str, object]:
        """JSON-ready description (also what gets hashed into the key)."""
        return {
            "sub": self.sub.to_dict(),
            "scale": self.scale,
            "system": self.system.to_dict(),
            "configs": list(self.configs),
            "faults": self.faults.to_dict() if self.faults else None,
            "check_invariants": self.check_invariants,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "CaseSpec":
        faults = payload.get("faults")
        return cls(
            sub=SubLayer.from_dict(payload["sub"]),
            scale=payload["scale"],
            system=SystemConfig.from_dict(payload["system"]),
            configs=tuple(payload["configs"]),
            faults=FaultPlan.from_dict(faults) if faults else None,
            check_invariants=payload.get("check_invariants", False),
        )

    def fingerprint(self) -> str:
        """Stable content hash of the case *and* the simulator version."""
        body = json.dumps(self.to_payload(), sort_keys=True)
        digest = hashlib.sha256()
        digest.update(code_fingerprint().encode())
        digest.update(body.encode("utf-8"))
        return digest.hexdigest()


@dataclasses.dataclass
class CacheStats:
    """Counters for one runner invocation (reset via ``reset``)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    simulated: int = 0

    def reset(self) -> None:
        self.hits = self.misses = self.stores = self.simulated = 0

    def snapshot(self) -> "CacheStats":
        return dataclasses.replace(self)

    def delta(self, earlier: "CacheStats") -> "CacheStats":
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            stores=self.stores - earlier.stores,
            simulated=self.simulated - earlier.simulated,
        )

    def render(self) -> str:
        return (f"{self.hits} hit{'s' if self.hits != 1 else ''}, "
                f"{self.misses} miss{'es' if self.misses != 1 else ''}, "
                f"{self.simulated} simulated")


class SweepCache:
    """Content-addressed persistent store of :class:`SublayerSuite`.

    One JSON file per case under ``directory``, named by the case
    fingerprint.  A disabled cache (``enabled=False``) still counts
    misses/simulations so the runner report stays meaningful.
    """

    def __init__(self, directory: Optional[pathlib.Path] = None,
                 enabled: bool = True) -> None:
        self.directory = pathlib.Path(directory) if directory \
            else default_cache_dir()
        self.enabled = enabled
        self.stats = CacheStats()

    def _path(self, key: str) -> pathlib.Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> Optional[SublayerSuite]:
        """The cached suite for ``key``, or None (counted as a miss)."""
        if self.enabled:
            path = self._path(key)
            try:
                data = json.loads(path.read_text())
                suite = SublayerSuite.from_dict(data)
            except FileNotFoundError:
                pass
            except (json.JSONDecodeError, KeyError, TypeError):
                # Corrupt / half-written legacy entry: drop it and re-run.
                path.unlink(missing_ok=True)
            else:
                self.stats.hits += 1
                return suite
        self.stats.misses += 1
        return None

    def put(self, key: str, suite: SublayerSuite) -> None:
        if not self.enabled:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(suite.to_dict(), sort_keys=True))
        os.replace(tmp, path)
        self.stats.stores += 1

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.json"):
                path.unlink(missing_ok=True)
                removed += 1
        return removed

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*.json"))


def _simulate_payload(payload: Dict[str, object]) -> Dict[str, object]:
    """Worker entry point: rebuild the case, simulate, return a dict.

    Takes/returns plain dicts so the pool pickles only JSON-shaped data —
    the exact representation the disk cache stores, which guarantees the
    parallel path cannot diverge from a cache round-trip.
    """
    from repro.experiments import sublayer_sweep

    spec = CaseSpec.from_payload(payload)
    suite = sublayer_sweep.simulate_case(
        spec.sub, spec.scale, spec.system, list(spec.configs) or None,
        faults=spec.faults, check_invariants=spec.check_invariants)
    return suite.to_dict()


def run_cases(specs: Sequence[CaseSpec],
              jobs: int = 1,
              cache: Optional[SweepCache] = None,
              progress: Optional[Callable[[str], None]] = None,
              timeout_s: Optional[float] = None,
              max_retries: int = 1,
              retry_backoff_s: float = 0.5,
              _sleep: Callable[[float], None] = time.sleep,
              ) -> List[SublayerSuite]:
    """Run (or recall) every case; returns suites in ``specs`` order.

    Cached cases are served from ``cache``; the remainder are simulated —
    in-process when ``jobs <= 1`` or there is a single miss, else across a
    ``ProcessPoolExecutor`` with ``jobs`` workers.  Results are written
    back to the cache by the parent process only.

    ``timeout_s`` is a **shared deadline for the whole parallel batch**,
    not a per-case allowance: results are collected until
    ``timeout_s`` seconds after submission, after which every
    still-outstanding case is treated as failed.  (Collecting each future
    with its own full ``timeout_s`` would let a sweep of N stuck cases
    wait N x ``timeout_s``.)

    The parallel path is crash-tolerant: a worker that dies (OOM-kill,
    segfault, ``BrokenProcessPool``), raises, or times out does not abort
    the sweep — the affected cases are retried in-process and serial,
    with a :class:`SweepExecutionWarning`, up to ``max_retries`` rounds
    with exponential backoff (``retry_backoff_s * 2**(round-1)`` between
    rounds).  The default (one round, like the original single retry)
    means only a case that *also* fails in-process propagates its error
    (a genuine simulation bug rather than a host problem).  Results
    already computed and cached by healthy workers are kept either way.
    """
    if max_retries < 0:
        raise ValueError("max_retries cannot be negative")
    results: List[Optional[SublayerSuite]] = [None] * len(specs)
    pending: List[Tuple[int, CaseSpec, str]] = []
    for index, spec in enumerate(specs):
        key = spec.fingerprint()
        cached = cache.get(key) if cache is not None else None
        if cached is not None:
            results[index] = cached
            continue
        pending.append((index, spec, key))

    if progress and specs:
        progress(f"sweep: {len(specs) - len(pending)} cached, "
                 f"{len(pending)} to simulate "
                 f"(jobs={max(1, jobs)})")

    def finish(index: int, spec: CaseSpec, key: str,
               suite: SublayerSuite, elapsed: float) -> None:
        results[index] = suite
        if cache is not None:
            cache.stats.simulated += 1
            cache.put(key, suite)
        if progress:
            progress(f"  case {spec.sub.label} done in {elapsed:.1f}s")

    def run_serial(cases: Sequence[Tuple[int, CaseSpec, str]]) -> None:
        for index, spec, key in cases:
            started = time.perf_counter()
            suite = SublayerSuite.from_dict(
                _simulate_payload(spec.to_payload()))
            finish(index, spec, key, suite, time.perf_counter() - started)

    simulate_started = time.perf_counter()
    if len(pending) <= 1 or jobs <= 1:
        run_serial(pending)
    else:
        failed = _run_parallel(pending, min(jobs, len(pending)), finish,
                               timeout_s)
        if failed:
            cases, first_error = failed
            warnings.warn(
                f"{len(cases)} sweep case(s) failed in worker processes "
                f"({type(first_error).__name__}: {first_error}); retrying "
                f"in-process serially (up to {max_retries} round(s))",
                SweepExecutionWarning, stacklevel=2)
            if progress:
                progress(f"  retrying {len(cases)} failed case(s) "
                         "in-process")
            _retry_serial(cases, run_serial, first_error,
                          max_retries=max_retries,
                          backoff_s=retry_backoff_s, sleep=_sleep,
                          progress=progress)
    if progress and pending:
        elapsed = time.perf_counter() - simulate_started
        if elapsed > 0:
            progress(f"sweep throughput: {len(pending) / elapsed:.3f} "
                     f"cases/s ({len(pending)} simulated in {elapsed:.1f}s)")
    return [suite for suite in results if suite is not None]


def _retry_serial(cases: Sequence[Tuple[int, CaseSpec, str]],
                  run_serial: Callable[[Sequence[Tuple[int, CaseSpec, str]]],
                                       None],
                  first_error: Optional[BaseException],
                  max_retries: int,
                  backoff_s: float,
                  sleep: Callable[[float], None],
                  progress: Optional[Callable[[str], None]] = None) -> None:
    """In-process serial retry rounds with exponential backoff.

    Every case gets attempted each round (one failing case must not
    starve the rest of their retries); a case that fails in all
    ``max_retries`` rounds propagates the first error seen for it.  With
    ``max_retries == 0`` the parallel-path error propagates immediately.
    """
    if max_retries == 0:
        raise first_error if first_error is not None else \
            RuntimeError("sweep cases failed with no recorded error")
    remaining = list(cases)
    for attempt in range(1, max_retries + 1):
        if attempt > 1:
            delay = backoff_s * (2 ** (attempt - 2))
            if delay > 0:
                if progress:
                    progress(f"  retry round {attempt}/{max_retries} in "
                             f"{delay:.1f}s")
                sleep(delay)
        still_failed: List[Tuple[int, CaseSpec, str]] = []
        error: Optional[BaseException] = None
        for case in remaining:
            try:
                run_serial([case])
            except Exception as exc:
                still_failed.append(case)
                error = error or exc
        if not still_failed:
            return
        remaining = still_failed
        if attempt == max_retries:
            raise error


def _run_parallel(pending: Sequence[Tuple[int, CaseSpec, str]],
                  workers: int,
                  finish: Callable[[int, CaseSpec, str, SublayerSuite, float],
                                   None],
                  timeout_s: Optional[float],
                  ) -> Optional[Tuple[List[Tuple[int, CaseSpec, str]],
                                      BaseException]]:
    """Fan ``pending`` over a process pool; collect per-case failures.

    ``timeout_s`` bounds the **whole batch**: one deadline is fixed at
    submission and every future is collected against the time remaining
    to it, so N stuck workers cost ``timeout_s`` total rather than
    ``N x timeout_s`` (the futures are collected sequentially, and a
    fresh per-future timeout would restart the clock on each).

    Returns ``None`` when every case succeeded, else ``(failed_cases,
    first_error)``.  A ``BrokenProcessPool`` poisons every outstanding
    future, so all of them land in ``failed_cases`` and are retried by the
    caller; the pool is shut down without waiting so a wedged worker
    cannot hang the sweep.
    """
    failed: List[Tuple[int, CaseSpec, str]] = []
    first_error: Optional[BaseException] = None
    pool = ProcessPoolExecutor(max_workers=workers)
    healthy = True
    try:
        started = time.perf_counter()
        deadline = None if timeout_s is None \
            else time.monotonic() + timeout_s
        futures = [(index, spec, key,
                    pool.submit(_simulate_payload, spec.to_payload()))
                   for index, spec, key in pending]
        for index, spec, key, future in futures:
            try:
                remaining = None if deadline is None \
                    else max(0.0, deadline - time.monotonic())
                suite = SublayerSuite.from_dict(future.result(remaining))
            except FutureTimeoutError as exc:
                future.cancel()
                healthy = False
                failed.append((index, spec, key))
                first_error = first_error or exc
            except Exception as exc:
                failed.append((index, spec, key))
                first_error = first_error or exc
            else:
                finish(index, spec, key, suite, time.perf_counter() - started)
    finally:
        # After a timeout a worker may be wedged mid-simulation; waiting
        # on it would hang the parent, so orphan it instead.
        pool.shutdown(wait=healthy, cancel_futures=True)
    if failed:
        return failed, first_error
    return None
