"""The traced run's per-layer ledger, recorded from outside the program.

Two instruments, both installed by the benchmark and removed afterwards:

* ``cProfile`` over exactly the timed case calls.  Each profiled function's
  self time is charged to the ``repro`` module that defines it; builtins,
  stdlib and generated code (dataclass ``__init__``) are charged to the
  ``repro`` module that called them, split by the caller's share of their
  self time.  Module times sum to layer (``repro.<layer>`` package) times.
* Spans: wrappers around the public entry points that sum their inclusive
  wall time.  The ``Environment.run`` span also reads the
  engine's own ``events_fired`` counter.

Nothing inside ``src/`` is edited; the profiler inflates the self time of
call-heavy code, so shares here are for attribution, and end-to-end
numbers come from untraced runs.
"""

from __future__ import annotations

import cProfile
import functools
import pathlib
import pstats
import sys
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.collectives.baseline import RingReduceScatter
from repro.experiments.executor import SweepCache
from repro.gpu.wavefront import TileGrid
from repro.memory.controller import MemoryController
from repro.memory.request import MemRequest
from repro.sim.engine import Environment
from repro.surrogate import features
from repro.t3.fusion import FusedGEMMRS

#: the ``src/repro`` packages the ledger reports, one bucket each.
LAYERS = ("sim", "memory", "gpu", "t3", "collectives", "interconnect",
          "policy", "obs", "trace", "analysis", "faults", "resilience",
          "experiments", "surrogate", "models")

#: modules whose self time is reported on its own (the hot paths).
HOT_MODULES = ("sim.engine", "sim.primitives", "sim.machines",
               "memory.dram", "memory.controller", "memory.request",
               "memory.arbiter", "memory.cache", "gpu.wavefront", "gpu.dma",
               "t3.tracker", "collectives.baseline", "obs.registry",
               "surrogate.features")

#: bucket for time outside ``repro``: the benchmark's own code.
HARNESS = "harness"

REPRO_ROOT = pathlib.Path(sys.modules["repro"].__file__).resolve().parent
BENCH_DIR = pathlib.Path(__file__).resolve().parent


def _code_key(function) -> Tuple[str, int, str]:
    code = function.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


#: exact work counts read from the profile: metric -> counted function.
CALL_COUNTS = {
    "sim.schedule_calls": Environment.schedule,
    "memory.requests": MemRequest.__post_init__,
    "memory.bulk_submits": MemoryController.submit_bulk,
    "gpu.tilegrids": TileGrid.__init__,
    "surrogate.analytic_calls": features.analytic_times,
}


def module_of(filename: str) -> Optional[str]:
    """``"sim.engine"`` for ``.../src/repro/sim/engine.py``; ``None`` for
    code outside the package (builtins, stdlib, generated code)."""
    if not filename.endswith(".py"):
        return None
    try:
        rel = pathlib.Path(filename).resolve().relative_to(REPRO_ROOT)
    except ValueError:
        return None
    parts = list(rel.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts) or "repro"


class Spans:
    """Inclusive wall time around the public entry points."""

    def __init__(self, clock: Callable[[], float]):
        self.clock = clock
        self.seconds: Dict[str, float] = defaultdict(float)
        self.events_fired = 0
        self._undo: List[Callable[[], None]] = []

    def _timed(self, name: str, original):
        clock = self.clock

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                self.seconds[name] += clock() - start
        return wrapper

    def _env_run(self, original):
        timed = self._timed("sim.env_run_s", original)

        @functools.wraps(original)
        def wrapper(env, *args, **kwargs):
            before = env.events_fired
            try:
                return timed(env, *args, **kwargs)
            finally:
                self.events_fired += env.events_fired - before
        return wrapper

    def _patch_method(self, cls, attr: str, wrapper) -> None:
        """Shadow ``cls.attr`` (possibly inherited) with ``wrapper``."""
        if attr in cls.__dict__:
            original = cls.__dict__[attr]
            self._undo.append(lambda: setattr(cls, attr, original))
        else:
            self._undo.append(lambda: delattr(cls, attr))
        setattr(cls, attr, wrapper)

    def _patch_function(self, original, wrapper) -> None:
        """Rebind every ``repro`` module global that names ``original``
        (callers import it by name, so the defining module is not enough).
        """
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)
                    self._undo.append(
                        functools.partial(setattr, module, name, original))

    def install(self) -> None:
        self._patch_method(Environment, "run",
                           self._env_run(Environment.run))
        for name, cls, attr in (
                ("t3.fused_run_s", FusedGEMMRS, "run"),
                ("collectives.ring_rs_run_s", RingReduceScatter, "run"),
                ("experiments.cache_get_s", SweepCache, "get"),
                ("experiments.cache_put_s", SweepCache, "put")):
            self._patch_method(cls, attr,
                               self._timed(name, getattr(cls, attr)))
        original = features.analytic_times
        self._patch_function(original,
                             self._timed("surrogate.analytic_s", original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def _self_time_by_module(stats: Dict) -> Dict[str, float]:
    """Self time per owning module, builtins charged to their callers."""
    owners: Dict[Tuple, Optional[str]] = {}

    def owner(func) -> Optional[str]:
        if func not in owners:
            owners[func] = module_of(func[0])
            if owners[func] is None and func[0].startswith(str(BENCH_DIR)):
                owners[func] = HARNESS
        return owners[func]

    memo: Dict[Tuple, Dict[str, float]] = {}

    def shares(func, visiting: frozenset) -> Dict[str, float]:
        mine = owner(func)
        if mine is not None:
            return {mine: 1.0}
        if func in memo:
            return memo[func]
        callers = stats[func][4] if func in stats else {}
        # Split by the time spent under each caller; by call count when
        # the timer resolved none of it.
        column = 2 if sum(entry[2] for entry in callers.values()) > 0 else 1
        total = sum(entry[column] for entry in callers.values())
        if total <= 0:
            memo[func] = {HARNESS: 1.0}
            return memo[func]
        result: Dict[str, float] = defaultdict(float)
        for caller, entry in callers.items():
            weight = entry[column] / total
            upstream = ({HARNESS: 1.0} if caller in visiting
                        else shares(caller, visiting | {func}))
            for name, share in upstream.items():
                result[name] += weight * share
        memo[func] = dict(result)
        return memo[func]

    by_module: Dict[str, float] = defaultdict(float)
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        if tt <= 0:
            continue
        for name, share in shares(func, frozenset()).items():
            by_module[name] += tt * share
    return by_module


class Ledger:
    """cProfile + spans for one traced pass; ``metrics()`` afterwards."""

    def __init__(self, clock: Callable[[], float]):
        self.profiler = cProfile.Profile()
        self.spans = Spans(clock)
        #: total profiled self time, set by ``metrics()``.
        self.profiled_s = 0.0

    def __enter__(self) -> "Ledger":
        self.spans.install()
        return self

    def __exit__(self, *exc) -> None:
        self.spans.uninstall()

    def metrics(self) -> Dict[str, float]:
        stats = pstats.Stats(self.profiler).stats
        by_module = _self_time_by_module(stats)
        self_by_layer: Dict[str, float] = defaultdict(float)
        for module, seconds in by_module.items():
            self_by_layer[module.split(".")[0]] += seconds
        calls_by_layer: Dict[str, int] = defaultdict(int)
        for func, (_cc, nc, _tt, _ct, _callers) in stats.items():
            module = module_of(func[0])
            if module is not None:
                calls_by_layer[module.split(".")[0]] += nc
        metrics: Dict[str, float] = {}
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = self_by_layer.get(layer, 0.0)
            metrics[f"{layer}.calls"] = calls_by_layer.get(layer, 0)
        for module in HOT_MODULES:
            metrics[f"{module}.self_s"] = by_module.get(module, 0.0)
        self.profiled_s = sum(by_module.values())
        for name, function in CALL_COUNTS.items():
            entry = stats.get(_code_key(function))
            metrics[name] = entry[1] if entry else 0
        metrics["sim.events_fired"] = self.spans.events_fired
        for name in ("sim.env_run_s", "t3.fused_run_s",
                     "collectives.ring_rs_run_s", "experiments.cache_get_s",
                     "experiments.cache_put_s", "surrogate.analytic_s"):
            metrics[name] = self.spans.seconds.get(name, 0.0)
        return metrics

    def layer_shares(self, metrics: Dict[str, float]) -> Dict[str, float]:
        """Each layer's share of the profiled self time."""
        if self.profiled_s <= 0:
            return {}
        return {layer: metrics[f"{layer}.self_s"] / self.profiled_s
                for layer in LAYERS}
