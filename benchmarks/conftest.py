"""Shared benchmark plumbing.

Every benchmark regenerates one paper table/figure in fast mode (token-
scaled shapes with the paper's compute:communication balance) and prints
the rendered rows, so ``pytest benchmarks/ --benchmark-only -s`` shows the
reproduction next to its timing.  Run with ``REPRO_FULL=1`` for
paper-scale shapes.

As in ``tests/conftest.py``, the session's sweep cache is a throwaway
directory, set before ``repro`` builds its first :class:`SweepCache`, so
a run never reads or writes the developer's ``~/.cache/repro-t3``.
"""

import os
import tempfile

import pytest

_CACHE_DIR = tempfile.mkdtemp(prefix="repro-t3-bench-cache-")
os.environ["REPRO_T3_CACHE_DIR"] = _CACHE_DIR


@pytest.fixture(scope="session")
def fast_mode() -> bool:
    return os.environ.get("REPRO_FULL", "") != "1"


@pytest.fixture()
def run_once(benchmark):
    """pedantic single-shot wrapper: these are experiments, not microbenches."""

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1, warmup_rounds=0)

    return _run
