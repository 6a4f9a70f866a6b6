"""Tests for the cached sub-layer sweep and figure result dataclasses."""

import pytest

from repro.config import table1_system
from repro.experiments import sublayer_sweep
from repro.experiments.figure19 import Figure19Result, Figure19Row
from repro.experiments.figure20 import Figure20Result, Figure20Row
from repro.experiments.figure15 import Figure15Row
from repro.models import zoo


# ------------------------------------------------------------ ideal bound

def test_ideal_rs_nmc_bounds_t3_on_every_fast_row():
    """T3 beats Sequential, and Ideal-RS+NMC (contention-free overlap
    with the NMC reduce-scatter T3 itself uses) bounds T3 and T3-MCA on
    every row of the fast Figure 16 sweep.  Ideal-GEMM-RS-Overlap is no
    such bound: it overlaps the slower non-NMC reduce-scatter."""
    for suite in sublayer_sweep.run_sweep(fast=True):
        times = suite.times
        assert times["T3"] < times["Sequential"], suite.label
        for name in ("T3", "T3-MCA"):
            assert times[name] >= times["Ideal-RS+NMC"], (suite.label, name)


# ------------------------------------------------------------ sweep caching

def test_run_case_caches_by_label_and_system():
    sublayer_sweep.clear_cache()
    sub = zoo.t_nlg().sublayer("OP", 4)
    system = table1_system(n_gpus=4).with_fidelity(quantum_bytes=64 * 1024)
    first = sublayer_sweep.run_case(sub, fast=True, system=system)
    second = sublayer_sweep.run_case(sub, fast=True, system=system)
    assert first is second  # cache hit returns the identical object
    third = sublayer_sweep.run_case(sub, fast=True, system=system,
                                    use_cache=False)
    assert third is not first
    # Same numbers either way (determinism).
    assert third.times["Sequential"] == pytest.approx(
        first.times["Sequential"])
    sublayer_sweep.clear_cache()


def test_run_case_rejects_tp_mismatched_system():
    sub = zoo.t_nlg().sublayer("OP", 8)
    with pytest.raises(ValueError, match="n_gpus=8"):
        sublayer_sweep.run_case(sub, system=table1_system(n_gpus=4))


def test_run_case_rejects_unknown_config_name():
    """Regression: a typo like "T3-mca" used to be silently dropped and
    only surfaced later as a KeyError in SublayerSuite.speedup()."""
    sub = zoo.t_nlg().sublayer("OP", 4)
    with pytest.raises(ValueError, match="T3-mca"):
        sublayer_sweep.run_case(sub, system=table1_system(n_gpus=4),
                                configs=["Sequential", "T3-mca"])


def test_run_sublayer_suite_rejects_unknown_config_name():
    from repro.experiments.common import run_sublayer_suite
    from repro.gpu.wavefront import GEMMShape
    with pytest.raises(ValueError, match="Ideal-NMC"):
        run_sublayer_suite(table1_system(n_gpus=4),
                           GEMMShape(2048, 1024, 1024),
                           configs=["Ideal-NMC"])


def test_run_case_rejects_unchunkable_shape():
    """Regression: when the unscaled M is already below the min_m the
    sweep computes from tp and the macro-tile, the old code silently
    clamped and let ring fusion fail downstream; now it raises."""
    tiny = zoo.TransformerConfig("tiny", hidden=128, n_layers=2,
                                 seq_len=64, batch=1)
    sub = tiny.sublayer("OP", 4)   # tokens=64 < min_m=4*128
    with pytest.raises(ValueError, match="min_m"):
        sublayer_sweep.run_case(sub, system=table1_system(n_gpus=4))


def test_scaled_shape_rejects_m_below_floor():
    from repro.experiments.common import scaled_shape
    from repro.gpu.wavefront import GEMMShape
    with pytest.raises(ValueError, match="min_m"):
        scaled_shape(GEMMShape(128, 1024, 1024), 8, min_m=512)
    with pytest.raises(ValueError, match="min_m"):
        scaled_shape(GEMMShape(128, 1024, 1024), 1, min_m=512)


def test_default_cases_grids():
    small = sublayer_sweep.default_cases()
    assert len(small) == 16
    assert {c.tp for c in small} == {8, 16}
    large = sublayer_sweep.default_cases(large=True)
    assert len(large) == 12
    assert {c.tp for c in large} == {32}


def test_full_mode_coarsens_quantum():
    sub = zoo.t_nlg().sublayer("OP", 4)
    # Exercised indirectly: full-mode quantum constant must exceed the
    # default fidelity quantum.
    assert sublayer_sweep.FULL_MODE_QUANTUM > \
        table1_system().fidelity.quantum_bytes


# ------------------------------------------------------ result dataclasses

def test_figure15_row_fractions_sum():
    row = Figure15Row(case="x", gemm_us=50, rs_us=30, ag_us=20)
    assert row.total_us == 100
    assert row.gemm_fraction + row.rs_fraction + row.ag_fraction == \
        pytest.approx(1.0)


def test_figure19_result_max_speedup():
    rows = [
        Figure19Row("m", 8, "training", 1.05, 1.08),
        Figure19Row("m", 8, "prompt", 1.07, 1.12),
    ]
    result = Figure19Result(rows=rows, sublayer_speedups={})
    assert result.max_speedup("T3", "training") == 1.05
    assert result.max_speedup("T3-MCA", "prompt") == 1.12
    assert "Figure 19" in result.render()


def test_figure20_result_lookup_and_deltas():
    rows = [
        Figure20Row("PALM/FC-2/TP32", 1.30, 1.35, 1.34, 1.40),
        Figure20Row("PALM/OP/TP32", 1.24, 1.17, 1.26, 1.21),
    ]
    result = Figure20Result(rows=rows)
    fc2 = result.row("FC-2")
    assert fc2.delta == pytest.approx(0.05)
    assert fc2.ideal_delta == pytest.approx(0.06)
    assert result.row("OP").delta == pytest.approx(-0.07)
    with pytest.raises(KeyError):
        result.row("GPT-3")
    assert "ideal1x" in result.render()
