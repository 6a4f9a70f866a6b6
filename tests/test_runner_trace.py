"""Tests for the ``runner trace`` subcommand and ``--trace`` plumbing."""

import json

import pytest

from repro.analysis.trace import TraceRecorder
from repro.config import table1_system
from repro.experiments import runner
from repro.gpu.wavefront import GEMMShape
from repro.interconnect.topology import RingTopology
from repro.obs import MetricsRegistry
from repro.sim import Environment
from repro.t3.fusion import FusedGEMMRS
from repro.trace.cli import main as trace_cli
from repro.trace.passes import PASSES


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    env = Environment()
    registry = MetricsRegistry()
    env.obs = registry
    env.trace = TraceRecorder(record_dram=True)
    system = table1_system(n_gpus=4).with_fidelity(quantum_bytes=16 * 1024)
    topo = RingTopology(env, system)
    FusedGEMMRS(topo, GEMMShape(1024, 512, 256), n_cus=4).run()
    path = tmp_path_factory.mktemp("cli") / "run.trace.json"
    env.trace.save(str(path), registry=registry)
    return path


# ----------------------------------------------------------- trace CLI

def test_default_runs_every_pass(trace_file, capsys):
    assert trace_cli([str(trace_file)]) == 0
    out = capsys.readouterr().out
    assert "compute" in out and "critical path" in out


def test_list_passes_needs_no_file(capsys):
    assert trace_cli(["--list-passes"]) == 0
    out = capsys.readouterr().out
    for name in PASSES:
        assert name in out


def test_json_to_stdout(trace_file, capsys):
    assert trace_cli([str(trace_file), "--pass", "summary",
                      "--json", "-"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    assert payload["trace"] == str(trace_file)
    assert [p["pass"] for p in payload["passes"]] == ["summary"]


def test_json_to_file_creates_parents(trace_file, tmp_path, capsys):
    target = tmp_path / "deep" / "dir" / "report.json"
    assert trace_cli([str(trace_file), "--pass", "decomposition",
                      "--json", str(target)]) == 0
    capsys.readouterr()
    payload = json.loads(target.read_text())
    assert payload["passes"][0]["pass"] == "decomposition"
    assert payload["passes"][0]["hidden_ns"] >= 0


def test_missing_file_is_an_error(capsys):
    assert trace_cli(["/nonexistent/run.trace.json"]) == 2
    assert "no such trace file" in capsys.readouterr().err


def test_unknown_pass_is_an_error(trace_file, capsys):
    assert trace_cli([str(trace_file), "--pass", "nonsense"]) == 2
    assert "nonsense" in capsys.readouterr().err


# ------------------------------------------------- runner integration

def test_runner_delegates_trace_subcommand(trace_file, capsys):
    assert runner.main(["trace", str(trace_file),
                        "--pass", "summary"]) == 0
    assert "spans by category" in capsys.readouterr().out


def test_runner_trace_rejects_all(capsys):
    assert runner.main(["all", "--trace", "out.json"]) == 2
    assert "single experiment" in capsys.readouterr().err


def test_runner_trace_rejects_unsupported_experiment(capsys):
    assert runner.main(["figure16", "--trace", "out.json"]) == 2
    err = capsys.readouterr().err
    assert "not supported" in err and "scaleout" in err


def test_trace_capable_covers_wired_experiments():
    capable = {name for name in runner.EXPERIMENTS
               if runner._trace_capable(name)}
    assert {"scaleout", "chaos", "fault-sweep"} <= capable
    assert "figure16" not in capable
