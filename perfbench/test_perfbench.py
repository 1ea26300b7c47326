"""Tests of the benchmark's own machinery: the gate, pins, tracer, entry point.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from gate import (  # noqa: E402
    GateFailure,
    Pins,
    RunGate,
    batch_fingerprint,
    check_coloring,
)
from layers import LayerTracer, layer_report  # noqa: E402


def small_run():
    from repro.engine import RunSpec, run
    from repro.graph.generators import near_regular_edge_array
    from repro.streaming.stream import TokenStream
    from repro.streaming.tokens import edge_tokens

    edges = near_regular_edge_array(64, 6, seed=3)
    source = TokenStream(edge_tokens(edges.tolist()), 64).as_source()
    spec = RunSpec(algorithm="robust", n=64, delta=6, seed=3,
                   verify="strict", keep_coloring=True)
    return edges, run(spec, source)


def test_gate_accepts_a_proper_run_and_is_deterministic():
    edges, first = small_run()
    _, second = small_run()
    assert batch_fingerprint(edges, first) == batch_fingerprint(edges, second)


def test_gate_fires_on_one_corrupted_color():
    edges, result = small_run()
    u, v = edges[0].tolist()
    result.coloring[u] = result.coloring[v]
    with pytest.raises(GateFailure, match="monochromatic"):
        batch_fingerprint(edges, result)


def test_gate_fires_on_an_uncolored_vertex_and_palette_overflow():
    edges = np.array([[0, 1], [1, 2]])
    with pytest.raises(GateFailure, match="uncolored"):
        check_coloring(edges, np.array([1, 2, 0]), palette=3)
    with pytest.raises(GateFailure, match="palette"):
        check_coloring(edges, np.array([1, 2, 4]), palette=3)


def test_gate_fires_on_a_wrong_pinned_fingerprint(tmp_path):
    pins = Pins(tmp_path / "pins.json")
    pins.pin("det-paper", 5, "0" * 64)
    gate = RunGate("det-paper", 5, Pins(tmp_path / "pins.json"))
    gate.check("ab" * 32)
    with pytest.raises(GateFailure, match="pinned"):
        gate.check_pin()


def test_gate_fires_when_a_unit_changes_its_output(tmp_path):
    gate = RunGate("robust-file", 1, Pins(tmp_path / "pins.json"))
    gate.check("a" * 64)
    gate.check("a" * 64)
    with pytest.raises(GateFailure, match="differs"):
        gate.check("b" * 64)
    gate.check("b" * 64, key=1)  # another input has its own fingerprint


def test_tracer_restores_originals_and_accounts_the_wall():
    import repro.kernels as kernels
    from repro.core.robust import RobustColoring

    before = (RobustColoring.process_block, kernels.dispatch)
    tracer = LayerTracer()
    tracer.install()
    try:
        assert RobustColoring.process_block is not before[0]
        start = time.perf_counter()
        small_run()
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert (RobustColoring.process_block, kernels.dispatch) == before
    report = layer_report(tracer.self_s, tracer.counts, wall)
    assert report["robust.process_block_s"] > 0
    assert report["kernels.calls"] > 0
    assert report["streaming.passes"] == 1
    assert 0 <= report["engine.unattributed_s"] < wall


def test_seed_accepts_one_seed_or_a_range():
    import run

    assert run.parse_seeds("7") == [7]
    assert run.parse_seeds("0-3") == [0, 1, 2, 3]
    with pytest.raises(SystemExit):
        run.main(["--seed", "5-3"])


def test_layer_report_fails_on_a_missing_or_unknown_layer():
    import run
    from workloads import RunOutcome

    outcome = RunOutcome(extra={"selector.part_sums_s": (1.0, "s")})
    units = {"selector.part_sums_s": "s", "worker.feed_ms": "ms",
             "selector.member_sums_s": "s", "selector.part_sumz_s": "s"}
    # det-paper never enters the service's layers: those read 0.
    metrics = run.layer_metrics("det-paper", outcome,
                                ["selector.part_sums_s", "worker.feed_ms"], units)
    assert metrics["worker.feed_ms"] == (0.0, "ms")
    for name in ("selector.member_sums_s", "selector.part_sumz_s"):
        with pytest.raises(KeyError, match=name):
            run.layer_metrics("det-paper", outcome, [name], units)


def test_pin_mode_overwrites_a_stale_pin(tmp_path, monkeypatch, capsys):
    import tempfile

    import gate
    import run
    import workloads

    monkeypatch.setitem(workloads.WORKLOADS, "tiny", workloads.BatchWorkload(
        "tiny", "robust", 64, 6, workloads._robust_file_build,
        setup_reps=1))
    monkeypatch.setattr(gate, "PINS_PATH", tmp_path / "pins.json")
    monkeypatch.setattr(run, "RUN_TABLE", tmp_path / "run_table.csv")
    # main() points temporary files at its own scratch directory.
    monkeypatch.setattr(tempfile, "tempdir", tempfile.gettempdir())
    monkeypatch.setenv("TMPDIR", tempfile.gettempdir())
    Pins().pin("tiny", 3, "0" * 64)
    argv = ["--workload", "tiny", "--seed", "3", "--seconds", "0", "--trace", "0"]

    def result(extra=()):
        assert run.main(argv + list(extra)) == 0
        return json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    assert result()["correct"] is False
    assert result(["--pin"])["correct"] is True
    assert Pins().table["tiny"]["3"] != "0" * 64
    assert result()["correct"] is True


def test_resource_tracker_is_stopped_and_reaped():
    from multiprocessing import resource_tracker, shared_memory

    import run

    # Shared memory starts the tracker, as the worker pool's rings do.
    segment = shared_memory.SharedMemory(create=True, size=16)
    segment.close()
    segment.unlink()
    pid = resource_tracker._resource_tracker._pid
    assert pid is not None
    run.stop_resource_tracker()
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)
    run.stop_resource_tracker()  # a second stop is a no-op


def test_entry_point_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "det-paper", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
