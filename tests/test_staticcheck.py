"""Tests for ``repro.staticcheck``: the AST contract checker.

Three layers:

- per-rule fixtures: one known-bad and one known-good snippet per rule,
  written into a ``<tmp>/repro/...`` tree so package-scoped rules apply;
- the self-scan: the committed tree must match the committed baseline
  *exactly* (no new findings, no stale entries) — this is the test that
  keeps the lint gate honest;
- the CLI: ``repro lint`` exit codes, JSON output, rule selection.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.common.exceptions import ReproError
from repro.staticcheck import (
    ALL_RULES,
    compare_with_baseline,
    load_baseline,
    run_lint,
    rules_by_id,
    save_baseline,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"
BASELINE = REPO_ROOT / "lint-baseline.json"


def lint_snippet(tmp_path, relpath, source, *, rules=None, allowlist=None):
    """Write ``source`` at ``<tmp>/<relpath>`` and lint the tmp tree."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return run_lint([tmp_path], rules=rules, root=tmp_path,
                    codec_allowlist=allowlist)


def rule_ids(report):
    return {f.rule for f in report.findings}


# ----------------------------------------------------------------------
# R1 metered randomness
# ----------------------------------------------------------------------
def test_r1_flags_bare_random_in_core(tmp_path):
    report = lint_snippet(tmp_path, "repro/core/algo.py", """\
        import random

        def draw():
            return random.randint(0, 7)
        """, rules=["R1"])
    assert rule_ids(report) == {"R1"}


def test_r1_flags_numpy_random_alias(tmp_path):
    report = lint_snippet(tmp_path, "repro/baselines/algo.py", """\
        import numpy as np

        def draw():
            return np.random.default_rng(0)
        """, rules=["R1"])
    assert rule_ids(report) == {"R1"}


def test_r1_allows_seeded_rng_and_other_packages(tmp_path):
    clean = lint_snippet(tmp_path, "repro/core/algo.py", """\
        from repro.common.rng import SeededRng

        def draw(meter):
            return SeededRng(7, meter).randint(0, 7)
        """, rules=["R1"])
    assert clean.findings == []
    # the same import is fine outside core/baselines
    elsewhere = lint_snippet(tmp_path, "repro/analysis/plot.py",
                             "import random\n", rules=["R1"])
    assert elsewhere.findings == []


# ----------------------------------------------------------------------
# R2 snapshot completeness
# ----------------------------------------------------------------------
def test_r2_flags_unrepresentable_state_in_allowlisted_class(tmp_path):
    report = lint_snippet(tmp_path, "repro/core/widget.py", """\
        class Widget:
            def __init__(self):
                self.fn = lambda x: x
        """, rules=["R2"], allowlist={"repro.core.widget:Widget"})
    assert rule_ids(report) == {"R2"}
    assert "lambda" in report.findings[0].message


def test_r2_respects_snapshot_skip(tmp_path):
    report = lint_snippet(tmp_path, "repro/core/widget.py", """\
        class Widget:
            _snapshot_skip_ = ("fn",)

            def __init__(self):
                self.fn = lambda x: x
                self.n = 4
        """, rules=["R2"], allowlist={"repro.core.widget:Widget"})
    assert report.findings == []


def test_r2_ignores_classes_off_the_allowlist(tmp_path):
    report = lint_snippet(tmp_path, "repro/core/widget.py", """\
        class Helper:
            def __init__(self):
                self.fn = lambda x: x
        """, rules=["R2"], allowlist={"repro.core.widget:Widget"})
    assert report.findings == []


# ----------------------------------------------------------------------
# R3 streaming purity
# ----------------------------------------------------------------------
def test_r3_flags_stream_materialization_in_one_pass(tmp_path):
    report = lint_snippet(tmp_path, "repro/core/algo.py", """\
        from repro.streaming.model import OnePassAlgorithm

        class Sketchy(OnePassAlgorithm):
            def finalize(self, graph):
                return list(graph.edges())
        """, rules=["R3"])
    assert rule_ids(report) == {"R3"}


def test_r3_ignores_multipass_classes(tmp_path):
    report = lint_snippet(tmp_path, "repro/core/algo.py", """\
        from repro.streaming.model import MultipassStreamingAlgorithm

        class TwoPass(MultipassStreamingAlgorithm):
            def finalize(self, graph):
                return list(graph.edges())
        """, rules=["R3"])
    assert report.findings == []


# ----------------------------------------------------------------------
# R4 async bodies never block
# ----------------------------------------------------------------------
def test_r4_flags_blocking_call_in_service_coroutine(tmp_path):
    report = lint_snippet(tmp_path, "repro/service/pump.py", """\
        import time

        async def pump():
            time.sleep(1)
        """, rules=["R4"])
    assert rule_ids(report) == {"R4"}


def test_r4_allows_to_thread(tmp_path):
    report = lint_snippet(tmp_path, "repro/service/pump.py", """\
        import asyncio
        import os

        async def pump(path):
            await asyncio.to_thread(os.unlink, path)
        """, rules=["R4"])
    assert report.findings == []


# ----------------------------------------------------------------------
# R5 guarantee registration
# ----------------------------------------------------------------------
def test_r5_flags_entry_without_guarantee_or_config(tmp_path):
    report = lint_snippet(tmp_path, "repro/engine/reg.py", """\
        from repro.engine.registry import AlgorithmEntry

        ENTRY = AlgorithmEntry(name="x", factory=object, config_cls=dict)
        """, rules=["R5"])
    messages = [f.message for f in report.findings]
    assert len(messages) == 2
    assert any("GuaranteeSpec" in m for m in messages)
    assert any("config_cls" in m for m in messages)


def test_r5_accepts_dataclass_config_with_round_trip(tmp_path):
    report = lint_snippet(tmp_path, "repro/engine/reg.py", """\
        from dataclasses import dataclass

        from repro.engine.guarantees import GuaranteeSpec
        from repro.engine.registry import AlgorithmEntry

        @dataclass
        class Cfg:
            n: int = 0

            @classmethod
            def from_dict(cls, data):
                return cls(**data)

            def to_dict(self):
                return {"n": self.n}

        ENTRY = AlgorithmEntry(
            name="x", factory=object, config_cls=Cfg,
            guarantee=GuaranteeSpec,
        )
        """, rules=["R5"])
    assert report.findings == []


# ----------------------------------------------------------------------
# R6 CLI exit-code convention
# ----------------------------------------------------------------------
def test_r6_flags_nonstandard_exit_status(tmp_path):
    report = lint_snippet(tmp_path, "repro/cli.py", """\
        import sys

        def main():
            sys.exit(3)
        """, rules=["R6"])
    assert rule_ids(report) == {"R6"}


def test_r6_flags_silent_taxonomy_handler(tmp_path):
    report = lint_snippet(tmp_path, "repro/cli.py", """\
        from repro.common.exceptions import ReproError

        def main():
            try:
                work()
            except ReproError:
                return 0
        """, rules=["R6"])
    messages = [f.message for f in report.findings]
    assert len(messages) == 2  # neither exit-2 nor a stderr message
    assert any("status 2" in m for m in messages)
    assert any("sys.stderr" in m for m in messages)


def test_r6_accepts_the_convention(tmp_path):
    report = lint_snippet(tmp_path, "repro/cli.py", """\
        import sys

        from repro.common.exceptions import ReproError

        def main():
            try:
                work()
            except ReproError as error:
                print(f"repro: error: {error}", file=sys.stderr)
                return 2
            return 0
        """, rules=["R6"])
    assert report.findings == []


# ----------------------------------------------------------------------
# R7 determinism hygiene
# ----------------------------------------------------------------------
def test_r7_flags_wall_clock_and_set_iteration(tmp_path):
    report = lint_snippet(tmp_path, "repro/core/algo.py", """\
        import time

        def run():
            start = time.time()
            for v in {1, 2, 3}:
                pass
            return start
        """, rules=["R7"])
    assert len(report.findings) == 2
    assert rule_ids(report) == {"R7"}


def test_r7_perf_counter_needs_annotation(tmp_path):
    flagged = lint_snippet(tmp_path, "repro/core/timed.py", """\
        import time

        def run():
            return time.perf_counter()
        """, rules=["R7"])
    assert rule_ids(flagged) == {"R7"}
    annotated = lint_snippet(tmp_path, "repro/core/timed.py", """\
        import time

        def run():
            return time.perf_counter()  # repro: noqa[R7] timing extras
        """, rules=["R7"])
    assert annotated.findings == []
    assert annotated.suppressed == 1


def test_r7_sorted_iteration_is_fine(tmp_path):
    report = lint_snippet(tmp_path, "repro/core/algo.py", """\
        def run(items):
            return [v for v in sorted({1, 2, 3})] + sorted(set(items))
        """, rules=["R7"])
    assert report.findings == []


# ----------------------------------------------------------------------
# R8 exception taxonomy
# ----------------------------------------------------------------------
def test_r8_flags_bare_builtin_raise(tmp_path):
    report = lint_snippet(tmp_path, "repro/core/algo.py", """\
        def run(n):
            if n < 0:
                raise ValueError(f"bad n {n}")
        """, rules=["R8"])
    assert rule_ids(report) == {"R8"}
    assert "ReproError taxonomy" in report.findings[0].message


def test_r8_accepts_taxonomy_and_protocol_raises(tmp_path):
    report = lint_snippet(tmp_path, "repro/core/algo.py", """\
        from repro.common.exceptions import ParameterError

        def run(n):
            if n < 0:
                raise ParameterError(f"bad n {n}")

        def __getattr__(name):
            raise AttributeError(name)
        """, rules=["R8"])
    assert report.findings == []


# ----------------------------------------------------------------------
# R9 worker IPC discipline
# ----------------------------------------------------------------------
def test_r9_flags_pickle_in_ipc_scope(tmp_path):
    report = lint_snippet(tmp_path, "repro/service/shard.py", """\
        import pickle

        def ship(conn, edges):
            payload = pickle.dumps(edges)
        """, rules=["R9"])
    assert rule_ids(report) == {"R9"}
    assert len(report.findings) == 2  # the import and the dumps call


def test_r9_flags_raw_pipe_io_outside_choke_points(tmp_path):
    report = lint_snippet(tmp_path, "repro/service/shard.py", """\
        def ship(conn, edges):
            conn.send(edges)

        def pump(conn):
            return conn.recv_bytes()
        """, rules=["R9"])
    assert rule_ids(report) == {"R9"}
    assert len(report.findings) == 2
    assert all("choke points" in f.message for f in report.findings)


def test_r9_allows_choke_points_and_other_packages(tmp_path):
    clean = lint_snippet(tmp_path, "repro/service/shard.py", """\
        def _send_msg(conn, message):
            conn.send(message)

        def _recv_msg(conn):
            return conn.recv()

        async def pump(conn):
            import asyncio
            return await asyncio.to_thread(_recv_msg, conn)
        """, rules=["R9"])
    assert clean.findings == []
    # pickle is not this rule's business outside the IPC scope
    elsewhere = lint_snippet(tmp_path, "repro/analysis/cache.py", """\
        import pickle

        def save(obj):
            return pickle.dumps(obj)
        """, rules=["R9"])
    assert elsewhere.findings == []


# ----------------------------------------------------------------------
# R10 kernel-dispatch discipline
# ----------------------------------------------------------------------
def test_r10_flags_direct_impl_imports(tmp_path):
    report = lint_snippet(tmp_path, "repro/streaming/fast.py", """\
        from repro.kernels.numpy_impl import running_degrees
        from repro.kernels import numpy_impl
        import repro.kernels.numpy_impl

        def degrees(deg0, edges):
            return running_degrees(deg0, edges)
        """, rules=["R10"])
    assert rule_ids(report) == {"R10"}
    assert len(report.findings) == 3
    assert all("dispatch" in f.message for f in report.findings)


def test_r10_allows_kernels_package_and_dispatch_call_sites(tmp_path):
    clean = lint_snippet(tmp_path, "repro/kernels/extra.py", """\
        from repro.kernels.numpy_impl import NUMPY_KERNELS
        """, rules=["R10"])
    assert clean.findings == []
    call_site = lint_snippet(tmp_path, "repro/streaming/fast.py", """\
        from repro.kernels import dispatch

        def degrees(deg0, edges):
            return dispatch("running_degrees", deg0, edges)
        """, rules=["R10"])
    assert call_site.findings == []


def test_r4_flags_pipe_recv_in_service_coroutine(tmp_path):
    report = lint_snippet(tmp_path, "repro/service/pump.py", """\
        async def pump(conn):
            return conn.recv()
        """, rules=["R4"])
    assert rule_ids(report) == {"R4"}


# ----------------------------------------------------------------------
# R11 shard-container discipline
# ----------------------------------------------------------------------
def test_r11_flags_magic_literal_outside_container_module(tmp_path):
    report = lint_snippet(tmp_path, "repro/graph/loader.py", """\
        import json

        def probe(path):
            with open(path) as fh:
                return json.load(fh).get("magic") == "REPROED2"
        """, rules=["R11"])
    assert rule_ids(report) == {"R11"}
    assert "one module" in report.findings[0].message
    raw = lint_snippet(tmp_path, "repro/streaming/peek.py", """\
        MAGIC = b"REPROED2-ish"
        """, rules=["R11"])
    assert rule_ids(raw) == {"R11"}


def test_r11_flags_private_helper_imports(tmp_path):
    report = lint_snippet(tmp_path, "repro/engine/fast_io.py", """\
        from repro.streaming.sharded import _ShardWriter, _sha256_payload
        """, rules=["R11"])
    assert rule_ids(report) == {"R11"}
    assert len(report.findings) == 2
    assert all("private" in f.message for f in report.findings)


def test_r11_allows_container_module_prose_and_public_api(tmp_path):
    owner = lint_snippet(tmp_path, "repro/streaming/sharded.py", """\
        MANIFEST_MAGIC = "REPROED2"

        def _sha256_payload(path):
            return path
        """, rules=["R11"])
    assert owner.findings == []
    consumer = lint_snippet(tmp_path, "repro/engine/fast_io.py", '''\
        """Streams the REPROED2 container (prose mention is fine)."""

        from repro.streaming.sharded import ShardedFileSource

        def open_container(path):
            return ShardedFileSource(path)
        ''', rules=["R11"])
    assert consumer.findings == []


# ----------------------------------------------------------------------
# R12 instrumentation discipline
# ----------------------------------------------------------------------
def test_r12_flags_raw_timing_outside_obs(tmp_path):
    report = lint_snippet(tmp_path, "repro/engine/tuner.py", """\
        import time

        def measure(fn):
            start = time.perf_counter()
            fn()
            return time.perf_counter() - start
        """, rules=["R12"])
    assert rule_ids(report) == {"R12"}
    assert len(report.findings) == 2
    assert all("repro.obs" in f.message for f in report.findings)


def test_r12_flags_monotonic_variants(tmp_path):
    report = lint_snippet(tmp_path, "repro/service/probe.py", """\
        import time

        def tick():
            return time.monotonic_ns()
        """, rules=["R12"])
    assert rule_ids(report) == {"R12"}


def test_r12_allows_obs_and_perf_now_consumers(tmp_path):
    owner = lint_snippet(tmp_path, "repro/obs/clock.py", """\
        import time

        def perf_now():
            return time.perf_counter()
        """, rules=["R12"])
    assert owner.findings == []
    consumer = lint_snippet(tmp_path, "repro/engine/tuner.py", """\
        from repro.obs.clock import perf_now

        def measure(fn):
            start = perf_now()
            fn()
            return perf_now() - start
        """, rules=["R12"])
    assert consumer.findings == []


# ----------------------------------------------------------------------
# framework: suppression, baseline, rule selection
# ----------------------------------------------------------------------
def test_bare_noqa_suppresses_all_rules(tmp_path):
    report = lint_snippet(tmp_path, "repro/core/algo.py", """\
        import time

        def run():
            return time.time()  # repro: noqa
        """, rules=["R7"])
    assert report.findings == []
    assert report.suppressed == 1


def test_unknown_rule_id_is_an_error():
    with pytest.raises(ReproError, match="unknown rule"):
        rules_by_id(["R99"])
    assert len(rules_by_id(["r1", "R8"])) == 2
    assert {rule.id for rule in ALL_RULES} == {f"R{i}" for i in range(1, 13)}


def test_baseline_round_trip_and_stale_detection(tmp_path):
    bad = tmp_path / "repro" / "core" / "algo.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import random\n")
    first = run_lint([tmp_path], rules=["R1"], root=tmp_path)
    assert first.exit_code == 2

    baseline_path = tmp_path / "baseline.json"
    save_baseline(baseline_path, first.findings)
    grandfathered = run_lint([tmp_path], rules=["R1"], root=tmp_path,
                             baseline_path=baseline_path)
    assert grandfathered.exit_code == 0
    assert grandfathered.findings and not grandfathered.new

    # fixing the violation makes the baseline entry stale -> exit 2 again
    bad.write_text("x = 1\n")
    fixed = run_lint([tmp_path], rules=["R1"], root=tmp_path,
                     baseline_path=baseline_path)
    assert fixed.exit_code == 2
    assert fixed.stale and not fixed.new


def test_malformed_baseline_is_an_error(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text('{"version": 99}')
    with pytest.raises(ReproError, match="version-1"):
        load_baseline(path)
    path.write_text('{"version": 1, "findings": {"fp": 0}}')
    with pytest.raises(ReproError, match="malformed"):
        load_baseline(path)


def test_compare_with_baseline_counts():
    from collections import Counter

    from repro.staticcheck import Finding

    finding = Finding(path="repro/x.py", line=3, col=0, rule="R8",
                      message="m", text="raise ValueError(...)")
    new, stale = compare_with_baseline(
        [finding, finding], Counter({finding.fingerprint(): 1})
    )
    assert len(new) == 1 and not stale


# ----------------------------------------------------------------------
# the self-scan: the committed tree matches the committed baseline
# ----------------------------------------------------------------------
def test_self_scan_is_clean_against_committed_baseline():
    report = run_lint([SRC], root=REPO_ROOT, baseline_path=BASELINE)
    assert report.files >= 75
    assert report.rules == [f"R{i}" for i in range(1, 13)]
    assert report.ok, "\n" + report.render()


def test_committed_baseline_is_empty():
    # Deliberate exceptions live as inline annotations, not baseline
    # entries; see DESIGN.md "Static verification".
    assert dict(load_baseline(BASELINE)) == {}


# ----------------------------------------------------------------------
# the CLI
# ----------------------------------------------------------------------
def test_cli_lint_clean_tree_exits_zero(capsys):
    code = main(["lint", str(SRC), "--baseline", str(BASELINE)])
    out = capsys.readouterr().out
    assert code == 0
    assert "contracts hold" in out


def test_cli_lint_exits_two_on_injected_violation(tmp_path, capsys):
    bad = tmp_path / "repro" / "core" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import random\nraise RuntimeError('boom')\n")
    code = main(["lint", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 2
    assert "contracts VIOLATED" in out
    assert "R1" in out and "R8" in out


def test_cli_lint_json_output(tmp_path, capsys):
    bad = tmp_path / "repro" / "core" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import random\n")
    code = main(["lint", str(tmp_path), "--json", "--rules", "R1"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["ok"] is False
    assert payload["rules"] == ["R1"]
    assert payload["new"][0]["rule"] == "R1"


def test_cli_lint_unknown_rule_exits_two(capsys):
    code = main(["lint", str(SRC), "--rules", "R99"])
    err = capsys.readouterr().err
    assert code == 2
    assert "unknown rule" in err


def test_cli_lint_update_baseline(tmp_path, capsys):
    bad = tmp_path / "repro" / "core" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import random\n")
    baseline_path = tmp_path / "baseline.json"
    assert main(["lint", str(tmp_path), "--baseline",
                 str(baseline_path), "--update-baseline"]) == 0
    capsys.readouterr()
    assert main(["lint", str(tmp_path), "--baseline",
                 str(baseline_path)]) == 0
