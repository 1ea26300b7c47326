"""repro.obs: the unified tracing + metrics plane.

Covers the metrics registry (no-op handles while disabled, numpy-exact
percentiles, pull-time collectors, Prometheus rendering), the span model
(nesting, emitted spans, cross-process context attach, torn-tail
tolerance of the append-only log), the structured log events behind
``repro serve``, the jittered client reconnect backoff, and the
``repro metrics`` / ``repro trace`` CLI surfaces.
"""

import asyncio
import json
import random

import numpy as np
import pytest

import repro.obs as obs
from repro.common.exceptions import ReproError, ServiceError
from repro.obs.metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    _np_percentile,
)
from repro.service.client import ServiceClient


@pytest.fixture(autouse=True)
def _obs_isolation():
    """Every test leaves obs exactly as it found it: disabled."""
    obs.reset()
    yield
    obs.reset()


# ----------------------------------------------------------------------
# metrics: handles, percentiles, collectors, exposition
# ----------------------------------------------------------------------
class TestMetrics:
    def test_disabled_factories_hand_back_shared_noops(self):
        assert obs.counter("x") is NULL_COUNTER
        assert obs.gauge("y") is NULL_GAUGE
        assert obs.histogram("z") is NULL_HISTOGRAM
        # The no-ops absorb the full instrument surface silently.
        obs.counter("x").inc()
        obs.gauge("y").set(3)
        obs.histogram("z").observe(0.5)
        assert obs.histogram("z").percentile(99) == 0.0

    def test_enabled_handles_are_live_and_shared_per_series(self):
        obs.configure(metrics=True)
        c1 = obs.counter("repro_test_total", "help text")
        c2 = obs.counter("repro_test_total")
        assert c1 is c2
        c1.inc()
        c2.inc(2.5)
        assert c1.value == 3.5
        labelled = obs.counter("repro_test_total", labels={"k": "a"})
        assert labelled is not c1

    def test_metric_kind_conflict_is_a_repro_error(self):
        obs.configure(metrics=True)
        obs.counter("repro_conflict")
        with pytest.raises(ReproError):
            obs.gauge("repro_conflict")

    def test_histogram_percentiles_match_numpy(self):
        obs.configure(metrics=True)
        hist = obs.histogram("repro_lat_seconds")
        rng = random.Random(7)
        samples = [rng.expovariate(20.0) for _ in range(1000)]
        for value in samples:
            hist.observe(value)
        for q in (50, 95, 99):
            assert hist.percentile(q) == pytest.approx(
                float(np.percentile(samples, q)), rel=0, abs=0
            )

    def test_np_percentile_edge_cases(self):
        assert _np_percentile([4.0], 99) == 4.0
        assert _np_percentile([1.0, 2.0], 100) == 2.0
        assert _np_percentile([1.0, 2.0], 0) == 1.0

    def test_snapshot_shape_and_collector_merge(self):
        obs.configure(metrics=True)
        obs.counter("repro_a_total").inc(4)
        obs.gauge("repro_b").set(7)
        obs.histogram("repro_c_seconds").observe(0.02)
        obs.register_collector(
            lambda: [("gauge", "repro_pulled", {"w": "0"}, 11.0)]
        )
        obs.register_collector(lambda: 1 / 0)  # dead collector: swallowed
        snap = obs.metrics_snapshot()
        assert snap["counters"]["repro_a_total"] == 4
        assert snap["gauges"]["repro_b"] == 7
        assert snap["gauges"]['repro_pulled{w="0"}'] == 11.0
        series = snap["histograms"]["repro_c_seconds"]
        assert series["count"] == 1
        assert series["p50"] == pytest.approx(0.02)
        assert set(series) >= {"count", "sum", "p50", "p95", "p99",
                               "buckets", "inf"}

    def test_prometheus_rendering_is_cumulative(self):
        obs.configure(metrics=True)
        hist = obs.histogram("repro_r_seconds", "request latency")
        for value in (0.0004, 0.002, 0.002, 5.0):
            hist.observe(value)
        text = obs.render_prometheus()
        assert "# HELP repro_r_seconds request latency" in text
        assert "# TYPE repro_r_seconds histogram" in text
        assert 'repro_r_seconds_bucket{le="0.0005"} 1' in text
        assert 'repro_r_seconds_bucket{le="0.0025"} 3' in text
        assert 'repro_r_seconds_bucket{le="+Inf"} 4' in text
        assert "repro_r_seconds_count 4" in text

    def test_builtin_collectors_fold_kernel_hits_and_rss(self):
        from repro.engine import RunSpec, run

        obs.configure(metrics=True)
        # Kernels dispatch on the block data path only (the tokens plane
        # has no vectorised hot loops), so pick a block backend.
        run(RunSpec(algorithm="robust", n=64, delta=8, seed=1,
                    stream_backend="materialized"))
        snap = obs.metrics_snapshot()
        kernel_series = [
            name for name in snap["counters"]
            if name.startswith("repro_kernel_dispatch_total")
        ]
        assert kernel_series, snap["counters"]
        if obs.rss_bytes() is not None:
            assert snap["gauges"]["repro_rss_bytes"] > 0

    def test_disable_resets_the_registry(self):
        obs.configure(metrics=True)
        obs.counter("repro_gone_total").inc()
        obs.reset()
        obs.configure(metrics=True)
        assert obs.metrics_snapshot()["counters"].get(
            "repro_gone_total", 0.0
        ) == 0.0


# ----------------------------------------------------------------------
# trace: span tree, emitted spans, remote attach, durability
# ----------------------------------------------------------------------
class TestTrace:
    def test_spans_are_noops_while_disabled(self):
        with obs.span("nothing") as handle:
            assert handle is None
        assert obs.current_trace_context() is None

    def test_span_nesting_builds_one_tree(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs.configure(trace_log=path)
        with obs.span("outer", n=4) as outer:
            outer.set("extra", True)
            with obs.span("inner"):
                obs.emit_span("leaf", 0.001, tag="x")
        obs.reset()  # closes the file handle
        records = {r["name"]: r for r in obs.read_trace_log(path)}
        assert set(records) == {"outer", "inner", "leaf"}
        outer, inner, leaf = (
            records["outer"], records["inner"], records["leaf"]
        )
        assert outer["parent"] is None
        assert inner["parent"] == outer["span"]
        assert leaf["parent"] == inner["span"]
        assert outer["trace"] == inner["trace"] == leaf["trace"]
        assert outer["fields"] == {"n": 4, "extra": True}
        assert leaf["dur_s"] == 0.001
        assert all(r["dur_s"] >= 0 for r in records.values())

    def test_exception_is_recorded_and_reraised(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs.configure(trace_log=path)
        with pytest.raises(ValueError):
            with obs.span("doomed"):
                raise ValueError("boom")
        obs.reset()
        (record,) = obs.read_trace_log(path)
        assert record["fields"]["error"] == "ValueError"

    def test_attach_trace_context_installs_remote_parent(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs.configure(trace_log=path)
        remote = {"trace": "beef.1", "span": "beef.2"}
        with obs.attach_trace_context(remote):
            with obs.span("worker.feed"):
                pass
        obs.reset()
        (record,) = obs.read_trace_log(path)
        assert record["trace"] == "beef.1"
        assert record["parent"] == "beef.2"

    def test_context_dict_round_trips(self, tmp_path):
        obs.configure(trace_log=tmp_path / "trace.jsonl")
        assert obs.current_trace_context() is None
        with obs.span("request") as handle:
            context = obs.current_trace_context()
            assert context == {
                "trace": handle.trace_id, "span": handle.span_id
            }

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs.configure(trace_log=path)
        with obs.span("a"):
            pass
        with obs.span("b"):
            pass
        obs.reset()
        whole = path.read_text()
        path.write_text(whole[: len(whole) - 9])  # kill mid-final-write
        records = obs.read_trace_log(path)
        assert [r["name"] for r in records] == ["a"]

    def test_torn_interior_line_raises(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"name": "a", "tr\n{"name": "b"}\n')
        with pytest.raises(ReproError, match="malformed record at line 1"):
            obs.read_trace_log(path)

    def test_ids_are_deterministic_per_process(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs.configure(trace_log=path)
        with obs.span("one"):
            pass
        obs.reset()
        (record,) = obs.read_trace_log(path)
        pid_hex, _, counter_hex = record["span"].partition(".")
        assert int(pid_hex, 16) == record["pid"]
        assert int(counter_hex, 16) > 0

    def test_pass_wall_times_are_the_stream_pass_spans(self, tmp_path):
        # One record of a pass's time: no consumer adds time to a pass
        # after its span is written.
        from repro.engine import RunSpec, run

        path = tmp_path / "trace.jsonl"
        obs.configure(trace_log=path)
        result = run(RunSpec(
            algorithm="deterministic", n=256, delta=24, seed=1,
            stream_backend="materialized",
        ))
        obs.reset()
        spans = [
            r for r in obs.read_trace_log(path) if r["name"] == "stream.pass"
        ]
        assert len(spans) == result.passes > 1
        assert result.extras["pass_wall_times"] == [
            round(r["dur_s"], 6) for r in spans
        ]


# ----------------------------------------------------------------------
# structlog + configure round trip
# ----------------------------------------------------------------------
class TestStructlogAndConfig:
    def test_plain_mode_prints_message_verbatim(self, capsys):
        obs.log_event("serve.listening",
                      "repro serve: listening on 127.0.0.1:4400",
                      host="127.0.0.1", port=4400)
        assert capsys.readouterr().out == \
            "repro serve: listening on 127.0.0.1:4400\n"

    def test_json_mode_prints_machine_records(self, capsys):
        obs.set_log_json(True)
        obs.log_event("serve.listening", "ignored", host="h", port=9)
        record = json.loads(capsys.readouterr().out)
        assert record == {"level": "info", "event": "serve.listening",
                          "host": "h", "port": 9}

    def test_error_level_routes_to_stderr(self, capsys):
        obs.log_event("serve.fail", "bad news", level="error")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "bad news\n"

    def test_config_round_trips_to_a_worker_process_shape(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs.configure(metrics=True, trace_log=path, log_json=True)
        config = obs.current_config()
        assert config == {"metrics": True, "trace_log": str(path),
                          "log_json": True}
        obs.reset()
        assert not obs.metrics_enabled() and not obs.tracing_enabled()
        obs.configure_from(config)
        assert obs.metrics_enabled()
        assert obs.tracing_enabled()
        assert obs.trace_log_path() == str(path)
        assert obs.log_json_enabled()
        obs.configure_from(None)  # workers of an un-observed dispatcher


# ----------------------------------------------------------------------
# satellite: jittered reconnect backoff
# ----------------------------------------------------------------------
class TestConnectBackoffJitter:
    def _sleep_schedule(self, monkeypatch, **connect_kwargs):
        """Run a doomed connect; return the recorded sleep durations."""
        sleeps = []

        async def fake_sleep(delay):
            sleeps.append(delay)

        async def refused(*args, **kwargs):
            raise ConnectionRefusedError(111, "refused")

        monkeypatch.setattr(asyncio, "sleep", fake_sleep)
        monkeypatch.setattr(asyncio, "open_connection", refused)
        with pytest.raises(ServiceError, match="cannot connect"):
            asyncio.run(ServiceClient.connect(
                "127.0.0.1", 1, **connect_kwargs
            ))
        return sleeps

    def test_zero_jitter_recovers_the_deterministic_schedule(
        self, monkeypatch
    ):
        sleeps = self._sleep_schedule(
            monkeypatch, retries=5, backoff=0.1, max_backoff=2.0, jitter=0.0
        )
        assert sleeps == pytest.approx([0.1, 0.2, 0.4, 0.8, 1.6])

    def test_jitter_is_bounded_below_the_deterministic_schedule(
        self, monkeypatch
    ):
        jitter = 0.5
        sleeps = self._sleep_schedule(
            monkeypatch, retries=6, backoff=0.1, max_backoff=2.0,
            jitter=jitter, rng=random.Random(17),
        )
        bases = [0.1, 0.2, 0.4, 0.8, 1.6, 2.0]  # capped at max_backoff
        assert len(sleeps) == len(bases)
        for slept, base in zip(sleeps, bases):
            assert base * (1 - jitter) <= slept <= base
        # Not secretly deterministic: some attempt must actually differ.
        assert sleeps != pytest.approx(bases)

    def test_seeded_rng_reproduces_the_schedule_exactly(self, monkeypatch):
        first = self._sleep_schedule(
            monkeypatch, retries=4, rng=random.Random(3), jitter=0.5
        )
        second = self._sleep_schedule(
            monkeypatch, retries=4, rng=random.Random(3), jitter=0.5
        )
        assert first == second

    def test_distinct_clients_desynchronise(self, monkeypatch):
        schedules = [
            self._sleep_schedule(
                monkeypatch, retries=4, rng=random.Random(seed), jitter=0.5
            )
            for seed in range(2)
        ]
        assert schedules[0] != schedules[1]

    def test_jitter_out_of_range_is_rejected(self):
        with pytest.raises(ValueError, match="jitter"):
            asyncio.run(ServiceClient.connect("127.0.0.1", 1, jitter=1.5))


# ----------------------------------------------------------------------
# CLI: repro trace record / show
# ----------------------------------------------------------------------
class TestTraceCli:
    def test_record_then_show(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "run.jsonl"
        assert main(["trace", "record", "--out", str(out),
                     "--algorithm", "robust", "--n", "96",
                     "--seed", "5"]) == 0
        recorded = capsys.readouterr().out
        assert "recorded" in recorded and str(out) in recorded
        records = obs.read_trace_log(out)
        names = {r["name"] for r in records}
        assert "engine.run" in names
        assert main(["trace", "show", str(out)]) == 0
        shown = capsys.readouterr().out
        assert "engine.run" in shown
        assert "span(s)" in shown

    def test_record_with_checkpoints_traces_persist_layer(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        out = tmp_path / "ck.jsonl"
        assert main(["trace", "record", "--out", str(out),
                     "--algorithm", "robust", "--n", "96", "--seed", "5",
                     "--checkpoint-every", "2"]) == 0
        capsys.readouterr()
        names = {r["name"] for r in obs.read_trace_log(out)}
        assert {"engine.run", "persist.pass",
                "persist.checkpoint_write"} <= names

    def test_show_json_round_trips(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "run.jsonl"
        assert main(["trace", "record", "--out", str(out),
                     "--algorithm", "naive", "--n", "64",
                     "--seed", "1"]) == 0
        capsys.readouterr()
        assert main(["trace", "show", str(out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and payload
        assert {"name", "trace", "span", "pid", "dur_s"} <= set(payload[0])
