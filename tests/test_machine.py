"""The one pass loop and its two drivers.

:func:`repro.streaming.machine.drive_pass` feeds a pass, finishes it,
records its time and folds its result in.  ``color_stream`` (through
:func:`~repro.streaming.machine.drive_blocks`) and
:class:`repro.persist.driver.ResumableRun` (behind every ``run()``) both
call it, so the two must agree on every algorithm, and the driver's
mid-pass snapshots come from a generator around the items rather than
from a branch in the loop.
"""

import pytest

import repro.obs as obs
import repro.persist.driver as driver
from repro.common.space import SpaceMeter
from repro.engine import REGISTRY, RunSpec, StreamingColorer, run
from repro.engine.runner import _build_stream
from repro.streaming.machine import PassConsumer, drive_blocks, drive_pass
from repro.streaming.model import MultipassStreamingAlgorithm
from repro.streaming.stream import TokenStream
from repro.streaming.tokens import edge_tokens


def small_spec(algorithm, **overrides):
    base = dict(
        algorithm=algorithm, n=24, delta=4, seed=3, graph_seed=11,
        stream_backend="materialized", chunk_size=5, keep_coloring=True,
    )
    base.update(overrides)
    return RunSpec(**base)


class _Consumer(PassConsumer):
    """Logs every feed and its finish; raises when fed ``fail_on``."""

    def __init__(self, log, fail_on=None):
        self.log = log
        self.fail_on = fail_on

    def feed(self, item):
        if item == self.fail_on:
            raise RuntimeError(f"cannot feed {item!r}")
        self.log.append(("feed", item))

    def finish(self):
        self.log.append(("finish",))
        return "pass result"


class _Source:
    """Stands in for a StreamSource: only records pass times."""

    def __init__(self, log):
        self.log = log
        self.pass_seconds = []

    def note_pass_time(self, seconds):
        self.log.append(("time",))
        self.pass_seconds.append(seconds)


class _Machine:
    """Stands in for an algorithm: logs what each delivery sees."""

    def __init__(self, log):
        self.log = log

    def blocks_deliver(self, result, stream):
        self.log.append(("deliver", result, len(stream.pass_seconds)))


class TestDrivePass:
    def test_feeds_in_order_then_finishes_times_and_delivers(self):
        log = []
        source = _Source(log)
        drive_pass(_Machine(log), source, _Consumer(log), ["a", "b", "c"])
        # The pass time is on the source before the machine advances.
        assert log == [
            ("feed", "a"), ("feed", "b"), ("feed", "c"), ("finish",),
            ("time",), ("deliver", "pass result", 1),
        ]
        assert len(source.pass_seconds) == 1
        assert source.pass_seconds[0] >= 0.0

    def test_a_failing_feed_records_and_delivers_nothing(self):
        log = []
        source = _Source(log)
        with pytest.raises(RuntimeError, match="cannot feed 'b'"):
            drive_pass(_Machine(log), source, _Consumer(log, fail_on="b"),
                       ["a", "b", "c"])
        assert log == [("feed", "a")]
        assert source.pass_seconds == []

    def test_items_are_drawn_one_feed_at_a_time(self):
        # Code after a generator's yield runs once that item is fed: the
        # driver's mid-pass snapshots rely on this.
        log = []

        def items():
            for item in ("a", "b"):
                yield item
                log.append(("fed", item))

        drive_pass(_Machine(log), _Source(log), _Consumer(log), items())
        assert log == [
            ("feed", "a"), ("fed", "a"), ("feed", "b"), ("fed", "b"),
            ("finish",), ("time",), ("deliver", "pass result", 1),
        ]


class _EdgeCounter(PassConsumer):
    def __init__(self):
        self.edges = 0

    def feed(self, item):
        self.edges += len(item)

    def finish(self):
        return self.edges


class _ThreePasses(MultipassStreamingAlgorithm):
    """Counts the stream's edges once per pass, three times."""

    def __init__(self, n):
        super().__init__()
        self.n = n

    def blocks_start(self):
        self._mach = {"counts": []}

    def blocks_consumer(self):
        return _EdgeCounter() if len(self._mach["counts"]) < 3 else None

    def blocks_deliver(self, result, stream):
        self._mach["counts"].append(result)
        self._mach["coloring"] = {v: v + 1 for v in range(self.n)}


class TestDriveBlocks:
    def test_each_pass_reads_the_whole_stream_and_is_timed_once(self):
        edges = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]
        source = TokenStream(edge_tokens(edges), n=4).as_source(2)
        algo = _ThreePasses(4)
        assert drive_blocks(algo, source) == {0: 1, 1: 2, 2: 3, 3: 4}
        assert algo._mach["counts"] == [5, 5, 5]
        assert source.passes_used == len(source.pass_seconds) == 3


class TestTwoDrivers:
    @pytest.mark.parametrize("name", REGISTRY.names())
    def test_color_stream_matches_run(self, name):
        # color_stream and run() drive the same machine through the same
        # loop: same coloring, same passes, one timing per pass.
        spec = small_spec(name)
        entry = REGISTRY.get(name)
        config = entry.make_config(spec.config)
        source = _build_stream(spec, entry, config)
        algo = entry.create(spec.n, spec.delta, spec.seed, config)
        coloring = algo.color_stream(source)
        result = run(spec)
        assert result.coloring == coloring
        assert result.passes == source.passes_used >= 1
        assert len(result.extras["pass_wall_times"]) == result.passes
        assert len(source.pass_seconds) == source.passes_used

    @pytest.mark.parametrize("name", REGISTRY.names())
    def test_every_run_steps_one_persist_pass_per_pass(self, name, tmp_path):
        # A plain run is the driver: engine.run -> persist.pass ->
        # stream.pass, one persist.pass per pass of every algorithm.
        path = tmp_path / "trace.jsonl"
        obs.configure(trace_log=path)
        try:
            result = run(small_spec(name))
        finally:
            obs.reset()
        spans: dict = {}
        for record in obs.read_trace_log(path):
            spans.setdefault(record["name"], []).append(record)
        (engine,) = spans["engine.run"]
        passes, streams = spans["persist.pass"], spans["stream.pass"]
        assert len(passes) == len(streams) == result.passes
        assert {p["parent"] for p in passes} == {engine["span"]}
        assert sorted(s["parent"] for s in streams) == sorted(
            p["span"] for p in passes
        )


class TestCheckpointedItems:
    @pytest.mark.parametrize("every", [1, 2, 3])
    @pytest.mark.parametrize("name", ["robust", "deterministic"])
    def test_snapshot_after_every_kth_item_and_each_pass(
        self, name, every, tmp_path, monkeypatch
    ):
        written = []

        def record(path, header, arrays):
            written.append((header["in_pass"], header["offset"]))

        monkeypatch.setattr(driver, "write_checkpoint", record)
        spec = small_spec(name)
        entry = REGISTRY.get(name)
        source = _build_stream(spec, entry, entry.make_config(spec.config))
        blocks = sum(1 for _ in source.new_pass())
        result = run(spec, checkpoint_every=every,
                     checkpoint_path=str(tmp_path / "run.ck"))
        one_pass = [(True, k * every) for k in range(1, blocks // every + 1)]
        assert written == (one_pass + [(False, 0)]) * result.passes
        assert result.extras["checkpoints"] == len(written)


class _ColorStreamOnly:
    """Everything a colorer reports, but no pass machine."""

    n = 4
    meter = SpaceMeter()
    palette_bound = None
    peak_space_bits = 0
    random_bits_used = 0

    def color_stream(self, stream):
        return {v: 1 for v in range(self.n)}


class TestSeam:
    def test_the_seam_is_the_pass_machine(self):
        assert not isinstance(_ColorStreamOnly(), StreamingColorer)
        assert isinstance(_ThreePasses(4), StreamingColorer)
